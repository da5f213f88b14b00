#!/usr/bin/env python3
"""Benchmark of bernsched: sweep, mc and widegap workloads.

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  Each workload is a closed loop: one client, one
operation in flight, no threads.  The run sets up several times, then runs
passes over the workload's operations until ``--seconds`` have gone by
(at least three passes, so every operation is run and checked three times).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it probes peak memory in a first pass, then
alternates plain and traced passes, so the traced run also reports its own
overhead.  Spans are written to ``.bench_out/trace-<workload>.npz``.
``--workload all`` runs the three workloads one after another, each in its
own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("sweep", "mc", "widegap")
SETUP_REPS = 3
MIN_PASSES = 3

#: Timings are reported in seconds at a fixed reference speed.  A shared
#: host's single-thread speed drifts, by a quarter within minutes on the
#: 2-vCPU VM the bounds were set on, so every timed step is bracketed by
#: calibration loops and scaled by CALIBRATION_REF_S / (their median time).
#: The median of several short loops ignores a stall that hits one of them.
CALIBRATION_REF_S = 0.0035
CALIBRATION_LOOPS = 3  # on each side of a timed step

perf = time.perf_counter


def calibration_s():
    """Seconds for a fixed loop of Fraction sums and dict inserts: the same
    kind of work as the solvers' inner loops, but no bernsched code."""
    t0 = perf()
    table = {}
    x = Fraction(0)
    for i in range(1500):
        x += Fraction(i % 7 + 1, i % 5 + 2)
        table[i, x.denominator] = x
    return perf() - t0


@contextlib.contextmanager
def stopwatch():
    """Yields a dict that holds ``raw`` and ``s`` (scaled) seconds on exit,
    also when the timed block raises."""
    times = {}
    loops = [calibration_s() for _ in range(CALIBRATION_LOOPS)]
    t0 = perf()
    try:
        yield times
    finally:
        times["raw"] = perf() - t0
        loops += [calibration_s() for _ in range(CALIBRATION_LOOPS)]
        times["s"] = times["raw"] * CALIBRATION_REF_S / statistics.median(loops)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


#: Times bernsched's own import in a fresh interpreter.  numpy, an outside
#: dependency whose load time bernsched cannot change, is imported before
#: the clock starts.
IMPORT_PROBE = (
    "import sys, time\n"
    "import numpy\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import bernsched.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def import_s():
    """Scaled seconds to import bernsched (every module) in a new process."""
    with stopwatch() as took:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout) * took["s"] / took["raw"]


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def no_span(_name):
    return contextlib.nullcontext()


class Runner:
    """Runs one workload's set-up and passes and keeps the results."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = []
        self.setup_times = []
        self.attempted = 0
        self.failures = []  # (label, reasons)
        self.raw_s = 0.0

    def setup(self, tracer=None):
        span = tracer.span if tracer else no_span
        gc.collect()
        with stopwatch() as took, span("setup"):
            self.ops = self.workload.setup()
        self.setup_times.append(took["s"])
        self.attempted += 1
        if self.workload.setup_errors:
            self.failures.append(("setup", self.workload.setup_errors))

    def execute(self, i, tracer=None):
        """Run operation i once and check its output; returns its scaled
        seconds.  A failing operation is counted, never fatal to the run."""
        op = self.ops[i]
        span = tracer.span if tracer else no_span
        self.workload.capture.clear()
        gc.collect()
        errors = None
        try:
            with stopwatch() as took, span(f"op:{i}"):
                result = op.run()
        except Exception as exc:  # noqa: BLE001  (a failed operation)
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors is None:
            try:
                with span(f"check:{i}"):
                    errors = op.check(result)
            except Exception as exc:  # noqa: BLE001
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        self.workload.capture.clear()
        self.attempted += 1
        self.raw_s += took["raw"]
        if errors:
            self.failures.append((op.label, errors))
        return took["s"]

    def passes(self, deadline, min_passes, tracer=None):
        """Per-operation samples of passes run until the deadline, at least
        ``min_passes`` of them."""
        samples = [[] for _ in self.ops]
        done = 0
        while done < min_passes or perf() < deadline:
            for i in range(len(self.ops)):
                if done >= min_passes and perf() >= deadline:
                    return samples
                samples[i].append(self.execute(i, tracer))
            done += 1
        return samples

    def result(self, metrics):
        failed = len(self.failures)
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def fixed_work(samples):
    """Seconds for one pass: the sum of each operation's median."""
    return sum(statistics.median(s) for s in samples)


def end_to_end(runner, seconds):
    imports = []
    for _ in range(SETUP_REPS):
        imports.append(import_s())
        runner.setup()
    samples = runner.passes(perf() + seconds, MIN_PASSES)
    per_op = sorted(statistics.median(s) for s in samples)
    runs = sum(map(len, samples))
    metrics = {
        "wall_s": (fixed_work(samples), "s"),
        "op_s_p50": (statistics.median(per_op), "s"),
        "op_s_p90": (p90(per_op), "s"),
        "setup_s": (statistics.median(map(sum, zip(imports, runner.setup_times))),
                    "s"),
        "peak_rss_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "ops": f"{len(runner.ops)} operations, {runs} runs",
        "failed_ratio": f"{len(runner.failures) / runner.attempted:.4f} "
                        f"({len(runner.failures)} of {runner.attempted})",
        "unscaled op seconds": f"{runner.raw_s:.3f} in all, scaled "
                               f"{sum(map(sum, samples)):.3f}",
    }
    return metrics, notes


def traced(runner, seconds, name):
    from tracing import MemProbe, Tracer, layer_metrics

    tracer, probe = Tracer(), MemProbe()
    with probe.installed():
        runner.setup()
    for _ in range(SETUP_REPS - 1):
        with tracer.installed():
            runner.setup(tracer)
    deadline = perf() + seconds
    with probe.installed():
        runner.passes(0.0, 1)
    plain, spans = [[] for _ in runner.ops], [[] for _ in runner.ops]
    while not (plain[0] and spans[0]) or perf() < deadline:
        for i, s in enumerate(runner.passes(0.0, 1)):
            plain[i] += s
        with tracer.installed():
            for i, s in enumerate(runner.passes(0.0, 1, tracer)):
                spans[i] += s
    OUT.mkdir(exist_ok=True)
    import numpy as np
    np.savez(OUT / f"trace-{name}.npz", **tracer.arrays())
    metrics = layer_metrics(tracer, probe, fixed_work(spans), fixed_work(plain))
    notes = {
        "passes": f"1 memory probe, {len(plain[0])} plain, {len(spans[0])} traced",
        "spans": f"{len(tracer.name)} kept, written to {OUT.name}/trace-{name}.npz",
    }
    return metrics, notes


def run_one(args):
    from tracing import Capture
    from workloads import WORKLOADS

    capture = Capture()
    runner = Runner(WORKLOADS[args.workload](args.seed, capture))
    with capture.installed():
        if args.trace:
            metrics, notes = traced(runner, args.seconds, args.workload)
        else:
            metrics, notes = end_to_end(runner, args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    for key, text in notes.items():
        print(f"  {key:44s} {text}")
    for label, errors in runner.failures[:20]:
        print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)
    print(json.dumps(runner.result(metrics)), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"benchmark: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bernsched" / "__init__.py").is_file():
        print(f"benchmark: no bernsched sources in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
