"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Each workload is built from the run's seed alone and hands bernsched only
the generated instances.  A workload is a set-up step plus a fixed list of
operations; one pass runs every operation once.  Each operation has a
check that runs outside the timed region and returns the reasons it
failed (an empty list when the output is right).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from bernsched import cli, harness, policies
from bernsched.harness import ExperimentSpec
from bernsched.instances import instance_to_dict, validate_and_canonicalize
from bernsched.numerics import SeedStream

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Seeds with a committed reference fingerprint for every instance.  Every
#: input of a run, Monte-Carlo seeds included, derives from the run's seed
#: modulo this number, so each input set has been checked once in full.
REFERENCE_SEEDS = 16

SWEEP_SCHEMES = ("separated", "grouped", "powers-of-c")
#: types x jobs per type x machines
SWEEP_SHAPES = ((2, 3, 1), (2, 3, 2), (3, 3, 2), (2, 5, 2), (3, 4, 3),
                (4, 3, 2), (2, 6, 3))
#: Grouped sizes draw their ratios from the seed, and so does the cost of
#: grouped 3x4x3 and 4x3x2: 1.7-3.3 s and 4.1-9.4 s over seeds 1-5, more
#: than a run can average.  The other four repeat a separated twin: the same
#: state counts for powers-of-c, and for 2x6x3 a cost that is almost all
#: the 2 x 4,096-outcome enumeration of the baselines.  Without them a pass
#: takes about 7 s, so a run fits three.
SWEEP_LEFT_OUT = (("grouped", (3, 4, 3)), ("grouped", (4, 3, 2)),
                  ("grouped", (2, 6, 3)), ("powers-of-c", (3, 4, 3)),
                  ("powers-of-c", (4, 3, 2)), ("powers-of-c", (2, 6, 3)))

WIDEGAP_RATIOS = (169, 845, 1690, 4225, 8450, 16900)
#: Every generated job is stochastic (no q = 1), so exact enumeration of a
#: policy covers 2^N outcomes on every seed.  With q = 1 allowed it covers
#: 2^F, F the number of stochastic jobs, and the sweep's cost followed F.
Q_CHOICES = (0.25, 0.5, 0.75)

MC_TRIALS = 2000
#: Instances this small also get their tables replayed in the check.
CHECK_REPLAY_JOBS = 6
CHECK_MC_TRIALS = 200
#: Criterion 11: a Monte-Carlo mean stays within this many standard errors.
MC_SIGMAS = 4.0
TOL = 1e-9


def instance_key(inst):
    text = json.dumps(instance_to_dict(inst), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def table_digest(table):
    """SHA-256 over the sorted ``state=decision`` lines of a decision table,
    in the form ``bernsched dump-policy`` writes."""
    lines = []
    for key, decision in table.items():
        if isinstance(decision, tuple):
            decision = "idle" if decision[0] == "idle" else decision[1]
        lines.append(f"{cli.state_to_str(key)}={decision}\n")
    lines.sort()
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def fingerprint(row, exact, stratified):
    return {
        "exact_value": repr(row.exact_value),
        "stratified_value": repr(row.stratified_value),
        "exact_states": row.exact_states,
        "stratified_states": row.stratified_states,
        "exact_table": table_digest(exact.policy),
        "stratified_table": table_digest(stratified.policy),
    }


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


def mc_misses(mean, stderr, truth):
    """Criterion 11 as one predicate: True when the mean is too far off."""
    if stderr == 0.0:
        return not close(mean, truth)
    return abs(mean - truth) > MC_SIGMAS * stderr


# -- instances ----------------------------------------------------------------

def sweep_instances(seed):
    out = []
    for scheme in SWEEP_SCHEMES:
        for shape in SWEEP_SHAPES:
            if (scheme, shape) in SWEEP_LEFT_OUT:
                continue
            n, j, m = shape
            spec = ExperimentSpec(n_types=n, jobs_per_type=j, machines=m,
                                  scheme=scheme, q_choices=Q_CHOICES,
                                  count=1, seed=seed)
            out.append((f"{scheme} {n}x{j}x{m}", harness.generate(spec)[0]))
    return out


def widegap_instances(seed):
    """Two types, two jobs each, one machine; the larger size is the smaller
    times the ratio, so the grid prefix grows with the ratio."""
    out = []
    for k, ratio in enumerate(WIDEGAP_RATIOS):
        rng = SeedStream(seed, k).generator()
        base = int(rng.integers(1, 6))
        qs = [[Q_CHOICES[int(rng.integers(0, len(Q_CHOICES)))] for _ in range(2)]
              for _ in range(2)]
        inst = validate_and_canonicalize(
            1, "1/13", [(base * ratio, qs[0]), (base, qs[1])]
        )
        out.append((f"ratio {ratio}", inst))
    return out


def table_instance(seed):
    """The separated 2x3x2 instance whose solver tables ``mc`` replays."""
    spec = ExperimentSpec(n_types=2, jobs_per_type=3, machines=2,
                          scheme="separated", count=1, seed=seed)
    return harness.generate(spec)[0]


def criterion11_instances():
    """The ten instances of acceptance criterion 11: up to three jobs of
    sizes 1-9 on up to two machines, from SeedStream(121212, k)."""
    sizes, qs = (1, 2, 3, 5, 9), (0.25, 0.5, 0.75, 1.0)
    out = []
    for k in range(10):
        rng = SeedStream(121212, k).generator()
        n_jobs = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        by_size = {}
        for _ in range(n_jobs):
            p = sizes[int(rng.integers(0, len(sizes)))]
            q = qs[int(rng.integers(0, len(qs)))]
            by_size.setdefault(p, []).append(q)
        out.append(validate_and_canonicalize(m, "1/13", list(by_size.items())))
    return out


# -- operations ---------------------------------------------------------------

class CompareOp:
    """``harness.compare([inst])``; its check fingerprints both solutions."""

    def __init__(self, label, inst, reference, capture, seed):
        self.label = label
        self.inst = inst
        self.key = instance_key(inst)
        self.reference = reference
        self.capture = capture
        self.seed = seed

    def run(self):
        return harness.compare([self.inst])

    def check(self, rows):
        row = rows[0]
        if row.skipped:
            return [f"skipped: {row.skipped}"]
        if len(self.capture.exact) != 1 or len(self.capture.stratified) != 1:
            return ["compare did not run each solver once"]
        exact = self.capture.exact[0]
        strat, rounded, grid = self.capture.stratified[0]
        errors = []
        got = fingerprint(row, exact, strat)
        want = self.reference.get(self.key)
        if want is None:
            errors.append(f"no reference fingerprint for instance {self.key}")
        else:
            errors += [
                f"{field}: {got[field]} != reference {want[field]}"
                for field in want if got[field] != want[field]
            ]
        if self.inst.total_jobs <= CHECK_REPLAY_JOBS:
            errors += self._replay_check(row, exact, strat, rounded, grid)
        return errors

    def _replay_check(self, row, exact, strat, rounded, grid):
        """Each table, replayed on every realization, reproduces its value;
        sampled, it stays within criterion 11's band of that value."""
        errors = []
        cases = (
            ("exact", policies.ExactTablePolicy(exact), self.inst,
             row.exact_value),
            ("stratified", policies.StratifiedTablePolicy(strat, grid),
             rounded, row.stratified_value),
        )
        for name, policy, inst, value in cases:
            replayed = policies.expected_cost_exact(policy, inst)
            if not close(replayed, value):
                errors.append(f"{name} table replays to {replayed}, "
                              f"solver says {value}")
            mean, stderr = policies.expected_cost_mc(
                policy, inst, trials=CHECK_MC_TRIALS, seed=self.seed
            )
            if mc_misses(mean, stderr, value):
                errors.append(f"{name} table: MC {mean} +- {stderr} vs {value}")
        return errors


class MonteCarloOp:
    """One ``expected_cost_mc`` call with a fixed trial count and seed."""

    def __init__(self, label, policy, inst, truth, seed):
        self.label = label
        self.policy = policy
        self.inst = inst
        self.truth = truth
        self.seed = seed
        self.first = None

    def run(self):
        return policies.expected_cost_mc(
            self.policy, self.inst, trials=MC_TRIALS, seed=self.seed
        )

    def check(self, result):
        errors = []
        if self.first is None:
            self.first = result
        elif result != self.first:
            errors.append(f"same seed gave {result}, first run {self.first}")
        mean, stderr = result
        if mc_misses(mean, stderr, self.truth):
            errors.append(f"MC {mean} +- {stderr} vs exact {self.truth}")
        return errors


# -- workloads ----------------------------------------------------------------

class Workload:
    """``setup()`` builds the inputs and the references and returns the
    operations; ``setup_errors`` holds what the set-up itself found wrong."""

    def __init__(self, seed, capture):
        self.seed = seed % REFERENCE_SEEDS
        self.capture = capture
        self.setup_errors = []


class Sweep(Workload):
    def setup(self):
        reference = load_reference()
        return [CompareOp(label, inst, reference, self.capture, self.seed)
                for label, inst in sweep_instances(self.seed)]


class WideGap(Workload):
    def setup(self):
        reference = load_reference()
        return [CompareOp(label, inst, reference, self.capture, self.seed)
                for label, inst in widegap_instances(self.seed)]


class MonteCarlo(Workload):
    def setup(self):
        """Solve the two tables on a separated 2x3x2 instance through
        ``compare`` (which also checks the sandwich bound), fingerprint
        them, and enumerate every policy's exact cost."""
        cases = [(f"sept #{k}", policies.SeptPolicy(), c11)
                 for k, c11 in enumerate(criterion11_instances())]
        inst = table_instance(self.seed)
        table_op = CompareOp("tables", inst, load_reference(), self.capture,
                             self.seed)
        self.capture.clear()
        try:
            self.setup_errors = table_op.check(table_op.run())
        except Exception as exc:  # noqa: BLE001  (reported as a failed set-up)
            self.setup_errors = [f"{type(exc).__name__}: {exc}"]
        if not self.setup_errors:
            exact = self.capture.exact[0]
            strat, rounded, grid = self.capture.stratified[0]
            cases.append(("exact table", policies.ExactTablePolicy(exact), inst))
            cases.append(("stratified table",
                          policies.StratifiedTablePolicy(strat, grid), rounded))
        return [
            MonteCarloOp(label, policy, case_inst,
                         policies.expected_cost_exact(policy, case_inst),
                         seed=self.seed * 100 + k)
            for k, (label, policy, case_inst) in enumerate(cases)
        ]


WORKLOADS = {"sweep": Sweep, "mc": MonteCarlo, "widegap": WideGap}


def reference_fingerprints(seed, capture):
    """Fingerprint every instance that ``seed`` gives the sweep, widegap and
    mc workloads, keyed by instance; used to write ``reference.json``."""
    items = sweep_instances(seed) + widegap_instances(seed)
    items.append(("tables", table_instance(seed)))
    out = {}
    for _label, inst in items:
        capture.clear()
        row = harness.compare([inst])[0]
        if row.skipped or math.isnan(row.exact_value):
            raise RuntimeError(f"reference instance skipped: {row.skipped}")
        out[instance_key(inst)] = fingerprint(
            row, capture.exact[0], capture.stratified[0][0]
        )
    return out
