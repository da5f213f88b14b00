#!/usr/bin/env python3
"""Desk-scale solver comparison sweep.

Generates seeded instance suites for each size scheme and machine count,
solves every instance exactly and with the grid-restricted solver, and
writes per-instance CSV/JSON rows plus a printed summary.  Any ratio
outside [1, B(n, eps)] aborts and saves the offending instance.  A typed
error prints one "error: <Type>: <message>" line and exits 1, as the
``bernsched`` CLI does.

Usage:
    python3 scripts/run_experiments.py --out results/ --count 20 --seed 7
"""

import argparse
import json
import math
import os
import sys

from bernsched.cli import TYPED_ERRORS
from bernsched.harness import (
    SCHEMES,
    BoundViolation,
    ExperimentSpec,
    compare,
    generate,
    json_safe,
    report,
)
from bernsched.instances import save_instance


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--count", type=int, default=20, help="instances per cell")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--types", type=int, default=2)
    ap.add_argument("--jobs", type=int, default=2, help="jobs per type")
    ap.add_argument("--epsilon", default="1/13")
    ap.add_argument("--machines", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    try:
        return sweep(args)
    except TYPED_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def sweep(args):
    """Compare every cell and write its rows, then the summary; 1 at the
    first bound violation, whose instance is saved.  Every cell's
    instances are generated before the output directory is made, so a
    typed input error leaves no directory behind."""
    cells = [
        (f"{scheme}_m{m}", generate(ExperimentSpec(
            n_types=args.types, jobs_per_type=args.jobs, machines=m,
            epsilon=args.epsilon, scheme=scheme, count=args.count,
            seed=args.seed,
        )))
        for scheme in SCHEMES for m in args.machines
    ]
    os.makedirs(args.out, exist_ok=True)
    cell_max = []  # each cell's max ratio, nan where no row has one
    for tag, instances in cells:
        try:
            rows = compare(instances)
        except BoundViolation as exc:
            bad = os.path.join(args.out, f"{tag}_violation.json")
            save_instance(exc.instance, bad)
            print(f"BOUND VIOLATION in {tag}: {exc} (instance -> {bad})")
            return 1
        summary = report(
            rows,
            csv_path=os.path.join(args.out, f"{tag}.csv"),
            json_path=os.path.join(args.out, f"{tag}.json"),
        )
        cell_max.append(summary["max_ratio"])
        print(f"{tag}: {summary['rows']} rows, "
              f"{summary['skipped']} skipped, "
              f"max ratio {summary['max_ratio']:.6f}, "
              f"max states {summary['max_states']}")
    grand_max = max((r for r in cell_max if not math.isnan(r)),
                    default=float("nan"))
    print(f"overall max ratio: {grand_max:.6f}")
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(json_safe({"overall_max_ratio": grand_max}), fh, indent=2,
                  allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
