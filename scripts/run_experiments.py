#!/usr/bin/env python3
"""Desk-scale solver comparison sweep.

Generates seeded instance suites for each size scheme and machine count,
solves every instance exactly and with the grid-restricted solver, and
writes per-instance CSV/JSON rows plus a printed summary.  Any ratio
outside [1, B(n, eps)] aborts and saves the offending instance.

Usage:
    python3 scripts/run_experiments.py --out results/ --count 20 --seed 7
"""

import argparse
import json
import math
import os
import sys

from bernsched.dp_exact import MAX_JOBS
from bernsched.harness import (
    SCHEMES,
    BoundViolation,
    ExperimentSpec,
    compare,
    generate,
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
    ap.add_argument("--max-jobs", type=int, default=MAX_JOBS,
                    help="skip instances with more jobs than this")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    cell_max = []  # each cell's max ratio, nan where no row has one
    for scheme in SCHEMES:
        for m in args.machines:
            spec = ExperimentSpec(
                n_types=args.types, jobs_per_type=args.jobs, machines=m,
                epsilon=args.epsilon, scheme=scheme, count=args.count,
                seed=args.seed,
            )
            tag = f"{scheme}_m{m}"
            try:
                rows = compare(generate(spec), max_jobs=args.max_jobs)
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
        json.dump({"overall_max_ratio": grand_max}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
