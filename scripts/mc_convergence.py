#!/usr/bin/env python3
"""Monte-Carlo convergence check against enumerated expected cost.

For a few seeded instances, compares the simulated mean at increasing
trial counts with the exactly enumerated value and prints the error in
standard-error units: infinitely many where the standard error is 0 and
the mean misses the value by more than 1e-9 relative.  ``--policy``
picks what is evaluated: SEPT (the default), the exact solver's table,
or the stratified solver's table, which runs on the divisibility-rounded
instance it was solved for.  A typed error prints one
"error: <Type>: <message>" line and exits 1, as the ``bernsched`` CLI does.

Usage:
    python3 scripts/mc_convergence.py --trials 1000 10000 100000 --seed 3
    python3 scripts/mc_convergence.py --policy stratified --trials 100 1000
"""

import argparse
import math
import sys

from bernsched.cli import TYPED_ERRORS, build_policy
from bernsched.harness import ExperimentSpec, generate
from bernsched.policies import expected_cost_exact, expected_cost_mc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, nargs="+",
                    default=[1000, 10000, 100000])
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--policy", choices=("sept", "exact", "stratified"),
                    default="sept")
    args = ap.parse_args(argv)
    if args.count < 1:
        ap.error("--count must be at least 1")
    try:
        worst = worst_deviation(args)
    except TYPED_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"worst deviation: {worst:.2f} standard errors")
    return 0 if worst <= 4 else 1


def worst_deviation(args):
    """Print one line per instance; the largest error in standard-error
    units."""
    spec = ExperimentSpec(n_types=2, jobs_per_type=2, machines=2,
                          scheme="separated", count=args.count, seed=args.seed)
    worst = 0.0
    for idx, inst in enumerate(generate(spec)):
        policy, inst = build_policy(args.policy, inst)
        truth = expected_cost_exact(policy, inst)
        line = [f"i{idx:02d} truth={truth:.4f}"]
        for t in args.trials:
            mean, stderr = expected_cost_mc(policy, inst, trials=t,
                                            seed=args.seed + idx)
            if stderr:
                z = abs(mean - truth) / stderr
            else:  # no spread: the mean must be the truth (criterion 11)
                z = 0.0 if abs(mean - truth) <= 1e-9 * abs(truth) else math.inf
            worst = max(worst, z)
            line.append(f"T={t}: {mean:.4f} ({z:.2f} se)")
        print("  ".join(line))
    return worst


if __name__ == "__main__":
    sys.exit(main())
