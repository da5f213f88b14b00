"""Command-line front end.

Subcommands: gen, solve-exact, solve-stratified, simulate, compare,
grid-dump, round.  All numeric times print as exact "num/den" strings;
JSON outputs follow the documented schemas.  Exit code is nonzero on any
invariant violation; a typed error (replay, solver cap, grid, instance,
numerics) or an output file that cannot be written (``OSError``) prints
"error: <Type>: <message>" to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace

from .dp_exact import SolverCapError, solve_exact
from .harness import (
    SCHEMES,
    BoundViolation,
    ExperimentSpec,
    compare,
    generate,
    json_safe,
    prepare,
    report,
    solve_pipeline,
)
from .instances import (
    Instance,
    InstanceError,
    build_groups,
    instance_to_dict,
    load_instance,
    round_for_divisibility,
    round_to_powers_of_c,
    save_instance,
)
from .numerics import NumericsError, format_rat, parse_rat
from .policies import (
    ExactTablePolicy,
    FixedAssignmentPolicy,
    ReplayError,
    SeptPolicy,
    StratifiedTablePolicy,
    expected_cost_exact,
    expected_cost_mc,
)
from .timegrid import GridError

#: What ``main`` (and each script under ``scripts/``) reports as one
#: "error: <Type>: <message>" line on stderr, exiting 1.
TYPED_ERRORS = (ReplayError, SolverCapError, GridError, InstanceError,
                NumericsError, OSError)


def _profile_str(profile):
    return ",".join(format_rat(x) for x in profile)


def state_to_str(key) -> str:
    profile, nu = key
    return f"[{_profile_str(profile)}]|[{','.join(str(v) for v in nu)}]"


def str_to_state(s: str):
    ppart, npart = s.split("|")
    profile = tuple(
        parse_rat(x) for x in ppart.strip("[]").split(",") if x
    )
    nu = tuple(int(x) for x in npart.strip("[]").split(",") if x)
    return profile, nu


def dump_policy(table, kind: str, path: str):
    """Write ``table`` as JSON, its decisions sorted by state string, so
    the file does not depend on the order in which the solver decided."""
    decisions = dict(sorted(
        (state_to_str(key), "idle" if d[0] == "idle" else d[1])
        for key, d in table.items()))
    with open(path, "w") as fh:
        json.dump({"kind": kind, "decisions": decisions}, fh, indent=2)
        fh.write("\n")


def _decision(value):
    """A dumped decision: "idle", or a type index as a JSON integer (not a
    float or a boolean, which ``int`` would quietly turn into one)."""
    if value == "idle":
        return ("idle",)
    if type(value) is not int:
        raise ValueError(f"decision {value!r} is not 'idle' or a type index")
    return ("start", value)


def load_policy_file(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
        kind = data["kind"]
        if kind not in ("exact", "stratified"):
            raise ReplayError(f"unknown policy kind {kind!r} in {path}")
        table = {str_to_state(s): _decision(value)
                 for s, value in data["decisions"].items()}
    except OSError as exc:
        raise ReplayError(f"cannot read policy file: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ReplayError(f"malformed policy file {path}: {exc!r}") from exc
    return kind, table


def build_policy(name: str, inst: Instance):
    """Returns (policy, evaluation_instance)."""
    if name == "sept":
        return SeptPolicy(), inst
    if name == "fixed":
        return FixedAssignmentPolicy(), inst
    if name == "exact":
        return ExactTablePolicy(solve_exact(inst)), inst
    if name == "stratified":
        sol, grid, rounded, _ = solve_pipeline(inst)
        return StratifiedTablePolicy(sol, grid), rounded
    if name.startswith("file:"):
        kind, table = load_policy_file(name[5:])
        solution = SimpleNamespace(policy=table)
        if kind == "stratified":
            rounded, groups, grid, _ = prepare(inst)
            return StratifiedTablePolicy(solution, grid), rounded
        return ExactTablePolicy(solution), inst
    raise ReplayError(f"unknown policy {name!r}")


def _add_spec_options(p):
    """The generator options that ``gen`` and ``compare`` share."""
    p.add_argument("--types", type=int, default=2)
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument("--machines", type=int, default=1)
    p.add_argument("--epsilon", default="1/13")
    p.add_argument("--scheme", default="separated", choices=SCHEMES)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _spec(args, **extra) -> ExperimentSpec:
    return ExperimentSpec(
        n_types=args.types, jobs_per_type=args.jobs, machines=args.machines,
        epsilon=args.epsilon, scheme=args.scheme, count=args.count,
        seed=args.seed, **extra,
    )


def cmd_gen(args):
    instances = generate(_spec(args, c=args.c))
    for k, inst in enumerate(instances):
        path = f"{args.out_prefix}{k:04d}.json"
        save_instance(inst, path)
        print(path)


def cmd_solve_exact(args):
    inst = load_instance(args.instance)
    sol = solve_exact(inst)
    if args.dump_policy:
        dump_policy(sol.policy, "exact", args.dump_policy)
    print(json.dumps({"value": sol.value, "states": sol.states}))


def cmd_solve_stratified(args):
    inst = load_instance(args.instance)
    sol, _grid, _rounded, merges = solve_pipeline(inst)
    if args.dump_policy:
        dump_policy(sol.policy, "stratified", args.dump_policy)
    if args.diagnostics:
        with open(args.diagnostics, "w") as fh:
            json.dump(sol.diagnostics.as_dict(), fh, indent=2)
            fh.write("\n")
    print(json.dumps({
        "value": sol.value,
        "states": sol.states,
        "merged_sizes": [format_rat(p) for p in merges],
    }))


def cmd_simulate(args):
    inst = load_instance(args.instance)
    policy, eval_inst = build_policy(args.policy, inst)
    if args.enumerate:
        mean = expected_cost_exact(policy, eval_inst)
        out = {"mean": mean, "stderr": 0.0, "method": "enum"}
    else:
        mean, stderr = expected_cost_mc(
            policy, eval_inst, trials=args.trials, seed=args.seed
        )
        out = {"mean": mean, "stderr": stderr, "method": "mc"}
    print(json.dumps(out))


def cmd_compare(args):
    if args.instances:
        instances = [load_instance(p) for p in args.instances]
    else:
        instances = generate(_spec(args))
    try:
        rows = compare(instances)
    except BoundViolation as exc:
        print(f"BOUND VIOLATION: {exc}", file=sys.stderr)
        save_instance(exc.instance, "bound_violation_instance.json")
        print("offending instance saved to bound_violation_instance.json",
              file=sys.stderr)
        raise SystemExit(1)
    summary = report(rows, csv_path=args.csv, json_path=args.json_out)
    print(json.dumps(json_safe(summary), allow_nan=False))


def cmd_grid_dump(args):
    inst = load_instance(args.instance)
    rounded, groups, grid, _ = prepare(inst)
    print("thresholds:")
    for h in range(groups.gamma):
        print(f"  group {h + 1}: p*={format_rat(grid.thresholds.p_star[h])}"
              f" p°={format_rat(grid.thresholds.p_circ[h])}")
    print(f"endpoints (runs from {_profile_str(grid.prefix)}, then step "
          f"{format_rat(grid.tail_step)} from {format_rat(grid.tail_start)}):")
    print("  " + " ".join(format_rat(grid.endpoint(k))
                          for k in range(args.members)))
    for h in range(groups.gamma):
        members = grid.iter_members(h, args.members)
        print(f"Q group {h + 1}: "
              + " ".join(format_rat(x) for x in members))


def cmd_round(args):
    inst = load_instance(args.instance)
    if args.mode == "divisibility":
        groups = build_groups(inst)
        out, _groups, merges = round_for_divisibility(inst, groups)
        if merges:
            print("merged sizes: "
                  + " ".join(format_rat(p) for p in merges), file=sys.stderr)
    else:
        out, scale = round_to_powers_of_c(inst, args.c)
        print(f"pre-scale factor: {format_rat(scale)}", file=sys.stderr)
    if args.out:
        save_instance(out, args.out)
    else:
        print(json.dumps(instance_to_dict(out), indent=2))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bernsched")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance files")
    _add_spec_options(p)
    p.add_argument("--c", type=int, default=169)
    p.add_argument("--out-prefix", default="instance_")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve-exact", help="optimal value by exact DP")
    p.add_argument("--instance", required=True)
    p.add_argument("--dump-policy")
    p.set_defaults(func=cmd_solve_exact)

    p = sub.add_parser("solve-stratified",
                       help="optimal grid-restricted value")
    p.add_argument("--instance", required=True)
    p.add_argument("--dump-policy")
    p.add_argument("--diagnostics")
    p.set_defaults(func=cmd_solve_stratified)

    p = sub.add_parser("simulate", help="evaluate a policy")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="exact vs grid-restricted table")
    p.add_argument("--instances", nargs="+")
    _add_spec_options(p)
    p.add_argument("--csv")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("grid-dump", help="print thresholds, endpoints, Q sets")
    p.add_argument("--instance", required=True)
    p.add_argument("--members", type=int, default=20)
    p.set_defaults(func=cmd_grid_dump)

    p = sub.add_parser("round", help="apply a rounding reduction")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", default="divisibility",
                   choices=["divisibility", "powers"])
    p.add_argument("--c", type=int, default=169)
    p.add_argument("--out")
    p.set_defaults(func=cmd_round)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except TYPED_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
