"""Instance generation, solver orchestration, and ratio reporting.

``compare`` prices its SEPT and fixed-assignment baselines exactly with
``policies.expected_cost_reached``, which needs no enumeration of outcome
vectors, so ``policies.MAX_ENUMERATED`` does not limit them: the state
cap does.  ``expected_cost_exact`` is still importable from here, where the
benchmark's tracing spans it by name.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .dp_exact import STATE_CAP, SolverCapError, solve_exact
from .dp_stratified import sandwich_bound_float, solve_stratified
from .instances import (
    Instance,
    InstanceError,
    build_groups,
    parse_epsilon,
    round_for_divisibility,
    validate_and_canonicalize,
)
from .numerics import SeedStream
from .policies import (FixedAssignmentPolicy, SeptPolicy,
                       expected_cost_exact, expected_cost_reached)
from .timegrid import GridError, build_grid


SCHEMES = ("separated", "grouped", "powers-of-c")


@dataclass(frozen=True)
class ExperimentSpec:
    """Reproducible generator settings: same spec and seed, same instances."""

    n_types: int = 2
    jobs_per_type: int = 2
    machines: int = 1
    epsilon: str = "1/13"
    scheme: str = "separated"  # one of SCHEMES
    q_choices: tuple = (0.25, 0.5, 0.75, 1.0)
    count: int = 10
    seed: int = 0
    c: int = 169


def generate(spec: ExperimentSpec):
    """Instances per the chosen size scheme.

    separated: consecutive sizes obey p_{j+1} <= eps^2 p_j (asserted);
    grouped: sizes cluster within small factors of each other;
    powers-of-c: every size is an exact power of spec.c >= 2.
    """
    eps = parse_epsilon(spec.epsilon)
    if spec.scheme == "powers-of-c" and spec.c < 2:
        raise InstanceError("c must be at least 2")
    if spec.count < 0:
        raise InstanceError("count must not be negative")
    out = []
    for k in range(spec.count):
        rng = SeedStream(spec.seed, k).generator()
        sizes = []
        if spec.scheme == "separated":
            sep = eps.denominator ** 2
            p = Fraction(int(rng.integers(1, 6)))
            for _ in range(spec.n_types):
                sizes.append(p)
                p = p * sep * int(rng.integers(1, 4))
            sizes.reverse()
            for a, b in zip(sizes, sizes[1:]):
                assert b <= eps * eps * a
        elif spec.scheme == "grouped":
            base = Fraction(int(rng.integers(1, 6)))
            for _ in range(spec.n_types):
                sizes.append(base)
                base = base * (1 + Fraction(int(rng.integers(1, 4)), 5))
            sizes = sorted(set(sizes), reverse=True)
        elif spec.scheme == "powers-of-c":
            start = int(rng.integers(1, 3))
            exps = range(start, start + spec.n_types)
            sizes = [Fraction(spec.c) ** e for e in reversed(exps)]
        else:
            raise InstanceError(f"unknown scheme {spec.scheme!r}")
        raw = []
        for p in sizes:
            qs = [
                float(spec.q_choices[int(rng.integers(0, len(spec.q_choices)))])
                for _ in range(spec.jobs_per_type)
            ]
            raw.append((p, qs))
        out.append(
            validate_and_canonicalize(spec.machines, spec.epsilon, raw)
        )
    return out


def prepare(inst: Instance):
    """Divisibility-round and build the grid: (rounded, groups, grid, merges).
    Where rounding moves no size, ``rounded`` is ``inst`` itself, so the
    grid and the stratified solve read the integer view the exact solve
    built."""
    groups = build_groups(inst)
    rounded, groups2, merges = round_for_divisibility(inst, groups)
    grid = build_grid(rounded, groups2)
    return rounded, groups2, grid, merges


def solve_pipeline(inst: Instance, *, state_cap: int = STATE_CAP):
    """Round, grid, solve: (solution, grid, rounded_instance, merges)."""
    rounded, groups, grid, merges = prepare(inst)
    solution = solve_stratified(rounded, groups, grid, state_cap=state_cap)
    return solution, grid, rounded, merges


@dataclass
class ComparisonRow:
    instance_id: str
    n_types: int = 0
    total_jobs: int = 0
    machines: int = 0
    exact_value: float = float("nan")
    stratified_value: float = float("nan")
    ratio: float = float("nan")
    bound: float = float("nan")
    sept_value: float = float("nan")
    fixed_value: float = float("nan")
    exact_states: int = 0
    stratified_states: int = 0
    exact_seconds: float = 0.0
    stratified_seconds: float = 0.0
    skipped: str = ""

    def as_dict(self):
        return asdict(self)


ComparisonRow.FIELDS = tuple(f.name for f in fields(ComparisonRow))


class BoundViolation(RuntimeError):
    def __init__(self, row, inst, message=None):
        super().__init__(message or f"ratio {row.ratio} outside "
                         f"[1, {row.bound}] on {row.instance_id}")
        self.row = row
        self.instance = inst


def compare(instances, *, state_cap: int = STATE_CAP):
    """One row per instance: exact vs grid-restricted values, their ratio
    against the analytic bound, and the exact expected costs of the SEPT
    and fixed-assignment baselines over the states they reach.  A ratio
    outside [1 - 1e-9, bound + 1e-9] aborts with the offending instance
    attached, before the baselines run, and so does an exact value above
    SEPT's.  SEPT starts each job at the earliest free time and a type's
    lowest q first, so it lies in the exact DP's class; both values are
    correctly rounded floats of exact rationals, so the ceiling needs no
    tolerance.  Fixed assignment may idle a machine while jobs wait, so
    it is reported and not checked.  ``state_cap`` is the one guard,
    whatever the job count: an instance whose solves or baselines reach
    more states, or that raises GridError or InstanceError, becomes a
    skipped row whose reason starts with the exception's type name."""
    rows = []
    for idx, inst in enumerate(instances):
        row = ComparisonRow(instance_id=f"i{idx:04d}", n_types=inst.n_types,
                            total_jobs=inst.total_jobs, machines=inst.machines)
        row.bound = sandwich_bound_float(inst.n_types,
                                         inst.epsilon.denominator)
        try:
            t0 = time.perf_counter()
            exact = solve_exact(inst, state_cap=state_cap)
            row.exact_seconds = time.perf_counter() - t0
            row.exact_value = exact.value
            row.exact_states = exact.states

            t0 = time.perf_counter()
            solution = solve_pipeline(inst, state_cap=state_cap)[0]
            row.stratified_seconds = time.perf_counter() - t0
            row.stratified_value = solution.value
            row.stratified_states = solution.states

            row.ratio = row.stratified_value / row.exact_value \
                if row.exact_value else 1.0
            if not (1.0 - 1e-9 <= row.ratio <= row.bound + 1e-9):
                raise BoundViolation(row, inst)
            row.sept_value = float(
                expected_cost_reached(SeptPolicy(), inst, state_cap))
            if not row.exact_value <= row.sept_value:
                raise BoundViolation(row, inst, (
                    f"exact {row.exact_value} above SEPT {row.sept_value} "
                    f"on {row.instance_id}"))
            row.fixed_value = float(
                expected_cost_reached(FixedAssignmentPolicy(), inst, state_cap))
        except (SolverCapError, GridError, InstanceError) as exc:
            row.skipped = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def json_safe(value):
    """``value`` with every non-finite float, in nested dicts and lists
    too, replaced by None: JSON (RFC 8259) has no NaN or Infinity, so
    ``json.dumps`` writes ``null`` for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [json_safe(v) for v in value]
    return value


def report(rows, csv_path=None, json_path=None):
    """CSV (fixed header) and JSON (array plus summary block) outputs.  The
    summary's ``max_ratio`` and ``max_states`` cover every row whose bound
    check passed (a finite ratio), skipped for a later step or not.  The
    returned summary holds ``nan`` where no row has a ratio; the JSON file
    holds ``null`` for it and for every missing value of a row, where the
    CSV holds ``nan``."""
    checked = [r for r in rows if math.isfinite(r.ratio)]
    summary = {
        "rows": len(rows),
        "skipped": sum(1 for r in rows if r.skipped),
        "max_ratio": max((r.ratio for r in checked), default=float("nan")),
        "max_states": max((r.stratified_states for r in checked), default=0),
    }
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=ComparisonRow.FIELDS)
            writer.writeheader()
            for r in rows:
                writer.writerow(r.as_dict())
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(
                json_safe({"rows": [r.as_dict() for r in rows],
                           "summary": summary}),
                fh, indent=2, allow_nan=False,
            )
            fh.write("\n")
    return summary
