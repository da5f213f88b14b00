"""Instance model: validation, canonical ordering, grouping and rounding.

An instance consists of m identical machines and N Bernoulli jobs, with
m at most N: a job runs on one machine, so machines beyond the job count
are dropped when an instance is built.  A job of type j has processing
time p_j (its "size") with probability q and 0 otherwise.  Types are
kept in strictly decreasing size order and the jobs of a type in
non-decreasing order of probability; every operation below preserves (or
restores) that canonical form.

Sizes are ``Fraction`` values at the interface.  An instance also caches
an integer view of itself: its sizes in units of 1/L, L the lcm of their
denominators, and its probabilities as numerators over D, the lcm of
their (power-of-two) denominators.  Grouping, divisibility rounding, the
time grid's construction and the solvers work on that view; a
``Fraction`` is built only for a public value or an error message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .numerics import NumericsError, format_rat, parse_rat


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class JobType:
    """A distinct size with its per-job success probabilities (ascending)."""

    size: Fraction
    qs: tuple  # floats in (0, 1], non-decreasing

    @property
    def count(self) -> int:
        return len(self.qs)


@dataclass(frozen=True)
class Instance:
    machines: int
    epsilon: Fraction  # 1/E for integer E >= 2
    types: tuple  # JobType, sizes strictly decreasing

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def counts(self) -> tuple:
        return tuple(t.count for t in self.types)

    @property
    def total_jobs(self) -> int:
        return sum(t.count for t in self.types)

    def job_ids(self):
        """All job ids as (type_index, position-within-type)."""
        return [(j, i) for j, t in enumerate(self.types) for i in range(t.count)]

    def job_q(self, job_id) -> float:
        j, i = job_id
        return self.types[j].qs[i]

    def job_size(self, job_id) -> Fraction:
        return self.types[job_id[0]].size

    # -- the integer view, computed once per instance ----------------------

    @cached_property
    def unit(self) -> int:
        """L, the lcm of the size denominators."""
        return lcm(*(t.size.denominator for t in self.types))

    @cached_property
    def int_sizes(self) -> tuple:
        """Each type's size in units of 1/``unit``."""
        unit = self.unit
        return tuple(t.size.numerator * (unit // t.size.denominator)
                     for t in self.types)

    @cached_property
    def q_den(self) -> int:
        """D, the lcm of the probability denominators (floats are dyadic
        rationals, so D is a power of two)."""
        return lcm(*(q.as_integer_ratio()[1] for t in self.types for q in t.qs))

    @cached_property
    def q_nums(self) -> tuple:
        """Per type, each job's probability as a numerator over ``q_den``,
        in the order of ``qs``."""
        den = self.q_den
        return tuple(tuple(a * (den // b) for a, b in
                           map(float.as_integer_ratio, t.qs))
                     for t in self.types)


@dataclass(frozen=True)
class GroupStructure:
    """Partition of the types into size groups G_1..G_gamma.

    Consecutive groups are separated by a factor >= 1/eps^2; within a group
    sizes are within eps^{-2(|G_h|-1)} of each other.  The representative of
    a group is its smallest size.
    """

    groups: tuple  # tuple of tuples of type indices, contiguous
    reps: tuple  # Fraction, smallest size per group
    pmaxs: tuple  # Fraction, largest size per group

    @property
    def gamma(self) -> int:
        return len(self.groups)

    def group_of_map(self) -> list:
        """Each type's group index (groups are contiguous, in type order)."""
        return [h for h, g in enumerate(self.groups) for _j in g]


def parse_epsilon(epsilon) -> Fraction:
    """eps from "1/E" or a Fraction; anything but 1/E with integer E >= 2
    is a typed error."""
    eps = parse_rat(epsilon)
    if eps.numerator != 1 or eps.denominator < 2:
        raise InstanceError(f"epsilon must be 1/E with integer E >= 2, got {eps}")
    return eps


def validate_and_canonicalize(machines, epsilon, raw_types) -> Instance:
    """Build a canonical instance from raw (size, [q...]) pairs.

    Duplicate sizes are merged into one type and a size without jobs is
    dropped; types are sorted by size descending and probabilities
    ascending within each type.  At most one machine per job is kept: no
    policy uses more, and each would lengthen every profile of a solve.
    """
    if machines < 1:
        raise InstanceError("need at least one machine")
    eps = parse_epsilon(epsilon)

    by_size = {}
    for size, qs in raw_types:
        p = parse_rat(size)
        if p <= 0:
            raise InstanceError(f"non-positive size {size}")
        for q in qs:
            if not (0.0 < q <= 1.0):
                raise InstanceError(f"probability {q} outside (0, 1]")
        by_size.setdefault(p, []).extend(float(q) for q in qs)

    types = tuple(
        JobType(size=p, qs=tuple(sorted(by_size[p])))
        for p in sorted(by_size, reverse=True) if by_size[p]
    )
    if not types:
        raise InstanceError("empty job list")
    n_jobs = sum(t.count for t in types)
    return Instance(machines=min(machines, n_jobs), epsilon=eps, types=types)


def build_groups(inst: Instance) -> GroupStructure:
    """Greedy partition of types into size groups.

    The next type joins the current group iff its size exceeds eps^2 times
    the previous type's size; otherwise a new group starts.  With eps = 1/E
    that is E^2 * p_{j+1} > p_j, compared on the integer sizes.  Sizes
    descend, so every pair across a group boundary is eps^2-separated.
    """
    sizes, e2 = inst.int_sizes, inst.epsilon.denominator ** 2
    groups = []
    current = [0]
    for j in range(1, inst.n_types):
        if e2 * sizes[j] > sizes[j - 1]:
            current.append(j)
        else:
            groups.append(tuple(current))
            current = [j]
    groups.append(tuple(current))

    reps = tuple(inst.types[g[-1]].size for g in groups)  # sizes descend in j
    pmaxs = tuple(inst.types[g[0]].size for g in groups)
    return GroupStructure(groups=tuple(groups), reps=reps, pmaxs=pmaxs)


def round_for_divisibility(inst: Instance, groups: GroupStructure):
    """Round sizes up so representatives divide each other across groups and
    eps * p_{G_h} divides every size in G_h.

    Representatives (each group's smallest size) are processed from the
    smallest group upward; every size grows by a factor at most (1 + eps).
    Types whose rounded sizes collide are merged (the merges are returned,
    not an error).  The rounding is on integers: the representatives in
    units of 1/L, and the sizes in units of 1/(L*E), in which eps times a
    representative of r units of 1/L is r.

    Returns (rounded_instance, new_groups, merges) where merges is a list of
    rounded sizes that absorbed more than one original type.  Rounding
    that moves no size returns ``inst`` itself, with no merges, so the
    exact solve, the grid and the stratified solve share one integer view;
    the partition and divisibility checks below run either way.
    """
    e, sizes = inst.epsilon.denominator, inst.int_sizes
    gamma = groups.gamma

    reps = [sizes[g[-1]] for g in groups.groups]
    for h in range(gamma - 2, -1, -1):
        reps[h] = -(-reps[h] // reps[h + 1]) * reps[h + 1]

    unit = e * inst.unit
    absorbed = {}  # rounded size in units of 1/unit -> original types
    moved = False
    for h, g in enumerate(groups.groups):
        step = reps[h]
        for j in g:
            old = e * sizes[j]
            new = max(-(-old // step) * step, e * step)
            if e * new > (e + 1) * old:
                raise InstanceError(
                    f"divisibility rounding grew {inst.types[j].size} to "
                    f"{Fraction(new, unit)}, beyond (1+eps)"
                )
            moved = moved or new != old
            absorbed.setdefault(new, []).append(j)
    merges = [Fraction(p, unit) for p in sorted(absorbed)
              if len(absorbed[p]) > 1]

    out = inst if not moved else Instance(inst.machines, inst.epsilon, tuple(
        JobType(size=Fraction(p, unit), qs=tuple(sorted(
            q for j in absorbed[p] for q in inst.types[j].qs)))
        for p in sorted(absorbed, reverse=True)))
    new_groups = build_groups(out)
    if not partition_unchanged(inst, groups, out, new_groups):
        raise InstanceError("divisibility rounding changed the group partition")
    new_reps = [out.int_sizes[g[-1]] for g in new_groups.groups]
    for h in range(1, new_groups.gamma):
        if new_reps[h - 1] % new_reps[h]:
            raise InstanceError("representative divisibility failed after rounding")
    return out, new_groups, merges


def partition_unchanged(inst_before, groups_before, inst_after, groups_after) -> bool:
    """Check that rounding preserved the partition: same number of groups
    and each group still covers the same number of jobs."""
    def jobs(inst, groups):
        return [sum(inst.types[j].count for j in g) for g in groups.groups]
    return jobs(inst_before, groups_before) == jobs(inst_after, groups_after)


def round_to_powers_of_c(inst: Instance, c: int):
    """Replace every size by the smallest power c^k >= size, after uniformly
    scaling so the minimum size is at least c (so k >= 1 throughout).

    Returns (rounded_instance, scale) where scale is the uniform multiplier
    applied before rounding.  Uniform scaling does not affect policy
    decisions (scale invariance of the exact DP).
    """
    if c < 2:
        raise InstanceError("c must be at least 2")
    pmin = min(t.size for t in inst.types)
    scale = Fraction(1)
    if pmin < c:
        # smallest integer power of c making pmin >= c
        while pmin * scale < c:
            scale *= c

    rounded = []  # (power, qs); equal powers merge on canonicalization
    for t in inst.types:
        target = t.size * scale
        power = Fraction(c)
        while power < target:
            power *= c
        if power >= c * target:
            raise InstanceError("power-of-c rounding exceeded factor c")
        rounded.append((power, t.qs))

    out = validate_and_canonicalize(inst.machines, inst.epsilon, rounded)
    return out, scale


# ---------------------------------------------------------------------------
# JSON I/O.  Schema:
# { "machines": int, "epsilon": "1/E",
#   "types": [ { "size": "num/den", "jobs": [q floats ascending] } ] }
# ---------------------------------------------------------------------------

def instance_to_dict(inst: Instance) -> dict:
    return {
        "machines": inst.machines,
        "epsilon": format_rat(inst.epsilon),
        "types": [
            {"size": format_rat(t.size), "jobs": list(t.qs)} for t in inst.types
        ],
    }


def instance_from_dict(d: dict) -> Instance:
    try:
        machines = d["machines"]
        raw = [(t["size"], t["jobs"]) for t in d["types"]]
        # bool is an int subclass, and int() would truncate 2.7 to 2
        if type(machines) not in (int, float) or machines != int(machines):
            raise InstanceError(f"machine count {machines!r} is not an integer")
        if any(type(x) is bool for p, qs in raw for x in (p, *qs)):
            raise InstanceError("a size or probability is a boolean, "
                                "not a number")
        return validate_and_canonicalize(int(machines), d["epsilon"], raw)
    except (InstanceError, NumericsError):
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"malformed instance JSON: {exc}") from exc


def load_instance(path) -> Instance:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    except ValueError as exc:
        raise InstanceError(f"malformed instance JSON: {exc}") from exc
    return instance_from_dict(data)


def save_instance(inst: Instance, path):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
