"""Near-optimal policy over grid-restricted start times.

Same state space shape as the exact solver, but machine available-times
live on the allowed-start-time sets of the time grid: a long job frees
its machine at the grid's release time, and when nothing can start at
the earliest available time all lagging machines are advanced together
to the next allowed point of the grid's idle group.  Both transitions
are the grid's own: ``TimeGrid.release`` and ``TimeGrid.successor`` on
integer times in units of 1/``grid.unit``, which the policies' replay
reaches through their ``Fraction`` wrappers ``release_time`` and
``q_successor``.  The optimum over this restricted class sandwiches the
true optimum to within a factor that shrinks with eps.  The solve returns
a ``dp_exact.Solution``, as the exact one does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .dp_exact import STATE_CAP, Solution, _Memo, solve_core
from .instances import GroupStructure, Instance
from .timegrid import TimeGrid


def time_point_ceiling(inst: Instance) -> int:
    """Sanity ceiling on distinct decision times: N^n * eps^(-2n)."""
    n = inst.n_types
    e = inst.epsilon.denominator
    return inst.total_jobs ** n * e ** (2 * n)


def profiles_per_timepoint_ceiling(inst: Instance, groups: GroupStructure) -> int:
    """Sanity ceiling on load profiles sharing one earliest-available time:
    product over groups of C(eps^(-2|G_h|) + m, m)."""
    e = inst.epsilon.denominator
    m = inst.machines
    out = 1
    for g in groups.groups:
        out *= comb(e ** (2 * len(g)) + m, m)
    return out


class GridRule:
    """A type may start at t when its group's Q-set holds t.  A long job of
    group h frees its machine at ``grid.release(h, completion)``; when no
    allowed type has jobs left, ``after_idle(profile, h)``, h the counts'
    ``idle_group``, raises every machine below the next Q_h point to it.
    Times are integers in units of 1/``grid.unit``, and each grid query is
    answered once per (group, time) in the rule's life."""

    def __init__(self, grid: TimeGrid):
        self.unit, self.sizes = grid.unit, grid.sizes
        self.group = tuple(map(grid.group_of_type, range(len(self.sizes))))
        self.idle_group = grid.idle_group
        self.allowed = _Memo(grid.allowed).__getitem__
        self._release = _Memo(lambda key: grid.release(*key))
        self._advance = _Memo(lambda key: grid.successor(*key))

    def after_long(self, profile, j):
        s = self._release[self.group[j], profile[0] + self.sizes[j]]
        return tuple(sorted(profile[1:] + (s,)))

    def after_idle(self, profile, h):
        target = self._advance[h, profile[0]]
        return tuple(target if x < target else x for x in profile)


def solve_stratified(inst: Instance, groups: GroupStructure, grid: TimeGrid,
                     state_cap: int = STATE_CAP) -> Solution:
    """Optimal policy within the grid-restricted class; each decision in
    the table is ``("start", j)`` or ``("idle",)``, times in 1/grid.unit."""
    # groups is unused (the grid carries them); callers pass it positionally
    return solve_core(inst, GridRule(grid), state_cap)


def sandwich_bound(n_types: int, epsilon: Fraction) -> Fraction:
    """Worst-case ratio certificate between the restricted and exact optima:
    (1+eps) * (1 + (2n+4)(1+eps)eps) * (1+5eps), exact rational."""
    eps = Fraction(epsilon)
    return (1 + eps) * (1 + (2 * n_types + 4) * (1 + eps) * eps) * (1 + 5 * eps)


@lru_cache(maxsize=None)
def sandwich_bound_float(n_types: int, e: int) -> float:
    """``sandwich_bound(n_types, 1/e)`` as its correctly rounded float.
    Memoized on integers: a run of ``compare`` asks for few (type count, E)
    pairs, often, and a row then neither hashes nor converts a ``Fraction``."""
    return float(sandwich_bound(n_types, Fraction(1, e)))
