"""Interval endpoints, thresholds, and allowed-start-time sets.

The stratified scheduler may only start a job of group h at times drawn
from a restricted set Q_h.  Those sets are built from a geometric-ish
partition of the time axis into intervals: group-h intervals have length
between eps*p_h/2 and eps*p_h, where p_h is the group's representative
(smallest) size.  The interval endpoints form O(gamma) arithmetic runs,
so every query is closed-form, whatever the size ratios between groups.
The grid is built on integers over one common denominator, then reduced
to ``TimeGrid.unit``, in which the whole grid is exact; queries are
answered on integer times in that unit.  ``Fraction`` appears only in the
public values (thresholds, run starts, endpoints and Q-set members) and
in thin wrappers for replay, the CLI and the acceptance gate.

Group indices here are 0-based with group 0 holding the *largest* sizes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import ceil, floor, gcd, inf

from .instances import GroupStructure, Instance


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Thresholds:
    """Per-group start-of-regime thresholds.

    p_star[h] is the unstretched threshold for group h; p_circ[h] is its
    stretched counterpart (1+5*eps)*p_star[h], which always coincides with
    a stretched endpoint.
    """

    p_star: tuple
    p_circ: tuple


def _p_star(groups: GroupStructure, reps, e: int):
    """The thresholds p_star[h]: rep_h plus a correction charging each
    strictly smaller group k a term (number of types below group k + 3) *
    rep_k, scaled by (1+eps)*eps = (E+1)/E^2.  The smallest group gets no
    correction.  On integer ``reps`` over a denominator whose numerators
    E^2 divides, the thresholds are exact integers over the same one."""
    gamma = len(reps)
    counts = [len(g) for g in groups.groups]
    p_star = []
    for h in range(gamma):
        corr = 0
        for k in range(h + 1, gamma - 1):
            corr += (sum(counts[k + 1:]) + 3) * reps[k]
        p_star.append(reps[h] + (e + 1) * corr // (e * e))
    for h in range(1, gamma):
        if not p_star[h - 1] > p_star[h]:
            raise GridError("thresholds not strictly decreasing across groups")
    return p_star


class TimeGrid:
    """Endpoints l_k, their stretched images l'_k, and the sets Q_h.

    Every endpoint, stretched endpoint and Q-set member is an integer
    multiple of 1/``unit``, the lcm of the denominators of the sizes, of
    the endpoint runs' starts and steps (the steps include every eps*rep_h)
    and of their stretched images.  The Q-set queries (``contains``,
    ``successor``, ``release``, ``allowed``) take and return integer times
    in that unit; ``q_contains``, ``q_successor`` and ``release_time``
    wrap them on ``Fraction`` times for replay and the acceptance gate.

    The endpoints are O(gamma) arithmetic runs ``(start, step, count,
    group)`` in units: the point 0; per group h from the smallest up, its
    fine points from p_star[h] spaced eps*rep_h, then the midpoint below
    p_star[h-1]; and the endless tail from p_star[0] (count None).  A
    one-point run's step is its interval's length.  ``prefix`` holds the
    2*gamma - 1 run starts below p_star[0].

    The construction is on integers over M = 2*L*E^3 (L the instance's
    size unit, eps = 1/E): E^2 from the thresholds' (1+eps)*eps, 2 from
    the midpoints and one more E from the stretch (E+5)/E.  ``unit`` is M
    divided by the gcd of M and every value's numerator, so that the grid
    is exact in it and in no coarser unit.

    Q_h consists of
      * the base grid: multiples of eps*rep_{gamma-1} below the first
        stretched endpoint minus pmax_{gamma-1} (0 always included),
      * every stretched endpoint below p_circ[h-1] (all of them for h=0),
      * fine points l'_k + i*eps*rep_h in intervals with l'_k >= p_circ[h-1],
        capped strictly below l'_{k+1} - pmax_h.
    The sets are nested: Q_{gamma-1} contains ... contains Q_0, and 0 is in
    every one of them.
    """

    def __init__(self, inst: Instance, groups: GroupStructure):
        e = inst.epsilon.denominator
        self.eps = inst.epsilon
        self.gamma = groups.gamma
        self.reps = groups.reps
        self.pmaxs = groups.pmaxs
        self._groups = groups.groups
        self._group_of_type = tuple(groups.group_of_map())

        # numerators over M = 2 L E^3, from sizes in units of 1/L
        scale = 2 * e ** 3
        sizes = [scale * s for s in inst.int_sizes]
        p_star = _p_star(groups, [sizes[g[-1]] for g in groups.groups], e)
        steps = [sizes[g[-1]] // e for g in groups.groups]  # eps * rep_h
        runs = self._build_runs(p_star, steps)
        plain = [x for run in runs for x in run[:2]]
        # every plain numerator is a multiple of E: stretching is exact
        g = gcd(scale * inst.unit, *plain, *sizes,
                *((e + 5) * (x // e) for x in plain))
        self.unit = scale * inst.unit // g

        def stretched(x):
            return (e + 5) * (x // e) // g

        self.sizes = tuple(s // g for s in sizes)
        self.runs = tuple((s // g, d // g, c, h) for s, d, c, h in runs)
        # index of each run's first endpoint
        self._firsts = tuple(accumulate((run[2] for run in runs[:-1]), initial=0))
        # stretched runs (start, step, start of the next run)
        starts = self._stretched_starts = tuple(
            stretched(run[0]) for run in runs)
        self._stretched = tuple(
            (s, stretched(run[1]), end)
            for s, run, end in zip(starts, runs, (*starts[1:], inf)))
        self._steps = tuple(d // g for d in steps)
        self._pmaxs = tuple(sizes[grp[0]] // g for grp in groups.groups)
        self._p_star = tuple(p // g for p in p_star)
        self._p_circ = tuple(stretched(p) for p in p_star)
        # where group h's fine points begin: p_circ of the next-larger group
        self._fine_from = (inf, *self._p_circ[:-1])
        # the base grid lies below l'_1 = starts[1]
        self._base_cap = starts[1] - self._pmaxs[-1]
        self._by_group = tuple(zip(self._groups, self._fine_from, self._steps,
                                   self._pmaxs))

        for pc in self._p_circ:
            if self._interval(pc)[0] != pc:
                raise GridError(f"threshold {Fraction(pc, self.unit)} "
                                "is not a stretched endpoint")

    # -- construction -----------------------------------------------------

    def _build_runs(self, ps, steps):
        """The endpoint runs on integers over the construction's
        denominator, from the thresholds ``ps`` and the steps eps * rep_h."""
        runs, point, label = [], 0, None  # pending one-point run
        for h in range(self.gamma - 1, 0, -1):
            step = steps[h]
            if not (point < ps[h] < ps[h - 1] - step):
                raise GridError(f"no room for group-{h} endpoints between thresholds")
            # fine points ps[h] + i*step strictly below ps[h-1] - step
            count = -((ps[h] + step - ps[h - 1]) // step)
            runs += [(point, ps[h] - point, 1, label), (ps[h], step, count, h)]
            last = ps[h] + (count - 1) * step
            # the midpoint of last and ps[h-1]; their numerators are even
            point, label = (last + ps[h - 1]) // 2, h
        return runs + [(point, ps[0] - point, 1, label),
                       (ps[0], steps[0], None, 0)]

    # -- public values as Fractions ---------------------------------------

    @cached_property
    def thresholds(self) -> Thresholds:
        return Thresholds(
            p_star=tuple(Fraction(p, self.unit) for p in self._p_star),
            p_circ=tuple(Fraction(p, self.unit) for p in self._p_circ))

    @cached_property
    def prefix(self) -> tuple:
        """The run starts below p_star[0]."""
        return tuple(Fraction(run[0], self.unit) for run in self.runs[:-1])

    @cached_property
    def tail_start(self) -> Fraction:
        return Fraction(self.runs[-1][0], self.unit)

    @cached_property
    def tail_step(self) -> Fraction:
        return Fraction(self.runs[-1][1], self.unit)

    # -- endpoint queries -------------------------------------------------

    def _point(self, k: int) -> int:
        """l_k in units."""
        r = bisect_right(self._firsts, k) - 1
        start, step, _count, _group = self.runs[r]
        return start + (k - self._firsts[r]) * step

    def endpoint(self, k: int) -> Fraction:
        """k-th left endpoint l_k (l_0 = 0)."""
        return Fraction(self._point(k), self.unit)

    def _interval(self, x: int):
        """(l'_k, l'_{k+1}) in units for the stretched interval [l'_k,
        l'_{k+1}) that holds x >= 0: one bisect over the run starts, one
        remainder inside the run.  A run's last point ends at the next
        run's start, which is at most one step on."""
        start, step, end = self._stretched[
            bisect_right(self._stretched_starts, x) - 1]
        lk = x - (x - start) % step
        return lk, min(lk + step, end)

    # -- Q-set queries on integer times -----------------------------------

    def contains(self, h: int, x: int) -> bool:
        """Whether Q_h holds the time x (in units)."""
        if x < 0:
            raise GridError("negative time")
        return self._groups[h][0] in self.allowed(x)

    def successor(self, h: int, x: int) -> int:
        """Smallest member of Q_h that is >= x (total: the sets are
        unbounded)."""
        if x <= 0:
            return 0
        if x < self._stretched_starts[1]:
            s = x + -x % self._steps[-1]
            if s < self._base_cap:
                return s
            x = self._stretched_starts[1]
        fine_from, step, pmax = self._fine_from[h], self._steps[h], self._pmaxs[h]
        for _ in range(1_000_000):
            lk, lk1 = self._interval(x)
            if lk < fine_from:
                if x == lk:
                    return x
            else:
                s = x + (lk - x) % step
                if s < lk1 - pmax:
                    return s
            x = lk1
        raise GridError("successor did not terminate")  # pragma: no cover

    def release(self, h: int, x: int) -> int:
        """When a machine that completes a long group-h job at x is free
        again: the first Q_h point at or beyond max(p_circ[h], x)."""
        return self.successor(h, max(self._p_circ[h], x))

    def allowed(self, x: int):
        """Type indices j whose group's Q-set holds x >= 0, from one
        interval lookup for all groups."""
        if x < self._stretched_starts[1]:  # the base grid, in every Q_h
            base = x == 0 or (x < self._base_cap and x % self._steps[-1] == 0)
            return sum(self._groups, ()) if base else ()
        lk, lk1 = self._interval(x)
        types = ()
        for group, fine_from, step, pmax in self._by_group:
            if (x == lk if lk < fine_from else
                    (x - lk) % step == 0 and x < lk1 - pmax):
                types += group
        return types

    def idle_group(self, nu) -> int:
        """Group whose Q-set an idle advance moves to: that of the
        largest-index (smallest-size) type with jobs left in counts ``nu``."""
        return self._group_of_type[max(j for j, c in enumerate(nu) if c)]

    def group_of_type(self, j: int) -> int:
        return self._group_of_type[j]

    # -- Fraction wrappers, for replay, the CLI and the acceptance gate ---

    def q_contains(self, h: int, t: Fraction) -> bool:
        x = floor(t * self.unit)
        return self.contains(h, x) and x == t * self.unit

    def q_successor(self, h: int, t: Fraction) -> Fraction:
        """Smallest member of Q_h that is >= t."""
        return Fraction(self.successor(h, ceil(t * self.unit)), self.unit)

    def release_time(self, h: int, t: Fraction) -> Fraction:
        """``release`` on a Fraction completion time."""
        return Fraction(self.release(h, ceil(t * self.unit)), self.unit)

    def iter_members(self, h: int, count: int):
        """First `count` members of Q_h in increasing order."""
        out = [0]
        while len(out) < count:
            out.append(self.successor(h, out[-1] + 1))
        return [Fraction(x, self.unit) for x in out[:count]]


def build_grid(inst: Instance, groups: GroupStructure) -> TimeGrid:
    return TimeGrid(inst, groups)
