"""Interval endpoints, thresholds, and allowed-start-time sets.

The stratified scheduler may only start a job of group h at times drawn
from a restricted set Q_h.  Those sets are built from a geometric-ish
partition of the time axis into intervals: group-h intervals have length
between eps*p_h/2 and eps*p_h, where p_h is the group's representative
(smallest) size.  The interval endpoints form O(gamma) arithmetic runs,
so every query is closed-form exact rational arithmetic, whatever the
size ratios between groups.

Group indices here are 0-based with group 0 holding the *largest* sizes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .instances import GroupStructure, Instance
from .numerics import ceil_to_multiple_of, divides, floor_div


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


def compute_thresholds(inst: Instance, groups: GroupStructure) -> Thresholds:
    """p_star[h] = rep_h plus a correction charging each strictly smaller
    group k a term (number of types below group k + 3) * rep_k, scaled by
    (1+eps)*eps.  The smallest group gets no correction."""
    eps = inst.epsilon
    gamma = groups.gamma
    counts = [len(g) for g in groups.groups]
    p_star = []
    for h in range(gamma):
        corr = Fraction(0)
        for k in range(h + 1, gamma - 1):
            tail_types = sum(counts[i] for i in range(k + 1, gamma))
            corr += (tail_types + 3) * groups.reps[k]
        p_star.append(groups.reps[h] + (1 + eps) * eps * corr)
    for h in range(1, gamma):
        if not p_star[h - 1] > p_star[h]:
            raise GridError("thresholds not strictly decreasing across groups")
    stretch = 1 + 5 * eps
    return Thresholds(
        p_star=tuple(p_star), p_circ=tuple(stretch * p for p in p_star)
    )


class TimeGrid:
    """Endpoints l_k, their stretched images l'_k, and the sets Q_h.

    The endpoints are O(gamma) arithmetic runs ``(start, step, count,
    group)`` in integer units: the point 0; per group h from the smallest
    up, its fine points from p_star[h] spaced eps*rep_h, then the midpoint
    below p_star[h-1]; and the endless tail from p_star[0] (count None).
    A one-point run's step is its interval's length.  ``prefix`` holds the
    2*gamma - 1 run starts below p_star[0].

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
        self.eps = inst.epsilon
        self.gamma = groups.gamma
        self.reps = groups.reps
        self.pmaxs = groups.pmaxs
        self.stretch = 1 + 5 * self.eps
        self.thresholds = compute_thresholds(inst, groups)
        # p_circ of the next-larger group; None (infinity) for h=0
        self._p_circ_prev = (None, *self.thresholds.p_circ[:-1])
        self._build_runs()
        self._group_of_type = tuple(groups.group_of_map())

        smallest = self.gamma - 1
        self.base_step = self.eps * self.reps[smallest]
        self.l1_stretched = self.stretch * self.endpoint(1)
        self.base_cap = self.l1_stretched - self.pmaxs[smallest]

        for pc in self.thresholds.p_circ:
            if not self._is_stretched_endpoint(pc):
                raise GridError(f"threshold {pc} is not a stretched endpoint")

    # -- construction -----------------------------------------------------

    def _build_runs(self):
        ps = self.thresholds.p_star
        runs, point, label = [], Fraction(0), None  # pending one-point run
        for h in range(self.gamma - 1, 0, -1):
            step = self.eps * self.reps[h]
            if not (point < ps[h] < ps[h - 1] - step):
                raise GridError(f"no room for group-{h} endpoints between thresholds")
            # fine points ps[h] + i*step strictly below ps[h-1] - step
            count = -floor_div(ps[h] + step - ps[h - 1], step)
            runs += [(point, ps[h] - point, 1, label), (ps[h], step, count, h)]
            last = ps[h] + (count - 1) * step
            point, label = last + (ps[h - 1] - last) / 2, h
        self.tail_start, self.tail_step = ps[0], self.eps * self.reps[0]
        runs += [(point, ps[0] - point, 1, label), (ps[0], self.tail_step, None, 0)]
        # run values x are integers: time x / unit, stretched x * scale[0] / scale[1]
        unit = self._unit = lcm(*(x.denominator for run in runs for x in run[:2]))
        self._scale = (self.stretch.numerator, self.stretch.denominator * unit)
        self.runs = tuple((int(s * unit), int(d * unit), c, g) for s, d, c, g in runs)
        self._starts = tuple(run[0] for run in self.runs)
        self.prefix = tuple(Fraction(s, unit) for s in self._starts[:-1])
        # index of each run's first endpoint
        self._firsts = tuple(accumulate((run[2] for run in self.runs[:-1]),
                                        initial=0))

    def generators(self):
        """O(gamma) rationals of which every endpoint, stretched endpoint and
        Q-set member is an integer combination: the steps eps*rep_h, the run
        starts, their stretched images, and the group maxima."""
        plain = [*(self.eps * r for r in self.reps), *self.prefix, self.tail_start]
        return plain + [self.stretch * x for x in plain] + list(self.pmaxs)

    # -- endpoint queries -------------------------------------------------

    def _point(self, k: int) -> int:
        """l_k in units of 1/unit."""
        r = bisect_right(self._firsts, k) - 1
        start, step, _count, _group = self.runs[r]
        return start + (k - self._firsts[r]) * step

    def endpoint(self, k: int) -> Fraction:
        """k-th left endpoint l_k (l_0 = 0)."""
        return Fraction(self._point(k), self._unit)

    def interval_group(self, k: int):
        """Group label of interval [l_k, l_{k+1}); None for the initial one."""
        return self.runs[bisect_right(self._firsts, k) - 1][3]

    def _index(self, t: Fraction):
        """(k, t == l'_k) for the stretched interval [l'_k, l'_{k+1}) that
        holds t >= 0: one bisect over the run starts, one floor division
        inside the run."""
        num, den = t.numerator * self._scale[1], t.denominator * self._scale[0]
        r = bisect_right(self._starts, num // den) - 1
        start, step, _count, _group = self.runs[r]
        i, rem = divmod(num - start * den, step * den)
        return self._firsts[r] + i, rem == 0

    def _stretched_interval(self, t: Fraction):
        """(l'_k, l'_{k+1}) for the stretched interval containing t >= 0."""
        k, _ = self._index(t)
        mul, div = self._scale
        return (Fraction(self._point(k) * mul, div),
                Fraction(self._point(k + 1) * mul, div))

    def _is_stretched_endpoint(self, t: Fraction) -> bool:
        """Whether t >= 0 is a stretched endpoint l'_k."""
        return self._index(t)[1]

    # -- Q-set queries ----------------------------------------------------

    def q_contains(self, h: int, t: Fraction) -> bool:
        if t < 0:
            raise GridError("negative time")
        if t == 0:
            return True
        if t < self.l1_stretched:
            return t < self.base_cap and divides(self.base_step, t)
        lk, lk1 = self._stretched_interval(t)
        pc_prev = self._p_circ_prev[h]
        if pc_prev is None or lk < pc_prev:
            return t == lk
        step = self.eps * self.reps[h]
        return divides(step, t - lk) and t < lk1 - self.pmaxs[h]

    def q_successor(self, h: int, t: Fraction) -> Fraction:
        """Smallest member of Q_h that is >= t (total: the sets are unbounded)."""
        if t <= 0:
            return Fraction(0)
        if t < self.l1_stretched:
            s = ceil_to_multiple_of(t, self.base_step)
            if s < self.base_cap:
                return s
            cur = self.l1_stretched
        else:
            cur = t
        pc_prev = self._p_circ_prev[h]
        step = self.eps * self.reps[h]
        for _ in range(1_000_000):
            lk, lk1 = self._stretched_interval(cur)
            if pc_prev is None or lk < pc_prev:
                if cur <= lk:
                    return lk
                cur = lk1
                continue
            s = lk + ceil_to_multiple_of(max(cur, lk) - lk, step)
            if s < lk1 - self.pmaxs[h]:
                return s
            cur = lk1
        raise GridError("q_successor did not terminate")  # pragma: no cover

    def q_next(self, h: int, t: Fraction) -> Fraction:
        """Smallest member of Q_h strictly greater than t."""
        if t < 0:
            return Fraction(0)
        if not self.q_contains(h, t):
            return self.q_successor(h, t)
        if t < self.l1_stretched:
            return self.q_successor(h, t + self.base_step)
        lk, lk1 = self._stretched_interval(t)
        pc_prev = self._p_circ_prev[h]
        if pc_prev is None or lk < pc_prev:
            return self.q_successor(h, lk1)
        return self.q_successor(h, t + self.eps * self.reps[h])

    def release_time(self, h: int, t: Fraction) -> Fraction:
        """When a machine that completes a long group-h job at t is free
        again: the first Q_h point at or beyond max(p_circ[h], t)."""
        return self.q_successor(h, max(self.thresholds.p_circ[h], t))

    def idle_group(self, nu) -> int:
        """Group whose Q-set an idle advance moves to: that of the
        largest-index (smallest-size) type with jobs left in counts ``nu``."""
        return self._group_of_type[max(j for j, c in enumerate(nu) if c)]

    def allowed_types(self, t: Fraction):
        """Type indices j whose group's Q-set contains t (one query per
        group)."""
        holds = [self.q_contains(h, t) for h in range(self.gamma)]
        return tuple(j for j, h in enumerate(self._group_of_type) if holds[h])

    def group_of_type(self, j: int) -> int:
        return self._group_of_type[j]

    def iter_members(self, h: int, count: int):
        """First `count` members of Q_h in increasing order."""
        out = []
        t = Fraction(0)
        while len(out) < count:
            out.append(t)
            t = self.q_next(h, t)
        return out


def build_grid(inst: Instance, groups: GroupStructure) -> TimeGrid:
    return TimeGrid(inst, groups)
