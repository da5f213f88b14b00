"""Interval endpoints, thresholds, and allowed-start-time sets.

The stratified scheduler may only start a job of group h at times drawn
from a restricted set Q_h.  Those sets are built from a geometric-ish
partition of the time axis into intervals: group-h intervals have length
between eps*p_h/2 and eps*p_h, where p_h is the group's representative
(smallest) size.  Everything is exact rational arithmetic; the sets are
infinite, so membership and successor queries past the largest threshold
use closed forms instead of enumeration.

Group indices here are 0-based with group 0 holding the *largest* sizes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

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

    The finite endpoint prefix (everything below p_star[0]) is stored
    explicitly; from p_star[0] on, endpoints continue forever with spacing
    eps * rep_0 and are handled in closed form.

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
        self.inst = inst
        self.groups = groups
        self.eps = inst.epsilon
        self.gamma = groups.gamma
        self.reps = groups.reps
        self.pmaxs = groups.pmaxs
        self.stretch = 1 + 5 * self.eps
        self.thresholds = compute_thresholds(inst, groups)
        self._build_prefix()
        self._group_of_type = tuple(groups.group_of_map())

        smallest = self.gamma - 1
        self.base_step = self.eps * self.reps[smallest]
        # first endpoint after 0 and its stretched image
        self.l1 = self.prefix[1] if len(self.prefix) > 1 else self.tail_start
        self.l1_stretched = self.stretch * self.l1
        self.base_cap = self.l1_stretched - self.pmaxs[smallest]

        for pc in self.thresholds.p_circ:
            if not self._is_stretched_endpoint(pc):
                raise GridError(f"threshold {pc} is not a stretched endpoint")

    # -- construction -----------------------------------------------------

    def _build_prefix(self):
        ps = self.thresholds.p_star
        prefix = [Fraction(0)]
        labels = [None]  # group of the interval starting at each endpoint
        mids = []
        for h in range(self.gamma - 1, 0, -1):
            step = self.eps * self.reps[h]
            t = ps[h]
            if not (prefix[-1] < t < ps[h - 1] - step):
                raise GridError(
                    f"no room for group-{h} endpoints between thresholds"
                )
            while t < ps[h - 1] - step:
                prefix.append(t)
                labels.append(h)
                t += step
            mid = prefix[-1] + (ps[h - 1] - prefix[-1]) / 2
            prefix.append(mid)
            labels.append(h)
            mids.append(mid)
        self.prefix = tuple(prefix)
        self.mids = tuple(mids)
        self.labels = tuple(labels)
        self.tail_start = ps[0]
        self.tail_step = self.eps * self.reps[0]
        self.prefix_stretched = tuple(self.stretch * l for l in prefix)
        self.tail_start_stretched = self.stretch * self.tail_start
        self.tail_step_stretched = self.stretch * self.tail_step

    def generators(self):
        """O(gamma) rationals of which every endpoint, stretched endpoint and
        Q-set member is an integer combination: the steps eps*rep_h, the
        thresholds p_star, the prefix midpoints, their stretched images, and
        the group maxima."""
        plain = [self.eps * r for r in self.reps]
        plain += [*self.thresholds.p_star, *self.mids]
        return plain + [self.stretch * x for x in plain] + list(self.pmaxs)

    # -- endpoint queries -------------------------------------------------

    def endpoint(self, k: int) -> Fraction:
        """k-th left endpoint l_k (l_0 = 0)."""
        if k < len(self.prefix):
            return self.prefix[k]
        return self.tail_start + (k - len(self.prefix)) * self.tail_step

    def interval_group(self, k: int):
        """Group label of interval [l_k, l_{k+1}); None for the initial one."""
        if k < len(self.labels):
            return self.labels[k]
        return 0

    def _stretched_interval(self, t: Fraction):
        """(l'_k, l'_{k+1}) for the stretched interval containing t >= l'_1."""
        if t >= self.tail_start_stretched:
            i = floor_div(t - self.tail_start_stretched, self.tail_step_stretched)
            lk = self.tail_start_stretched + i * self.tail_step_stretched
            return lk, lk + self.tail_step_stretched
        k = bisect_right(self.prefix_stretched, t) - 1
        lk = self.prefix_stretched[k]
        if k + 1 < len(self.prefix_stretched):
            return lk, self.prefix_stretched[k + 1]
        return lk, self.tail_start_stretched

    def _is_stretched_endpoint(self, t: Fraction) -> bool:
        if t >= self.tail_start_stretched:
            return divides(self.tail_step_stretched, t - self.tail_start_stretched)
        k = bisect_right(self.prefix_stretched, t) - 1
        return k >= 0 and self.prefix_stretched[k] == t

    # -- Q-set queries ----------------------------------------------------

    def _p_circ_prev(self, h: int):
        """p_circ of the next-larger group; None (infinity) for h=0."""
        return None if h == 0 else self.thresholds.p_circ[h - 1]

    def q_contains(self, h: int, t: Fraction) -> bool:
        if t < 0:
            raise GridError("negative time")
        if t == 0:
            return True
        if t < self.l1_stretched:
            return t < self.base_cap and divides(self.base_step, t)
        lk, lk1 = self._stretched_interval(t)
        pc_prev = self._p_circ_prev(h)
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
        pc_prev = self._p_circ_prev(h)
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
        pc_prev = self._p_circ_prev(h)
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
