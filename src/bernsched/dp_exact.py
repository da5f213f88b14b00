"""Optimal policies by dynamic programming.

A state is a sorted machine-availability profile with per-type counts of
unscheduled jobs.  At the earliest available time t the policy starts the
next (lowest-q) job of a type that the transition rule allows at t and
that has jobs left; with probability q it is long and the rule sets the
machine's next available time, otherwise the machine is free again at t.
When no allowed type has jobs left, the rule's idle advance moves the
lagging machines forward.  ``solve_core`` runs this DP for any rule and
owns the decision format: a ``DecisionTable`` records ``("start", j)`` or
``("idle",)`` under the core's own int state, and both solvers return its
``Solution``.  ``solve_exact`` passes ``ExactRule`` and ``dp_stratified``
its grid rule; the two solvers differ in nothing else.

Inside the core all arithmetic is on integers.  Times are multiples of
1/unit, and the cost of a state with r jobs left is a numerator over
D**r * unit, D the lcm of the probability denominators (floats are dyadic
rationals, so this is exact).  The candidates at a state share that
denominator, so comparing numerators breaks ties exactly and
scale-invariantly, towards the lowest type index.  A state is one int: an
interned profile's index times the number of count vectors NU, plus the
counts in mixed radix.  The core asks the rule about a profile once, not
once per state.

Two traversals compute the same ``Solution``, depth first as a memoized
recursion (``_solve_dfs``) or level by level in numpy (``_solve_levels``);
``solve_core`` checks the state cap up front and picks one by NU alone.

The tests check this core against two expectimax oracles
(``tests/oracles.py``) that share none of it: machine loads stay unsorted
and jobs keep their identities.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .instances import Instance
from .timegrid import GridError


#: Default cap of both solvers: most states in the memo.
STATE_CAP = 2_000_000


class SolverCapError(RuntimeError):
    """Raised when a solve reaches more states than its ``state_cap``, the
    one guard of every solve whatever its job count, or when an instance
    has more jobs than an oracle takes."""


class DecisionTable(Mapping):
    """A solver's decisions as two arrays, made on first read from what the
    solver hands over (``compare`` reads neither): ``state_keys``, the int
    states ``pid * NU + nid``, and ``codes``, each state's decision as a
    type index (``("start", j)``) or the type count (``("idle",)``).
    ``pid`` indexes the interned profiles (integer times in units of
    1/``unit``) and ``nid`` is the jobs-left counts in mixed radix, type j
    with radix ``counts[j] + 1``.  A lookup finds the state by one binary
    search over the keys, sorted once on the first lookup: ``integer_get``
    on integer times, as the table kernel of ``policies`` reads them, and
    ``get`` on the ``Fraction`` profiles of replay.  A time off the unit, a
    profile never interned or counts of no state are a missing key.
    Iteration decodes the states in an order that depends on the
    traversal."""

    def __init__(self, keys, codes, unit: int, profiles: list, index: dict,
                 counts: tuple):
        self._keys, self._codes, self.unit, self.counts = keys, codes, unit, counts
        self._profiles, self._index = profiles, index
        self._strides, self._radix = _mixed_radix(counts)
        # the decision of each code: type j's start, then idle
        self._decisions = (*(("start", j) for j in range(len(counts))),
                           ("idle",))

    @cached_property
    def state_keys(self):
        return np.asarray(self._keys, np.int64)

    @cached_property
    def codes(self):
        return np.asarray(self._codes, np.min_scalar_type(len(self.counts)))

    @cached_property
    def _sorted(self):
        """The keys in ascending order and their codes, as lists for
        ``bisect`` (three times faster than ``searchsorted`` on one int)."""
        order = self.state_keys.argsort()
        return self.state_keys[order].tolist(), self.codes[order].tolist()

    def get(self, key, default=None):
        unit, times = self.unit, []
        try:  # a key that is not a (profile, counts) pair is missing
            profile, nu = key
            for t in profile:
                a, b = t.as_integer_ratio()
                k, r = divmod(unit, b)
                if r:
                    return default
                times.append(a * k)
            return self.integer_get((tuple(times), nu), default)
        except (AttributeError, TypeError, ValueError):
            return default

    def integer_get(self, key, default=None):
        """The decision at ``(times, nu)``, the times integers in units of
        1/``unit``."""
        times, nu = key
        pid = self._index.get(times)
        if pid is None or len(nu) != len(self.counts):
            return default
        state = pid * self._radix
        for c, s, top in zip(nu, self._strides, self.counts):
            if not 0 <= c <= top:
                return default
            state += c * s
        keys, codes = self._sorted
        i = bisect_left(keys, state)
        if i == len(keys) or keys[i] != state:
            return default
        return self._decisions[codes[i]]

    def __getitem__(self, key):
        decision = self.get(key)
        if decision is None:
            raise KeyError(key)
        return decision

    def __len__(self):
        return len(self._keys)

    def __iter__(self):
        return (key for key, _decision in self.items())

    def integer_items(self):
        """``((times, nu), decision)`` per state, the times integers in
        units of 1/``unit``."""
        nus = {}
        for state, decision in zip(self.state_keys.tolist(), self.values()):
            pid, nid = divmod(state, self._radix)
            nu = nus.get(nid)
            if nu is None:
                nu = nus[nid] = _decode(nid, self._strides, self.counts)
            yield (self._profiles[pid], nu), decision

    def items(self):
        for (profile, nu), decision in self.integer_items():
            yield (tuple(Fraction(t, self.unit) for t in profile), nu), decision

    def values(self):
        return map(self._decisions.__getitem__, self.codes.tolist())


@dataclass(frozen=True)
class Diagnostics:
    relevant_time_points: int
    max_profiles_per_timepoint: int
    states: int

    def as_dict(self):
        return asdict(self)


@dataclass
class Solution:
    """Either solver's value and decision table; diagnostics on demand."""

    value: float
    policy: DecisionTable

    @property
    def states(self):
        return len(self.policy)

    @cached_property
    def diagnostics(self):
        """Distinct earliest times and most profiles at one, on first read."""
        table = self.policy
        pids = _unique(table.state_keys // table._radix).tolist()
        by_time = Counter(table._profiles[pid][0] for pid in pids)
        return Diagnostics(len(by_time), max(by_time.values()), len(table))


def _mixed_radix(counts):
    """``(strides, NU)``: type j's stride and the number of count vectors
    when type j has radix ``counts[j] + 1``."""
    strides, s = [], 1
    for c in counts:
        strides.append(s)
        s *= c + 1
    return tuple(strides), s


def _decode(nid, strides, counts):
    """The counts whose mixed-radix number is ``nid``."""
    return tuple(nid // s % (c + 1) for s, c in zip(strides, counts))


#: ``solve_core`` traverses level by level when the instance has at least
#: this many count vectors, and depth first below that, where depth first
#: is faster on all but a few solves as the benchmark times them (README.md
#: gives the measured crossover) and a solve has at most 47 jobs and
#: recurses at most 95 frames deep.
LEVELS_MIN_NU = 49


def solve_core(inst: Instance, rule, state_cap: int):
    """The ``Solution`` under ``rule``: the optimal expected total
    completion time as a float, and the ``DecisionTable`` of every
    reachable state with jobs left, in the rule's unit.

    A rule provides ``unit``, ``sizes`` (in units of 1/unit),
    ``allowed(t)`` (the types that may start at time t, jobs left or not),
    ``after_long(profile, j)``, ``idle_group(nu)`` (an int from 0 to the
    type count - 1) and ``after_idle(profile, h)``, all on integer times.
    ``allowed(0)`` must hold every type, as it does for ``ExactRule`` and
    for ``GridRule`` (0 is in every Q_h).  The core starts only allowed
    types with jobs left; when there is none it advances the profile to
    ``after_idle(profile, idle_group(nu))``, which must raise the earliest
    time and lead to a state that starts a job, or the core raises
    ``GridError``.  Both shipped rules meet this: ``ExactRule`` never
    idles, and ``GridRule``'s target lies in Q_h, h the group of the
    smallest-size type with jobs left, so that type may start there.

    Only ``state_cap`` limits a solve, whatever its job count: past that
    many states the core raises ``SolverCapError``, and before any work
    when the NU - 1 count vectors with jobs left, each a state at the zero
    profile, are more.  Otherwise NU alone picks one of two traversals
    that compute the same ``Solution``.  Below ``LEVELS_MIN_NU`` count
    vectors ``_solve_dfs`` recurses depth first, an edge costing int
    arithmetic and a memo probe, where N <= NU - 1 <= 47 (NU is the
    product of the c_j + 1) keeps the recursion at most 2N + 1 <= 95
    frames deep.  From ``LEVELS_MIN_NU`` on ``_solve_levels`` evaluates
    one level (states with as many jobs left) at a time as numpy arrays,
    in int64 where a bound proves the level's costs fit and in exact
    Python ints elsewhere.  A level costs about 0.05 ms of numpy calls
    whatever its size, so on small solves the depth-first recursion is
    faster (README.md gives the measured crossover).
    """
    _strides, radix = _mixed_radix(inst.counts)
    if radix - 1 > state_cap:
        raise SolverCapError(f"state cap exceeded ({state_cap + 1} states)")
    if radix >= LEVELS_MIN_NU:
        return _solve_levels(inst, rule, state_cap)
    return _solve_dfs(inst, rule, state_cap)


def _numerators(inst):
    """``(den, power, qnum)``: the lcm D of the probability denominators,
    ``power[r] = D**r``, and ``qnum[j][c]`` the numerator over D of the q
    of type j's next job when c of its jobs are left (0 for c = 0)."""
    den = inst.q_den
    power = list(accumulate(repeat(den, inst.total_jobs), mul, initial=1))
    return den, power, [[0, *reversed(row)] for row in inst.q_nums]


def _interner():
    """``(profiles, index, intern)``: pid -> integer times, and back."""
    profiles, index = [], {}

    def intern(times):
        pid = index.get(times)
        if pid is None:
            pid = index[times] = len(profiles)
            profiles.append(times)
        return pid

    return profiles, index, intern


def _stalled(profile, unit):
    return GridError(f"idle advance stalled at {profile[0]}/{unit}")


def _solve_dfs(inst: Instance, rule, state_cap: int) -> Solution:
    """``solve_core`` as the memoized recursion ``cost(key, r)`` over the
    states not in the memo, r > 0 the jobs left.  ``steps`` holds per
    ``nid`` (type, stride, q numerator) of each type with jobs left, and
    ``longs`` per ``pid`` each type's long child pid * radix: None where
    the rule does not allow it, -1 until a state with two jobs or more
    asks.  An edge is int arithmetic and a memo probe per child.  A frame
    starts a job or idles to a state that starts one: at most 2N + 1."""
    den, power, qnum = _numerators(inst)
    counts, n = inst.counts, inst.n_types
    strides, radix = _mixed_radix(counts)
    sizes, allowed, after_long = rule.sizes, rule.allowed, rule.after_long
    profiles, index, intern = _interner()
    steps = [()]  # type j's digit varies slower than type j - 1's
    for j, row in enumerate(qnum):  # a > 0 where jobs are left
        steps = [step + ((j, strides[j], a),) if a else step
                 for a in row for step in steps]
    longs, idled = {}, {}  # (pid, idle group) -> the advance's target pid
    value, codes = {}, []  # per state: cost numerator, decision's code

    def moves(pid):
        types = allowed(profiles[pid][0])
        kids = longs[pid] = [-1 if j in types else None for j in range(n)]
        return kids

    def cost(key, r):
        pid, nid = divmod(key, radix)
        profile, kids, best = profiles[pid], longs.get(pid) or moves(pid), None
        for j, s, a in steps[nid]:
            long, short = kids[j], key - s
            if long is None:
                continue
            if r > 1:
                if long < 0:
                    kids[j] = long = intern(after_long(profile, j)) * radix
                long += nid - s
                v = (a * ((value[long] if long in value else cost(long, r - 1))
                          + sizes[j] * power[r - 1])
                     + (den - a) * (value[short] if short in value
                                    else cost(short, r - 1)))
            else:  # both children are without jobs
                v = a * sizes[j]
            if best is None or v < best:
                best, choice = v, j
        if best is None:  # the idle advance's target must start a job
            h = rule.idle_group(_decode(nid, strides, counts))
            if (pid, h) not in idled:
                idled[pid, h] = intern(rule.after_idle(profile, h))
            after = idled[pid, h]
            target = longs.get(after) or moves(after)
            if profiles[after][0] <= profile[0] or all(
                    target[j] is None for j, _s, _a in steps[nid]):
                raise _stalled(profile, rule.unit)
            choice, after = n, after * radix + nid
            best = value[after] if after in value else cost(after, r)
        else:
            best += profile[0] * power[r]
        if len(value) > state_cap:
            raise SolverCapError(f"state cap exceeded ({len(value)} states)")
        value[key] = best
        codes.append(choice)
        return best

    top = intern((0,) * inst.machines) * radix + radix - 1
    return Solution(cost(top, inst.total_jobs) / (power[-1] * rule.unit),
                    DecisionTable(list(value), codes, rule.unit, profiles,
                                  index, counts))


def _unique(keys):
    """The sorted distinct values of an int64 array (sorting beats the
    hash table ``np.unique`` uses for ints by several times)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _solve_levels(inst: Instance, rule, state_cap: int) -> Solution:
    """``solve_core`` level by level, one level per number of jobs left,
    each per-state array with one row per type and one column per state.

    The forward pass builds each level as a sorted, unique int64 array of
    keys, the children of the level above, and takes their moves in one pass.
    When states have no move, the targets of their idle advances, asked of the
    rule once per distinct (profile, idle group), join the keys, the moves are
    taken once more and a check raises the stall ``GridError`` if a target
    idles too.  It keeps each level's moves that take gathers to find (which
    types each state may start, and their long children) in key order; pid,
    nid and the short children come from the keys by arithmetic.  The backward
    pass, from one job left up, finds the children's costs by ``searchsorted``
    in the level below (a type's short children, ``key - s_j``, come
    ascending) and evaluates every candidate at once; an impossible move costs
    a sentinel above every candidate, so ``argmin`` picks the lowest type on
    ties, as ``_solve_dfs`` does.  Level r computes in int64 when its
    sentinel, D**r * (r+1) * t_max + 1 with t_max the latest time of any
    profile (or a larger size), is below 2**62, and in Python ints
    (``dtype=object``) from the first level where it is not.
    """
    den, power, qnum = _numerators(inst)
    counts, n, jobs = inst.counts, inst.n_types, inst.total_jobs
    strides, radix = _mixed_radix(counts)
    allowed, after_long = rule.allowed, rule.after_long
    profiles, index, intern = _interner()
    # per type and nid: the count left, and the nid without one such job
    nids = np.arange(radix, dtype=np.int64)
    stride = np.array(strides, np.int64)[:, None]
    nu_of = nids // stride % (np.array(counts, np.int64)[:, None] + 1)
    has_of, less_of = nu_of > 0, nids - stride
    # per nid: the rule's idle group, -1 until a state with it idles; per
    # pid * n + idle group: the pid the idle advance leads to
    group_of, idled = np.full(radix, -1, np.int64), {}
    # long child pid per (type, pid), -1 where the type may not start; a
    # column is filled when its profile first has a state with jobs left
    long_of = np.full((n, 64), -1, np.int64)
    filled = np.zeros(64, bool)

    def moves(keys):
        """Per state: pid and nid; per type and state: whether the type
        starts (allowed, with jobs left) and its long and short child."""
        nonlocal long_of, filled
        if len(profiles) > len(filled):
            grow = max(len(profiles), 2 * len(filled)) - len(filled)
            long_of = np.hstack((long_of, np.full((n, grow), -1, np.int64)))
            filled = np.concatenate((filled, np.zeros(grow, bool)))
        pid = keys // radix
        nid = keys - pid * radix
        for p in _unique(pid[~filled[pid]]).tolist():
            profile = profiles[p]
            for j in allowed(profile[0]):
                long_of[j, p] = intern(after_long(profile, j))
            filled[p] = True
        long_pid = long_of.take(pid, 1)
        return (pid, nid, (long_pid >= 0) & has_of.take(nid, 1),
                long_pid * radix + less_of.take(nid, 1), keys - stride)

    def advance(pid, nid):
        """The state each idle state (pid, nid) advances to."""
        for v in _unique(nid[group_of[nid] < 0]).tolist():
            group_of[v] = rule.idle_group(_decode(v, strides, counts))
        pairs, inverse = np.unique(pid * n + group_of[nid],
                                   return_inverse=True)
        for pair in pairs.tolist():
            if pair not in idled:
                p, h = divmod(pair, n)
                after = idled[pair] = intern(rule.after_idle(profiles[p], h))
                if profiles[after][0] <= profiles[p][0]:
                    raise _stalled(profiles[p], rule.unit)
        after = np.array([idled[pair] for pair in pairs.tolist()], np.int64)
        return after[inverse] * radix + nid

    top = intern((0,) * inst.machines) * radix + radix - 1
    # from N jobs left down: keys, idle and target positions, (ok, long)
    levels = []
    keys, total = np.array([top], np.int64), 0

    def check_cap():
        """Raise before a level's moves are built for more states than
        the cap allows."""
        if total + len(keys) > state_cap + 1:
            raise SolverCapError(
                f"state cap exceeded ({state_cap + 1} states)")

    for r in range(jobs, 0, -1):
        check_cap()
        pid, nid, ok, long, short = moves(keys)
        stuck = ~ok.any(axis=0)
        frm = to = np.empty(0, np.int64)  # idle states, their targets
        if stuck.any():
            frm, to = keys[stuck], advance(pid[stuck], nid[stuck])
            keys = _unique(np.concatenate((keys, to)))
            check_cap()
            _pid, _nid, ok, long, short = moves(keys)
            # every idle advance's target must start a job
            frm, to = keys.searchsorted(frm), keys.searchsorted(to)
            stalled = ~ok[:, to].any(axis=0)
            if stalled.any():
                raise _stalled(profiles[keys[frm[stalled][0]] // radix],
                               rule.unit)
        total += len(keys)
        levels.append((keys, frm, to, (ok, long)))
        if r > 1:
            keys = _unique(np.concatenate((long[ok], short[ok])))

    t_max = max(max(rule.sizes), max(p[-1] for p in profiles))
    # above every cost of its level: no sum or product there overflows it
    sentinel = [power[r] * (r + 1) * t_max + 1 for r in range(jobs + 1)]
    dtype = np.int64 if sentinel[1] < 2 ** 62 else object
    start = np.array([p[0] for p in profiles], dtype)
    a_of = np.stack([np.array(row, dtype)[nu_of[j]]
                     for j, row in enumerate(qnum)])
    sizes = np.array(rule.sizes, dtype)[:, None]
    code = np.min_scalar_type(n)  # uint8 up to 255 types
    table_keys, table_codes = [], []
    # states without jobs cost nothing: one key of cost 0 stands for them
    below_keys, below = np.zeros(1, np.int64), np.zeros(1, dtype)
    for r in range(1, jobs + 1):
        keys, frm, to, (ok, long) = levels.pop()
        pid, nid = np.divmod(keys, radix)
        if dtype is np.int64 and sentinel[r] >= 2 ** 62:
            dtype = object
            start, a_of, sizes, below = (
                x.astype(object) for x in (start, a_of, sizes, below))
        a = a_of.take(nid, 1)
        short = keys - stride
        # an impossible move's child may be past the last key
        last = len(below_keys) - 1
        v_long = below[np.minimum(below_keys.searchsorted(long), last)]
        v_short = below[np.minimum(below_keys.searchsorted(short), last)]
        candidates = np.where(
            ok, a * (v_long + sizes * power[r - 1]) + (den - a) * v_short,
            sentinel[r])
        choice = candidates.argmin(axis=0)
        value = (candidates[choice, np.arange(len(keys))]
                 + start[pid] * power[r])
        value[frm], choice[frm] = value[to], n
        table_keys.append(keys)
        table_codes.append(choice.astype(code))
        below_keys, below = keys, value

    top_value = int(below[np.searchsorted(below_keys, top)])
    return Solution(top_value / (power[-1] * rule.unit),
                    DecisionTable(np.concatenate(table_keys),
                                  np.concatenate(table_codes), rule.unit,
                                  profiles, index, counts))


class ExactRule:
    """Every type may start at any time, and a long job's completion time
    joins the profile.  Times are integers in units of 1/unit, the lcm of
    the size denominators."""

    after_idle = None  # never reached: a type with jobs left may always start

    def __init__(self, inst: Instance):
        self.unit, self.sizes = inst.unit, inst.int_sizes
        self.types = tuple(range(inst.n_types))

    def allowed(self, t):
        return self.types

    def after_long(self, profile, j):
        return tuple(sorted(profile[1:] + (profile[0] + self.sizes[j],)))


def solve_exact(inst: Instance, state_cap: int = STATE_CAP) -> Solution:
    """Optimal expected total completion time over all non-anticipatory
    policies; every decision in the table is ``("start", j)``."""
    return solve_core(inst, ExactRule(inst), state_cap)

