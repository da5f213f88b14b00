"""Optimal policies by dynamic programming, plus two slow oracles.

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

Two traversals compute the same ``Solution``, depth first on an explicit
stack (``_solve_dfs``) or level by level in numpy (``_solve_levels``);
``solve_core`` picks one from NU.  Neither recurses, so the job count does
not meet the recursion limit.

``brute_force_oracle`` deliberately shares none of this: machine loads stay
unsorted and jobs keep their identities, so it serves as an independent
check.  ``idling_oracle`` is the same expectimax where the policy may also
defer a free machine to the next completion epoch; its value matching the
non-idling one is itself a property under test.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .instances import Instance
from .timegrid import GridError


#: Default caps of both solvers: most jobs, and most states in the memo.
MAX_JOBS = 12
STATE_CAP = 2_000_000


class SolverCapError(RuntimeError):
    """Raised when an instance has more jobs than ``max_jobs`` or the state
    count exceeds the configured cap."""


def _check_job_cap(inst: Instance, max_jobs: int):
    if inst.total_jobs > max_jobs:
        raise SolverCapError(f"job cap exceeded ({inst.total_jobs} jobs "
                             f"> max_jobs {max_jobs})")


class DecisionTable(Mapping):
    """A solver's decisions as two arrays: ``keys``, the core's int states
    ``pid * NU + nid``, and ``codes``, each state's decision as a type index
    (``("start", j)``) or the type count (``("idle",)``).  ``pid`` indexes
    the interned profiles (integer times in units of 1/``unit``) and
    ``nid`` is the jobs-left counts in mixed radix, type j with radix
    ``counts[j] + 1``.  Length, ``values`` and iteration read the arrays;
    the dicts that lookups need are built on the first ``get``.  Lookups
    take the ``Fraction`` profiles of replay and convert them with integer
    arithmetic; a time off the unit, a profile never interned or counts of
    no state are a missing key.  Iteration decodes the states, with
    ``Fraction`` profiles, in an order that depends on the traversal: sort
    them where the order matters."""

    def __init__(self, keys, codes, unit: int, profiles: list, index: dict,
                 counts: tuple):
        self.keys, self.codes, self.unit, self.counts = keys, codes, unit, counts
        self._profiles, self._index = profiles, index
        self._strides, self._radix = _mixed_radix(counts)
        self._decisions = _decisions(len(counts))

    @cached_property
    def _lookup(self):
        """``(state -> decision, counts -> nid)``, built on the first
        ``get``; counts that no state has are missing from the second."""
        nids = _unique(self.keys % self._radix).tolist()
        return (dict(zip(self.keys.tolist(), self.values())),
                {_decode(nid, self._strides, self.counts): nid for nid in nids})

    def get(self, key, default=None):
        profile, nu = key
        unit, times = self.unit, []
        for t in profile:
            a, b = t.as_integer_ratio()
            k, r = divmod(unit, b)
            if r:
                return default
            times.append(a * k)
        decided, nids = self._lookup
        pid, nid = self._index.get(tuple(times)), nids.get(nu)
        if pid is None or nid is None:
            return default
        return decided.get(pid * self._radix + nid, default)

    def __getitem__(self, key):
        decision = self.get(key)
        if decision is None:
            raise KeyError(key)
        return decision

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return (key for key, _decision in self.items())

    def integer_items(self):
        """``((times, nu), decision)`` per state, the times integers in
        units of 1/``unit``."""
        nus = {}
        for state, decision in zip(self.keys.tolist(), self.values()):
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
        pids = _unique(table.keys // table._radix).tolist()
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
#: this many count vectors, and depth first below that (README.md).
LEVELS_MIN_NU = 36


def solve_core(inst: Instance, rule, max_jobs: int, state_cap: int):
    """The ``Solution`` under ``rule``: the optimal expected total
    completion time as a float, and the ``DecisionTable`` of every
    reachable state with jobs left, in the rule's unit.

    A rule provides ``unit``, ``sizes`` (in units of 1/unit),
    ``allowed(t)`` (the types that may start at time t, jobs left or not),
    ``after_long(profile, j)``, ``idle_group(nu)`` (an int from 0 to the
    type count - 1) and ``after_idle(profile, h)``, all on integer times.
    The core starts only allowed types with jobs left; when there is none
    it advances the profile to ``after_idle(profile, idle_group(nu))``,
    which must raise the earliest time, or the core raises ``GridError``.

    Two traversals compute the same ``Solution``, and the core picks one by
    NU, before the solve.  Below ``LEVELS_MIN_NU`` count vectors, and above
    ``state_cap + 1``, ``_solve_dfs`` walks the states depth first, an
    edge costing int additions and a dict lookup.  Otherwise
    ``_solve_levels`` evaluates one level (states with as many jobs left)
    at a time as numpy arrays, in int64 where a bound proves the level's
    costs fit and in exact Python ints elsewhere.  A level costs about
    0.1 ms of numpy calls whatever its size, so on small solves the
    depth-first walk is faster (README.md gives the measured crossover).
    Both hand the ``DecisionTable`` a key array and a code array.
    """
    _check_job_cap(inst, max_jobs)
    _strides, radix = _mixed_radix(inst.counts)
    # the level traversal allocates tables of NU rows up front; with more
    # count vectors than the state cap allows states (the exact rule
    # reaches them all) the depth-first one meets the cap in bounded memory
    if LEVELS_MIN_NU <= radix <= state_cap + 1:
        return _solve_levels(inst, rule, state_cap)
    return _solve_dfs(inst, rule, state_cap)


def _numerators(inst):
    """``(den, power, qnum)``: the lcm D of the probability denominators,
    ``power[r] = D**r``, and ``qnum[j][c]`` the numerator over D of the q
    of type j's next job when c of its jobs are left (0 for c = 0)."""
    qs = [[Fraction(q) for q in t.qs] for t in inst.types]
    den = lcm(*(q.denominator for row in qs for q in row))
    power = [den ** r for r in range(inst.total_jobs + 1)]
    return den, power, [[0] + [int(q * den) for q in reversed(row)]
                        for row in qs]


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


def _decisions(n_types):
    """The decision of each code: type j's start, then idle (code n_types)."""
    return tuple(("start", j) for j in range(n_types)) + (("idle",),)


def _stalled(profile, unit):
    return GridError(f"idle advance stalled at {profile[0]}/{unit}")


def _solve_dfs(inst: Instance, rule, state_cap: int) -> Solution:
    """``solve_core`` depth first: per ``nid`` it computes once, for each
    type with jobs left, the counts without one of its jobs and that job's
    q numerator, so an edge is two int additions and a dict lookup per
    child."""
    den, power, qnum = _numerators(inst)
    counts = inst.counts
    strides, radix = _mixed_radix(counts)
    sizes, allowed, after_long = rule.sizes, rule.allowed, rule.after_long
    n = inst.n_types
    profiles, index, intern = _interner()
    edges = {}  # pid -> per allowed type: (type, long child pid * radix)
    steps = {}  # nid -> per type: (nid less one job of it, its q numerator)
    value = {}  # state -> cost numerator; states without jobs cost nothing
    cost = value.get
    keys, codes = [], []  # the table: each state and its decision's code
    top = intern((0,) * inst.machines) * radix + radix - 1
    # frames (state, jobs left, moves): moves is None until the state is
    # expanded, then a list of (type, q numerator, long state, short
    # state), or the state an idle advance leads to
    stack = [(top, inst.total_jobs, None)]
    while stack:
        key, r, moves = stack.pop()
        if moves is None:
            if key in value:
                continue
            pid, nid = divmod(key, radix)
            profile = profiles[pid]
            edge = edges.get(pid)
            if edge is None:
                edge = edges[pid] = [
                    (j, intern(after_long(profile, j)) * radix)
                    for j in allowed(profile[0])]
            step = steps.get(nid)
            if step is None:
                nu = _decode(nid, strides, counts)
                step = steps[nid] = [(nid - s, qnum[j][c]) if c else None
                                     for j, (s, c) in enumerate(zip(strides, nu))]
            base = key - nid
            moves = []
            for j, long_base in edge:
                move = step[j]
                if move is not None:
                    nid2, a = move
                    moves.append((j, a, long_base + nid2, base + nid2))
            if moves:
                stack.append((key, r, moves))
                if r > 1:
                    for _j, _a, long_key, short_key in moves:
                        if long_key not in value:
                            stack.append((long_key, r - 1, None))
                        if short_key not in value:
                            stack.append((short_key, r - 1, None))
                continue
            h = rule.idle_group(_decode(nid, strides, counts))
            after = intern(rule.after_idle(profile, h))
            if profiles[after][0] <= profile[0]:
                raise _stalled(profile, rule.unit)
            moves = after * radix + nid
            stack.append((key, r, moves))
            if moves not in value:
                stack.append((moves, r, None))
            continue

        if len(value) > state_cap:
            raise SolverCapError(f"state cap exceeded ({len(value)} states)")
        if isinstance(moves, list):
            below = power[r - 1]
            best = None
            for j, a, long_key, short_key in moves:
                v = a * (cost(long_key, 0) + sizes[j] * below) \
                    + (den - a) * cost(short_key, 0)
                if best is None or v < best:
                    best, choice = v, j
            value[key] = best + profiles[key // radix][0] * power[r]
        else:
            value[key], choice = value[moves], n
        keys.append(key)
        codes.append(choice)

    return Solution(float(Fraction(value[top], power[-1] * rule.unit)),
                    DecisionTable(np.array(keys, np.int64),
                                  np.array(codes, np.min_scalar_type(n)),
                                  rule.unit, profiles, index, counts))


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
    keys: the children of the level above, then the targets of its idle
    advances, asked of the rule once per distinct (profile, idle group),
    until no new target appears.  It keeps each level's moves that take
    gathers to find (which types each state may start, and their long
    children) in key order; pid, nid and the short children come from the
    keys by arithmetic.  The backward pass, from one job left up, finds
    the children's costs by ``searchsorted`` in the level below (a type's
    short children, ``key - s_j``, come ascending) and evaluates every
    candidate at once; an impossible move costs a sentinel above every
    candidate, so ``argmin`` picks the lowest type on ties, as
    ``_solve_dfs`` does.  Level r computes in int64 when its sentinel,
    D**r * (r+1) * t_max + 1 with t_max the latest time of any profile (or
    a larger size), is below 2**62, and in Python ints (``dtype=object``)
    from the first level where it is not.
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
    for r in range(jobs, 0, -1):
        fresh, chunks, children, idle, targets = keys, [], [], [], []
        while len(fresh):
            pid, nid, ok, long, short = moves(fresh)
            chunks.append((fresh, ok, long))
            if r > 1:
                children += (long[ok], short[ok])
            stuck = ~ok.any(axis=0)
            if not stuck.any():
                break
            idle.append(fresh[stuck])
            targets.append(advance(pid[stuck], nid[stuck]))
            fresh = _unique(targets[-1])
            # the targets not in the level yet
            fresh = fresh[keys[np.searchsorted(keys, fresh) % len(keys)]
                          != fresh]
            if len(fresh):
                keys = np.sort(np.concatenate((keys, fresh)))
        total += len(keys)
        if total > state_cap + 1:
            raise SolverCapError(
                f"state cap exceeded ({state_cap + 1} states)")
        frm = to = np.empty(0, np.int64)
        if idle:  # an advance to an idle state takes its final target
            frm = keys.searchsorted(np.concatenate(idle))
            to = keys.searchsorted(np.concatenate(targets))
            link = np.arange(len(keys))
            link[frm] = to
            while (link[to] != to).any():
                to = link[to]
        if len(chunks) > 1:  # each chunk's moves, in key order
            order = np.concatenate([chunk[0] for chunk in chunks]).argsort()
            chunks = [[np.concatenate(parts, axis=-1)[..., order]
                       for parts in zip(*chunks)]]
        levels.append((keys, frm, to, chunks[0][1:]))
        if r > 1:
            keys = _unique(np.concatenate(children))

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
    return Solution(float(Fraction(top_value, power[-1] * rule.unit)),
                    DecisionTable(np.concatenate(table_keys),
                                  np.concatenate(table_codes), rule.unit,
                                  profiles, index, counts))


class ExactRule:
    """Every type may start at any time, and a long job's completion time
    joins the profile.  Times are integers in units of 1/unit, the lcm of
    the size denominators."""

    after_idle = None  # never reached: a type with jobs left may always start

    def __init__(self, inst: Instance):
        self.unit = lcm(*(t.size.denominator for t in inst.types))
        self.sizes = tuple((t.size * self.unit).numerator for t in inst.types)
        self.types = tuple(range(inst.n_types))

    def allowed(self, t):
        return self.types

    def after_long(self, profile, j):
        return tuple(sorted(profile[1:] + (profile[0] + self.sizes[j],)))


def solve_exact(inst: Instance, max_jobs: int = MAX_JOBS,
                state_cap: int = STATE_CAP) -> Solution:
    """Optimal expected total completion time over all non-anticipatory
    policies; every decision in the table is ``("start", j)``."""
    return solve_core(inst, ExactRule(inst), max_jobs, state_cap)


def brute_force_oracle(inst: Instance, max_jobs: int = 6) -> float:
    """Expectimax over raw states: unsorted machine-indexed loads and
    explicit job subsets, no within-type compression."""
    return _expectimax(inst, max_jobs, allow_idle=False)


def idling_oracle(inst: Instance, max_jobs: int = 4) -> float:
    """Expectimax where the free machine may also be deferred to the next
    completion epoch (the next strictly larger load) instead of starting a
    job.  Deferral is only available while some machine is ahead."""
    return _expectimax(inst, max_jobs, allow_idle=True)


def _expectimax(inst: Instance, max_jobs: int, allow_idle: bool) -> float:
    _check_job_cap(inst, max_jobs)
    jobs = inst.job_ids()
    size = {job: inst.job_size(job) for job in jobs}
    prob = {job: inst.job_q(job) for job in jobs}

    @lru_cache(maxsize=None)
    def cost(loads, remaining):
        if not remaining:
            return 0.0
        t_star = min(loads)
        i_star = loads.index(t_star)
        t = float(t_star)
        best = None
        for job in remaining:
            rest = frozenset(remaining) - {job}
            long_loads = loads[:i_star] + (t_star + size[job],) + loads[i_star + 1:]
            q = prob[job]
            v = q * (cost(long_loads, rest) + t + float(size[job])) \
                + (1.0 - q) * (cost(loads, rest) + t)
            if best is None or v < best:
                best = v
        ahead = [x for x in loads if x > t_star] if allow_idle else []
        if ahead:
            idle_loads = loads[:i_star] + (min(ahead),) + loads[i_star + 1:]
            best = min(best, cost(idle_loads, remaining))
        return best

    result = cost((Fraction(0),) * inst.machines, frozenset(jobs))
    cost.cache_clear()
    return result
