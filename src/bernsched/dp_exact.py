"""Optimal policies by dynamic programming, plus two slow oracles.

A state is a sorted machine-availability profile with per-type counts of
unscheduled jobs.  At the earliest available time t the policy starts the
next (lowest-q) job of a startable type; with probability q it is long and
a transition rule sets the machine's next available time, otherwise the
machine is free again at t.  When no type is startable, the rule's idle
advance moves the lagging machines forward.  ``solve_core`` runs this DP
for any rule and owns the decision format: a ``DecisionTable`` records
``("start", j)`` or ``("idle",)`` under the core's own integer state.
``solve_exact`` passes ``ExactRule`` and ``dp_stratified`` its grid rule;
the two solvers differ in nothing else.

Inside the core all arithmetic is on integers.  Times are multiples of
1/unit, and the cost of a state with r jobs left is a numerator over
D**r * unit, D the lcm of the probability denominators (floats are dyadic
rationals, so this is exact).  The candidates at a state share that
denominator, so comparing numerators breaks ties exactly and
scale-invariantly, towards the lowest type index.  The traversal uses an
explicit stack, so the job count does not meet the recursion limit.

``brute_force_oracle`` deliberately shares none of this: machine loads stay
unsorted and jobs keep their identities, so it serves as an independent
check.  ``idling_oracle`` is the same expectimax where the policy may also
defer a free machine to the next completion epoch; its value matching the
non-idling one is itself a property under test.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .instances import Instance
from .timegrid import GridError


class SolverCapError(RuntimeError):
    """Raised when an instance has more jobs than ``max_jobs`` or the state
    count exceeds the configured cap."""


def _check_job_cap(inst: Instance, max_jobs: int):
    if inst.total_jobs > max_jobs:
        raise SolverCapError(f"job cap exceeded ({inst.total_jobs} jobs "
                             f"> max_jobs {max_jobs})")


class DecisionTable(Mapping):
    """A solver's decisions under the core's integer states, times in units
    of 1/``unit``.  Lookups take the ``Fraction`` profiles of replay and
    convert them with integer arithmetic, a time off the unit being a
    missing key; iteration builds ``Fraction`` profiles."""

    def __init__(self, states: dict, unit: int):
        self.states, self.unit = states, unit

    def get(self, key, default=None):
        profile, nu = key
        times = []
        for t in profile:
            k, r = divmod(self.unit, t.denominator)
            if r:
                return default
            times.append(t.numerator * k)
        return self.states.get((tuple(times), nu), default)

    def __getitem__(self, key):
        decision = self.get(key)
        if decision is None:
            raise KeyError(key)
        return decision

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return (key for key, _decision in self.items())

    def items(self):
        for (profile, nu), decision in self.states.items():
            yield (tuple(Fraction(t, self.unit) for t in profile), nu), decision

    def values(self):
        return self.states.values()


def solve_core(inst: Instance, rule, max_jobs: int, state_cap: int):
    """``(value, table)``: the optimal expected total completion time under
    ``rule`` as a float, and the ``DecisionTable`` of every reachable state
    with jobs left, in the rule's unit.  A decision is ``("start", j)`` or
    ``("idle",)``, one shared tuple each, recorded under the memo's own key.

    A rule provides ``unit``, ``sizes`` (in units of 1/unit),
    ``startable(t, nu)``, ``after_long(profile, j)`` and
    ``after_idle(profile, nu)``, all on integer times; ``after_idle`` is
    asked only when nothing is startable and must raise the earliest time,
    or the core raises ``GridError``.  The grid rule's unit is
    ``grid.unit`` and it asks the grid's integer queries directly.

    Idle advances never follow each other, so the core needs no bound on
    them: the grid rule raises the earliest time to ``successor(h, t)``, a
    point of Q_h, where h is the group of the largest-index type with jobs
    left, so that type is startable at the state the advance leads to.
    """
    _check_job_cap(inst, max_jobs)
    qs = [[Fraction(q) for q in t.qs] for t in inst.types]
    den = lcm(*(q.denominator for row in qs for q in row))
    power = [den ** r for r in range(inst.total_jobs + 1)]
    sizes, startable, after_long = rule.sizes, rule.startable, rule.after_long
    decisions = tuple(("start", j) for j in range(inst.n_types)) + (("idle",),)
    steps = {}  # nu -> per type: (nu less one job of it, its q numerator)
    value = {}  # state -> cost numerator; states without jobs cost nothing
    cost = value.get
    table = {}
    top = ((0,) * inst.machines, inst.counts)
    # frames (state, jobs left, moves): moves is None until the state is
    # expanded, then a list of (type, q numerator, long state, short
    # state), or the state an idle advance leads to
    stack = [(top, inst.total_jobs, None)]
    while stack:
        key, r, moves = stack.pop()
        profile, nu = key
        if moves is None:
            if key in value:
                continue
            js = startable(profile[0], nu)
            if js:
                step = steps.get(nu)
                if step is None:
                    step = steps[nu] = [
                        (nu[:j] + (c - 1,) + nu[j + 1:], int(qs[j][-c] * den))
                        if c else None for j, c in enumerate(nu)]
                moves = []
                for j in js:
                    nu2, a = step[j]
                    moves.append(
                        (j, a, (after_long(profile, j), nu2), (profile, nu2)))
                stack.append((key, r, moves))
                if r > 1:
                    for _j, _a, long_key, short_key in moves:
                        if long_key not in value:
                            stack.append((long_key, r - 1, None))
                        if short_key not in value:
                            stack.append((short_key, r - 1, None))
                continue
            moves = (rule.after_idle(profile, nu), nu)
            if moves[0][0] <= profile[0]:
                raise GridError(f"idle advance stalled at {profile[0]}"
                                f"/{rule.unit}")
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
            value[key] = best + profile[0] * power[r]
        else:
            value[key], choice = value[moves], -1
        table[key] = decisions[choice]

    table = DecisionTable(table, rule.unit)
    return float(Fraction(value[top], power[-1] * rule.unit)), table


class ExactRule:
    """Every type with jobs left is startable, and a long job's completion
    time joins the profile.  Times are integers in units of 1/unit, the lcm
    of the size denominators."""

    after_idle = None  # never reached: some type is always startable

    def __init__(self, inst: Instance):
        self.unit = lcm(*(t.size.denominator for t in inst.types))
        self.sizes = tuple((t.size * self.unit).numerator for t in inst.types)

    def startable(self, t, nu):
        return [j for j, c in enumerate(nu) if c]

    def after_long(self, profile, j):
        return tuple(sorted(profile[1:] + (profile[0] + self.sizes[j],)))


@dataclass
class ExactSolution:
    value: float
    policy: DecisionTable  # every decision is ("start", j): no idling
    states: int


def solve_exact(inst: Instance, max_jobs: int = 12,
                state_cap: int = 2_000_000) -> ExactSolution:
    """Optimal expected total completion time over all non-anticipatory
    policies, with the chosen type recorded per state.  The core runs on
    integer times and integer cost numerators, and the policy keeps its
    integer states; ``Fraction`` profiles appear only on lookup."""
    value, table = solve_core(inst, ExactRule(inst), max_jobs, state_cap)
    return ExactSolution(value=value, policy=table, states=len(table))


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
