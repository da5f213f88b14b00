"""Reference code that only the tests use.

The two expectimax oracles deliberately share nothing with the solvers'
core: machine loads stay unsorted and jobs keep their identities, so they
serve as an independent check of ``solve_exact``.  ``idling_oracle`` is
the same expectimax where the policy may also defer a free machine to the
next completion epoch; its value matching the non-idling one is itself a
property under test, which ``deferring_oracle`` checks past the 4 jobs
``idling_oracle`` takes.  The ``Fraction`` helpers are the references for
the integer rounding and grid construction; ``partition_sml`` and
``validate_schedule`` check the rounding's postconditions and replayed
schedules.

Test modules import these with ``from oracles import ...``: pytest puts
this directory on ``sys.path``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from bernsched.dp_exact import SolverCapError
from bernsched.instances import Instance, InstanceError
from bernsched.numerics import NumericsError
from bernsched.policies import Schedule


def floor_div(a: Fraction, g: Fraction) -> int:
    """Largest integer k with k*g <= a."""
    if g <= 0:
        raise NumericsError("floor_div by nonpositive step")
    return (a.numerator * g.denominator) // (a.denominator * g.numerator)


def ceil_to_multiple_of(a: Fraction, g: Fraction) -> Fraction:
    """Smallest multiple of g that is >= a."""
    if g <= 0:
        raise NumericsError("ceil_to_multiple_of with nonpositive grid")
    q, r = divmod(a.numerator * g.denominator, a.denominator * g.numerator)
    if r:
        q += 1
    return q * g


def divides(g: Fraction, a: Fraction) -> bool:
    """True iff a is an integer multiple of g."""
    if g == 0:
        return a == 0
    return (a / g).denominator == 1


def partition_sml(inst: Instance, scale):
    """Split jobs into small / medium / large classes by normalized size.

    ``scale`` is an upper-bound proxy for the optimal expected cost (the
    tests pass 1, so the sizes are compared as they are); normalized sizes
    below 1/N^2 are small, those at or above N^8 are large.
    """
    scale = Fraction(scale) if not isinstance(scale, Fraction) else scale
    if scale <= 0:
        raise InstanceError("normalization scale must be positive")
    n_jobs = inst.total_jobs
    lo = Fraction(1, n_jobs * n_jobs)
    hi = Fraction(n_jobs) ** 8
    small, medium, large = [], [], []
    for job in inst.job_ids():
        norm = inst.job_size(job) / scale
        if norm < lo:
            small.append(job)
        elif norm >= hi:
            large.append(job)
        else:
            medium.append(job)
    return small, medium, large


def validate_schedule(inst: Instance, sched: Schedule, realization):
    """Feasibility: every job placed once, C = S + X, and per machine the
    positive-length execution intervals are pairwise disjoint."""
    assert set(sched.entries) == set(inst.job_ids())
    for job, (_m, s, c) in sched.entries.items():
        x = inst.job_size(job) if realization[job] else Fraction(0)
        assert c == s + x, f"completion mismatch for {job}"
    for mach, runs in sched.starts_by_machine().items():
        busy_until = Fraction(0)
        for s, c, job in runs:
            if c > s:  # zero-length jobs may share an instant
                assert s >= busy_until, f"overlap on machine {mach} at {job}"
                busy_until = c


def brute_force_oracle(inst: Instance) -> float:
    """Expectimax over raw states: unsorted machine-indexed loads and
    explicit job subsets, no within-type compression.  At most 6 jobs."""
    return _expectimax(inst, allow_idle=False)


def idling_oracle(inst: Instance) -> float:
    """Expectimax where the free machine may also be deferred to the next
    completion epoch (the next strictly larger load) instead of starting a
    job.  Deferral is only available while some machine is ahead.  At most
    4 jobs."""
    return _expectimax(inst, allow_idle=True)


def deferring_oracle(inst: Instance) -> float:
    """The optimum over policies that at the earliest availability t start
    any remaining job or defer that machine to the next later availability,
    ``idling_oracle``'s idle choice, without its 4-job cap.

    A memoized DP over (sorted profile, sorted tuple of the remaining
    jobs' (size, q)), times integers in units of 1/unit: jobs keep their
    sizes and probabilities, not their type, and it shares nothing with
    the solvers' core.  A deferral to any other time is not covered.  Its
    states grow exponentially: 8 jobs on 3 machines take up to 0.14 s, and
    10 jobs 0.2-2.1 s."""
    unit = math.lcm(*(inst.job_size(job).denominator
                      for job in inst.job_ids()))
    jobs = tuple(sorted((int(inst.job_size(job) * unit), inst.job_q(job))
                        for job in inst.job_ids()))  # times in 1/unit

    @lru_cache(maxsize=None)
    def cost(profile, remaining):
        if not remaining:
            return 0.0
        t = profile[0]
        best = None
        for k, (p, q) in enumerate(remaining):
            if k and remaining[k - 1] == (p, q):
                continue  # an equal job was priced already
            rest = remaining[:k] + remaining[k + 1:]
            long = tuple(sorted(profile[1:] + (t + p,)))
            v = (q * (cost(long, rest) + (t + p))
                 + (1.0 - q) * (cost(profile, rest) + t))
            if best is None or v < best:
                best = v
        later = [x for x in profile if x > t]
        if later:
            deferred = tuple(sorted(profile[1:] + (min(later),)))
            best = min(best, cost(deferred, remaining))
        return best

    return cost((0,) * inst.machines, jobs) / unit


def _expectimax(inst: Instance, allow_idle: bool) -> float:
    max_jobs = 4 if allow_idle else 6  # the oracles' state space is exponential
    if inst.total_jobs > max_jobs:
        raise SolverCapError(f"job cap exceeded ({inst.total_jobs} jobs "
                             f"> max_jobs {max_jobs})")
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
