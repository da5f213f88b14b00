"""Policy execution: one replay loop, many policies.

Every policy — DP-extracted tables and built-in heuristics alike — binds
to an instance and yields a controller with the same two-method surface:

  decide(view)   -> ("start", job_id) | ("advance", time) | ("retire",)
  release(job, completion, is_long) -> next available time

so the simulator below is single-sourced.  Every policy binds to itself,
except SEPT, which binds to the list policy of its order; the fixed
assignment derives its per-machine queues from the instance in ``bind``.
The base ``release`` frees the machine at the completion time; the
grid-restricted table policy adds to the exact one only an idle advance's
target and the grid's release time.  A realization fixes each job's
outcome bit up front; the replay itself is deterministic, and
non-anticipativity is structural because controllers only ever see
outcomes of jobs already started.

``expected_cost_exact`` and ``expected_cost_mc`` run one loop over
blocks of outcome vectors (rows of a boolean matrix, one column per job
in ``job_ids`` order): every realization in enumeration order, or the
Monte-Carlo trials in order, all drawn from one stream
``SeedStream(seed)``, a block of trials in one numpy call.  Two numpy
kernels take a whole block on integer times:

* the fixed-order kernel, for ``ListPolicy``, ``SeptPolicy`` and
  ``FixedAssignmentPolicy``, in units of 1/L, L the lcm of the size
  denominators (``Instance.unit``); list policies run on sorted
  availability lanes;
* the table kernel, for ``ExactTablePolicy`` and
  ``StratifiedTablePolicy``, in the unit of the rule the table's solver
  ran.  Each distinct outcome vector of a block walks the table's states
  once, all of them taking each step together.  Each distinct state is
  read once per policy, table and instance where the table is a solver's
  ``DecisionTable``, on integer times, and once per call where it is a
  dict, as loaded from a file.  A ``DecisionTable`` with at least 2**N
  states also keeps each outcome vector's cost, in a float64 array
  indexed by the vector's code, so a vector is walked once per policy,
  table and instance; a dict table and a table with fewer states walk on
  every call, and a block that replays keeps no cost.

Replay is the per-realization reference and the fallback.  Any other
policy, a case that neither kernel takes (totals that could exceed
2**53, a list that does not cover the jobs), and a block in which the
table kernel meets a state it cannot step exactly as replay does (a
missing state, say) are replayed once per distinct row, in order of
first occurrence, and each cost is scattered back to its rows (the
rows of an enumeration block are distinct already, so they are not
grouped).  Either way the results and errors are per-realization
replay's to the bit: the probabilities are multiplied in the same order,
each cost is the correctly rounded float of its exact total, and the
sums run in sequence in the same order.  ``replay`` with
``enumerate_realizations``, or with successive ``sample_realization``
calls on one ``SeedStream(seed).generator()``, is that reference.
Enumeration branches on at most ``MAX_ENUMERATED`` stochastic jobs.

``expected_cost_reached`` needs no enumeration, so that limit does not
apply to it.  It prices the list, SEPT and fixed-assignment policies
exactly, as a ``Fraction``: the fixed assignment by a closed form, and a
list policy by one forward pass over the (sorted profile, jobs started)
states it reaches, within a state cap.  ``harness.compare`` prices its
baselines with it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .dp_exact import (STATE_CAP, DecisionTable, ExactRule, SolverCapError,
                       _interner)
from .dp_stratified import GridRule
from .instances import Instance
from .numerics import SeedStream
from .timegrid import TimeGrid


class ReplayError(RuntimeError):
    pass


@dataclass
class Schedule:
    """Per-job (machine, start, completion); all times exact."""

    entries: dict  # job_id -> (machine, start, completion)

    @property
    def total_cost(self) -> Fraction:
        return sum((c for _m, _s, c in self.entries.values()), Fraction(0))

    def starts_by_machine(self):
        by_m = {}
        for job, (mach, s, c) in self.entries.items():
            by_m.setdefault(mach, []).append((s, c, job))
        for lst in by_m.values():
            lst.sort()
        return by_m


class SimView:
    """What a controller may look at when deciding."""

    __slots__ = ("avail", "i_star", "t_star", "remaining", "inst")

    def __init__(self, avail, i_star, t_star, remaining, inst):
        self.avail = avail
        self.i_star = i_star
        self.t_star = t_star
        self.remaining = remaining  # set of job_ids
        self.inst = inst

    def counts(self):
        nu = [0] * self.inst.n_types
        for j, _i in self.remaining:
            nu[j] += 1
        return tuple(nu)

    def next_of_type(self, j):
        """Remaining type-j job with the smallest probability."""
        candidates = [i for (tj, i) in self.remaining if tj == j]
        if not candidates:
            raise ReplayError(f"no remaining job of type {j}")
        return (j, min(candidates))

    def sorted_profile(self):
        return tuple(sorted(self.avail))


def replay(policy, inst: Instance, realization) -> Schedule:
    """Run one realization under the policy and return the schedule."""
    ctl = policy.bind(inst)
    avail = [Fraction(0)] * inst.machines
    active = list(range(inst.machines))
    remaining = set(inst.job_ids())
    entries = {}
    guard = 0
    while remaining:
        guard += 1
        if guard > 10000 * (inst.total_jobs + 1):
            raise ReplayError("replay did not terminate")
        i_star = min(active, key=lambda i: (avail[i], i))
        t_star = avail[i_star]
        view = SimView(avail, i_star, t_star, remaining, inst)
        decision = ctl.decide(view)
        kind = decision[0]
        if kind == "start":
            job = decision[1]
            if job not in remaining:
                raise ReplayError(f"policy started unavailable job {job}")
            is_long = bool(realization[job])
            completion = t_star + (inst.job_size(job) if is_long else Fraction(0))
            entries[job] = (i_star, t_star, completion)
            remaining.discard(job)
            avail[i_star] = ctl.release(job, completion, is_long)
        elif kind == "advance":
            target = decision[1]
            if target <= t_star:
                raise ReplayError(f"advance to {target} does not progress")
            for i in active:
                if avail[i] < target:
                    avail[i] = target
        elif kind == "retire":
            active.remove(i_star)
            if not active:
                raise ReplayError("all machines retired with jobs remaining")
        else:
            raise ReplayError(f"unknown decision {decision!r}")
    return Schedule(entries=entries)


# -- realizations -----------------------------------------------------------

MAX_ENUMERATED = 20  # most q < 1 jobs an enumeration branches on


def _free_jobs(inst: Instance):
    """The jobs with q < 1, which branch; at most ``MAX_ENUMERATED``."""
    free = [job for job in inst.job_ids() if inst.job_q(job) < 1.0]
    if len(free) > MAX_ENUMERATED:
        raise ReplayError(f"too many stochastic jobs to enumerate ({len(free)})")
    return free


def enumerate_realizations(inst: Instance):
    """Yield (probability, realization) over all outcome vectors, the
    per-realization reference that ``_outcome_blocks`` reproduces a block
    at a time.

    Jobs with q = 1 are forced long and do not contribute branches.
    """
    jobs = inst.job_ids()
    free = _free_jobs(inst)
    forced = {job: True for job in jobs if inst.job_q(job) >= 1.0}
    for bits in itertools.product((True, False), repeat=len(free)):
        prob = 1.0
        real = dict(forced)
        for job, bit in zip(free, bits):
            q = inst.job_q(job)
            prob *= q if bit else (1.0 - q)
            real[job] = bit
        yield prob, real


def sample_realization(inst: Instance, rng):
    """One trial's realization, one ``rng.random()`` draw per job in
    ``job_ids`` order: the per-trial reference that ``_trial_blocks``
    reproduces a block of trials at a time."""
    out = {}
    for job in inst.job_ids():
        out[job] = bool(rng.random() < inst.job_q(job))
    return out


#: Outcome vectors per block.
_BLOCK = 1 << 14


def _outcome_blocks(inst: Instance):
    """(probabilities, outcomes) of every outcome vector, in blocks of at
    most ``_BLOCK`` rows: ``enumerate_realizations``' rows in its order,
    each probability multiplied up in its order, and the outcomes as a
    boolean matrix with columns in ``job_ids`` order."""
    jobs = inst.job_ids()
    free = [(jobs.index(job), inst.job_q(job)) for job in _free_jobs(inst)]
    n_rows = 1 << len(free)
    for start in range(0, n_rows, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, n_rows))
        outcomes = np.ones((len(rows), len(jobs)), dtype=bool)
        prob = np.ones(len(rows))
        for c, (k, q) in enumerate(free):
            # itertools.product((True, False)) puts True first
            bit = (rows >> (len(free) - 1 - c)) & 1 == 0
            outcomes[:, k] = bit
            prob *= np.where(bit, q, 1.0 - q)
        yield prob, outcomes


def _trial_blocks(inst: Instance, trials: int, seed: int):
    """Outcome matrices of trials 0..trials-1 in blocks of at most
    ``_BLOCK`` rows, all drawn from one ``SeedStream(seed)``: trial i
    takes the stream's draws iN .. iN+N-1, N the number of jobs, which is
    what the (i+1)-th ``sample_realization`` call on the stream draws.
    So a run of trials is a prefix of any longer run, whatever
    ``_BLOCK`` is."""
    qs = np.array([inst.job_q(job) for job in inst.job_ids()])
    rng = SeedStream(seed).generator()
    for start in range(0, trials, _BLOCK):
        yield rng.random((min(trials - start, _BLOCK), len(qs))) < qs


def _row_codes(outcomes):
    """Each row's int64 code, bit k its column k; at most 62 columns."""
    return outcomes @ (1 << np.arange(outcomes.shape[1], dtype=np.int64))


def _per_distinct_row(cost, outcomes, codes=None):
    """``cost`` of every row of a boolean matrix, from one call of
    ``cost`` on the distinct rows in order of first occurrence.

    Rows are grouped by their ``_row_codes``, or by ``codes`` where the
    caller has them; 1 << 63 overflows int64, so rows of more than 62
    columns are grouped by their ``np.packbits`` bytes, each row one void
    scalar."""
    if codes is None and outcomes.shape[1] <= 62:
        codes = _row_codes(outcomes)
    elif codes is None:
        packed = np.packbits(outcomes, axis=1)
        codes = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _codes, first, inverse = np.unique(codes, return_index=True,
                                       return_inverse=True)
    order = np.argsort(first)
    costs = np.empty(len(first))
    costs[order] = cost(outcomes[first[order]])
    return costs[inverse]


def _each_row(cost, outcomes, codes=None):
    """``cost`` of every row of a boolean matrix whose rows are distinct,
    as enumeration's are: ``_per_distinct_row``'s result without the
    grouping, since the rows' order is their order of first occurrence."""
    return cost(outcomes)


def _replay_rows(policy, inst: Instance, outcomes):
    """Each row's total completion time as a float, by one ``replay`` per
    row in row order."""
    jobs = inst.job_ids()
    return np.array([float(replay(policy, inst, dict(zip(jobs, row)))
                           .total_cost) for row in outcomes.tolist()])


def _queue_weights(ctl):
    """(job, weight) per job of a bound fixed assignment: a machine runs its
    queue back to back, so a job's size counts once for itself and once for
    each job queued after it."""
    for queue in ctl.queues:
        for pos, job in enumerate(queue):
            yield job, len(queue) - pos


def _fixed_order_kernel(policy, inst: Instance):
    """For a list, SEPT or fixed-assignment policy, a function from a
    (rows x jobs) outcome matrix, columns in ``job_ids`` order, to each
    row's total completion time as a float; None for any other policy,
    for a list that does not cover the instance's jobs, and where a total
    in units of 1/L could exceed 2**53, beyond which float64 is not exact.

    A list policy keeps min(m, N) availability lanes in ascending order:
    a job starts on lane 0 and ``np.minimum``/``np.maximum`` pairs move
    its completion up.  A total depends only on the multiset of
    availabilities, so replay's lowest-index tie rule cannot change it.
    """
    if type(policy) not in (ListPolicy, SeptPolicy, FixedAssignmentPolicy):
        return None
    jobs = inst.job_ids()
    unit = inst.unit
    sizes = [inst.int_sizes[j] for j, _i in jobs]
    if max(unit, len(jobs) * sum(sizes)) > 2**53:
        return None
    sizes = np.array(sizes, dtype=np.int64)
    index = {job: k for k, job in enumerate(jobs)}
    ctl = policy.bind(inst)
    if type(ctl) is FixedAssignmentPolicy:
        weights = np.zeros(len(jobs), dtype=np.int64)
        for job, weight in _queue_weights(ctl):
            weights[index[job]] = weight
        return lambda outcomes: (outcomes * sizes) @ weights / unit
    order = [index[job] for job in dict.fromkeys(ctl.order) if job in index]
    if len(order) != len(jobs):
        return None  # replay raises on the exhausted list

    def totals(outcomes):
        lanes = [np.zeros(len(outcomes), dtype=np.int64)
                 for _ in range(min(inst.machines, len(jobs)))]
        spare = np.empty(len(outcomes), dtype=np.int64)
        total = np.zeros(len(outcomes), dtype=np.int64)
        for k in order:
            # the job runs on the earliest lane, then rises to its place
            lanes[0] += outcomes[:, k] * sizes[k]
            total += lanes[0]
            for i in range(1, len(lanes)):
                np.minimum(lanes[i - 1], lanes[i], out=spare)
                np.maximum(lanes[i - 1], lanes[i], out=lanes[i])
                lanes[i - 1], spare = spare, lanes[i - 1]
        return total / unit
    return totals


class _Fallback(Exception):
    """A state the table kernel cannot step exactly as replay does."""


def _table_kernel(policy, inst: Instance, group=_per_distinct_row):
    """For an exact or stratified table policy, a function from a (rows x
    jobs) outcome matrix, columns in ``job_ids`` order, to each row's total
    completion time as a float; None for any other policy, and for a
    stratified one whose grid's sizes are not the instance's.  ``group``
    gives each row the cost of its distinct row: ``_per_distinct_row``, or
    ``_each_row`` where the rows are already distinct.

    Every row walks the table's states on integer times, in the unit of
    the rule its solver ran: ``ExactRule(inst)`` for an exact table and
    ``GridRule(grid)`` for a stratified one.  A state starts the decided
    type's next job, the one ``SimView.next_of_type`` picks, and adds its
    time plus, when the job is long, its size; the long child comes from
    the rule's ``after_long`` and the short child keeps the profile.  An
    idle state stands for the state its ``after_idle`` advance leads to.
    Each distinct state is read once and kept under an int id, its step
    in a row of an int64 array: through the table's ``integer_get`` where
    it is a ``DecisionTable`` in the rule's unit (a solver's table always
    is), and otherwise through its ``get`` on the ``Fraction`` profile
    replay would ask for.  A ``DecisionTable`` cannot change, so the
    policy keeps the walk while its table, the instance and the grid stay
    the same objects: a state is read once per policy, table and
    instance, and once per call in a dict table, as loaded from a file.
    Only the block's distinct rows walk (``group``), all of them taking
    each of their N steps together, one gather a step, and each row takes
    its distinct row's cost.  Totals are int64 in units and divided once
    by the unit, which is replay's correctly rounded float while they stay
    within 2**53.

    A row's cost depends only on its outcome vector, so the kept walk of
    a ``DecisionTable`` also keeps each walked row's cost under its
    ``_row_codes`` code, in a float64 array of 2**N entries, NaN until
    priced, where 2**N is at most the table's length (8 bytes a state at
    most).  A block then computes its codes once, gathers the costs it
    knows, and walks only the rows it does not, grouped by those codes: a
    repeat call, or Monte-Carlo after enumeration, walks no row.  A dict
    table, and a table with fewer states than 2**N, groups and walks
    every block afresh.

    The distinct rows replay instead, in order of first occurrence, when
    one of them meets a state the kernel cannot step as replay does: a
    missing state, a decision other than ``("start", j)`` with type-j
    jobs left or ``("idle",)``, an idle in an exact table, an idle that
    does not progress, an idle whose target idles too, or a time that
    lets a total exceed 2**53.  Such a state is never kept, nor is any
    cost of a block that replays, so every call that meets it replays,
    and replay's first error and its results stand unchanged.  (On the
    grid replay raises at a second idle in a row, as it does not
    progress: the first one's target is already in the idle group's
    Q-set.)
    """
    if type(policy) is ExactTablePolicy:
        grid = None
    elif type(policy) is StratifiedTablePolicy:
        grid = policy.grid
    else:
        return None
    key = (policy.table, inst, grid)
    kept = policy._walk  # (table, instance, grid, walk) of the last call
    walk = (kept[3] if kept and all(map(operator.is_, kept, key))
            else _table_walk(*key))
    # a dict table may change before the next call; a DecisionTable cannot
    policy._walk = (*key, walk) if isinstance(key[0], DecisionTable) else None
    if walk is None:
        return None

    def totals(outcomes):
        try:
            return walk(outcomes, group)
        except _Fallback:
            return group(partial(_replay_rows, policy, inst), outcomes)
    return totals


def _table_walk(table, inst: Instance, grid):
    """``_table_kernel``'s walk of a table on an instance, in the unit of
    ``ExactRule(inst)``, or of ``GridRule(grid)`` where a grid is given,
    as a function of an outcome matrix and a ``group``; None where that
    unit exceeds 2**53 or the rule's sizes are not the instance's.  Its
    ``memo`` attribute is the array of costs by code, or None where the
    table keeps none.  Nothing in it refers to the policy, so a dropped
    policy frees it at once."""
    rule = ExactRule(inst) if grid is None else GridRule(grid)
    unit, sizes, counts = rule.unit, rule.sizes, inst.counts
    n_jobs = inst.total_jobs
    if unit > 2**53 or unit % inst.unit or sizes != tuple(
            s * (unit // inst.unit) for s in inst.int_sizes):
        return None
    column = {job: k for k, job in enumerate(inst.job_ids())}
    starts = {("start", j): j for j in range(inst.n_types)}
    keys, _ids, state_id = _interner()  # state id -> (times, nu), and back
    if isinstance(table, DecisionTable) and table.unit == unit:
        read = table.integer_get
    else:
        def read(key):
            times, nu = key
            return table.get((tuple(Fraction(t, unit) for t in times), nu))

    def decide(times, nu):
        """The type the state starts, or None where it idles."""
        decision = read((times, nu))
        if decision == ("idle",):
            return None
        j = starts.get(decision)
        if j is None or not nu[j]:
            raise _Fallback
        return j

    def describe(sid):
        times, nu = keys[sid]
        j = decide(times, nu)
        if j is None:  # the state the idle advance leads to must start
            if rule.after_idle is None:
                raise _Fallback
            after = rule.after_idle(times, rule.idle_group(nu))
            if after[0] <= times[0] or (j := decide(after, nu)) is None:
                raise _Fallback
            times = after
        t = times[0]
        if (t + sizes[j]) * n_jobs > 2**53:
            raise _Fallback
        less = nu[:j] + (nu[j] - 1,) + nu[j + 1:]
        return (column[j, counts[j] - nu[j]], t, sizes[j],
                state_id((rule.after_long(times, j), less)),
                state_id((times, less)))

    # row sid: (column, time, size, long child, short child) of state sid,
    # -1 until it is described; the rows double when the states outgrow them
    steps = np.full((64, 5), -1, np.int64)

    def walk(outcomes):
        nonlocal steps
        rows = np.arange(len(outcomes))
        sid = np.full(len(outcomes), state_id(((0,) * inst.machines, counts)))
        total = np.zeros(len(outcomes), dtype=np.int64)
        for _ in range(n_jobs):
            step = steps[sid]
            new = sid[step[:, 0] < 0]
            if len(new):  # a _Fallback keeps none of them
                new = list(dict.fromkeys(new.tolist()))
                described = [describe(s) for s in new]
                while len(keys) > len(steps):
                    steps = np.vstack((steps, np.full(steps.shape, -1)))
                steps[new] = described
                step = steps[sid]
            col, t, size, long_child, short_child = step.T
            is_long = outcomes[rows, col]
            total += t + is_long * size
            sid = np.where(is_long, long_child, short_child)
        return total / unit

    memo = (np.full(1 << n_jobs, np.nan)
            if isinstance(table, DecisionTable) and 1 << n_jobs <= len(table)
            else None)

    def priced(outcomes, group):
        if memo is None:
            return group(walk, outcomes)
        codes = _row_codes(outcomes)
        costs = memo[codes]
        new = np.flatnonzero(np.isnan(costs))
        if len(new):  # a _Fallback keeps none of them
            costs[new] = memo[codes[new]] = group(walk, outcomes[new],
                                                  codes[new])
        return costs
    priced.memo = memo
    return priced


def _running_sum(start: float, terms) -> float:
    """start + terms[0] + terms[1] + ..., added strictly left to right."""
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


def _cost_function(policy, inst: Instance, group):
    """A function from an outcome matrix to each row's total completion
    time.  The fixed-order policies and the two table policies each have a
    numpy kernel that steps all rows together on integer times; any other
    policy, and a case that neither kernel takes, is replayed once per
    distinct row, in order of first occurrence, so a failing row raises
    what replaying the rows in order raises first.  A table kernel also
    replays a block that meets a state it cannot step as replay does.  So
    ``replay`` stays the reference for every result and every error.
    ``group`` finds the distinct rows: ``_per_distinct_row`` for trials,
    ``_each_row`` for enumeration, whose rows are distinct already."""
    kernel = (_fixed_order_kernel(policy, inst)
              or _table_kernel(policy, inst, group))
    if kernel is not None:
        return kernel
    return partial(group, partial(_replay_rows, policy, inst))


def expected_cost_exact(policy, inst: Instance) -> float:
    costs = _cost_function(policy, inst, _each_row)
    total = 0.0
    for prob, outcomes in _outcome_blocks(inst):
        total = _running_sum(total, prob * costs(outcomes))
    return total


def expected_cost_mc(policy, inst: Instance, trials: int, seed: int):
    """(mean, stderr) over ``trials`` trials drawn in order from one
    seeded stream (``_trial_blocks``).  The sums are taken of the costs
    less the first trial's, so that the variance does not cancel away
    on large means (Chan, Golub and LeVeque, 1983)."""
    if isinstance(trials, bool) or not hasattr(trials, "__index__"):
        raise ReplayError(f"trials must be an integer, not {trials!r}")
    if trials < 1:
        raise ReplayError("need at least one trial")
    costs = _cost_function(policy, inst, _per_distinct_row)
    first = None
    shifted = 0.0
    shifted_sq = 0.0
    for outcomes in _trial_blocks(inst, trials, seed):
        block = costs(outcomes)
        if first is None:
            first = block[0]
        block = block - first
        shifted = _running_sum(shifted, block)
        shifted_sq = _running_sum(shifted_sq, block * block)
    mean = float(first + shifted / trials)
    if trials == 1:
        return mean, 0.0
    var = max(0.0, (shifted_sq - shifted * shifted / trials) / (trials - 1))
    return mean, math.sqrt(var / trials)


def expected_cost_reached(policy, inst: Instance,
                          state_cap: int = STATE_CAP) -> Fraction:
    """The exact expected total completion time of a list, SEPT or
    fixed-assignment policy, without enumerating outcome vectors.

    By linearity, a fixed assignment's cost is the sum over jobs of q·p
    times the job's weight in its queue (``_queue_weights``, which the
    fixed-order kernel also uses).  A list policy starts its jobs in order,
    each at the earliest available time, so after k starts its state is
    the sorted profile alone.  One forward pass carries each reached
    profile's probability mass from one start to the next; equal profiles
    merge and branches of zero mass are dropped.  Times are integers in
    units of 1/L, L the lcm of the size denominators, and after k starts
    the masses are integer numerators over D**k, D the lcm of the
    probability denominators: the instance's integer view.

    Raises ReplayError where replay would (a list that does not cover the
    jobs) and for any other policy, and SolverCapError when the reached
    states outnumber ``state_cap``.
    """
    ctl = policy.bind(inst)
    unit, den = inst.unit, inst.q_den
    if type(ctl) is FixedAssignmentPolicy:
        sizes, q_nums = inst.int_sizes, inst.q_nums  # q over den
        total = sum(weight * q_nums[j][i] * sizes[j]
                    for (j, i), weight in _queue_weights(ctl))
        return Fraction(total, den * unit)
    if type(ctl) is not ListPolicy:
        raise ReplayError(f"no reached-state evaluator for {policy.name!r}")
    size = {job: inst.int_sizes[job[0]] for job in inst.job_ids()}
    qnum = {(j, i): a for j, row in enumerate(inst.q_nums)  # q over den
            for i, a in enumerate(row)}
    order = [job for job in dict.fromkeys(ctl.order) if job in size]
    if len(order) != len(size):
        raise ReplayError("list exhausted with jobs remaining")
    reached = {(0,) * inst.machines: 1}  # profile -> mass over den**k
    # total: numerator over den**k * unit of the cost of the first k starts
    total, scale, states = 0, 1, 0
    for job in order:
        states += len(reached)
        if states > state_cap:
            raise SolverCapError(f"state cap exceeded ({states} states)")
        p, a = size[job], qnum[job]
        after, weighted = {}, 0  # weighted: sum of mass * start time
        for profile, mass in reached.items():
            t = profile[0]
            weighted += mass * t
            if a:
                i = bisect.bisect_right(profile, t + p, 1)
                long = profile[1:i] + (t + p,) + profile[i:]
                after[long] = after.get(long, 0) + mass * a
            if a != den:
                after[profile] = after.get(profile, 0) + mass * (den - a)
        # the masses sum to scale, so a long job adds a * p * scale
        total = (total + weighted) * den + a * p * scale
        scale *= den
        reached = after
    return Fraction(total, scale * unit)


# -- policies ---------------------------------------------------------------

class Policy:
    name = "policy"

    def bind(self, inst: Instance):
        return self

    def release(self, job, completion, is_long):
        return completion


class ListPolicy(Policy):
    """Non-idling policy starting jobs in an explicit fixed order."""

    name = "list"

    def __init__(self, order):
        self.order = list(order)

    def decide(self, view):
        for job in self.order:
            if job in view.remaining:
                return ("start", job)
        raise ReplayError("list exhausted with jobs remaining")


def sept_order(inst: Instance):
    """All jobs ordered by expected size q*p ascending, ties broken by type
    index then probability.  The products are compared exactly, as
    integers over D*L (``Instance.q_nums`` times ``Instance.int_sizes``),
    so the order does not change when the sizes are scaled."""
    sizes, qnums = inst.int_sizes, inst.q_nums
    return sorted(inst.job_ids(),
                  key=lambda job: (qnums[job[0]][job[1]] * sizes[job[0]], job))


class SeptPolicy(Policy):
    name = "sept"

    def bind(self, inst):
        return ListPolicy(sept_order(inst))


class FixedAssignmentPolicy(Policy):
    """Round-robin split of the expected-size order over machines at time 0;
    each machine works through its own queue and never takes others' jobs."""

    name = "fixed"

    def bind(self, inst):
        order = sept_order(inst)
        self.queues = tuple(order[i::inst.machines]
                            for i in range(inst.machines))
        return self

    def decide(self, view):
        for job in self.queues[view.i_star]:
            if job in view.remaining:
                return ("start", job)
        return ("retire",)


class ExactTablePolicy(Policy):
    """Replays a table that answers ``get``: a solver's ``DecisionTable``
    or the ``Fraction``-keyed dict that ``cli.load_policy_file`` returns.
    An ``("idle",)`` entry is a ReplayError, as the exact class never
    idles."""

    name = "exact"
    _walk = None  # kept by _table_kernel

    def __init__(self, solution):
        self.table = solution.policy

    def decide(self, view):
        key = (view.sorted_profile(), view.counts())
        decision = self.table.get(key)
        if decision is None:
            raise ReplayError(f"state {key} missing from policy table")
        if decision[0] == "idle":
            return ("advance", self.idle_target(view))
        return ("start", view.next_of_type(decision[1]))

    def idle_target(self, view):
        raise ReplayError(f"idle decision at {view.t_star} in an exact table")


class StratifiedTablePolicy(ExactTablePolicy):
    """The same replay on the grid: an idle advance goes to the next point
    of the idle group's Q-set, and a long job frees its machine at the
    grid's release time."""

    name = "stratified"

    def __init__(self, solution, grid: TimeGrid):
        super().__init__(solution)
        self.grid = grid

    def idle_target(self, view):
        h = self.grid.idle_group(view.counts())
        return self.grid.q_successor(h, view.t_star)

    def release(self, job, completion, is_long):
        if not is_long:
            return completion
        return self.grid.release_time(self.grid.group_of_type(job[0]),
                                      completion)
