import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsched import policies
from bernsched.dp_exact import SolverCapError, solve_exact
from bernsched.dp_stratified import solve_stratified
from bernsched.harness import prepare
from bernsched.instances import validate_and_canonicalize
from bernsched.numerics import SeedStream
from bernsched.policies import (
    ExactTablePolicy,
    FixedAssignmentPolicy,
    ListPolicy,
    ReplayError,
    SeptPolicy,
    StratifiedTablePolicy,
    enumerate_realizations,
    expected_cost_exact,
    expected_cost_mc,
    expected_cost_reached,
    replay,
    sample_realization,
    sept_order,
    validate_schedule,
)


def make(machines, raw, epsilon="1/13"):
    return validate_and_canonicalize(machines, epsilon, raw)


@pytest.fixture(scope="module")
def example_35():
    # A(p=3, q=.5), B(p=1, q=1) on one machine; optimal value 3.5
    return make(1, [(3, [0.5]), (1, [1.0])])


class TestReplay:
    def test_exact_policy_long_branch(self, example_35):
        policy = ExactTablePolicy(solve_exact(example_35))
        real = {(0, 0): True, (1, 0): True}
        sched = replay(policy, example_35, real)
        # B runs 0->1, A runs 1->4
        assert sched.entries[(1, 0)] == (0, 0, 1)
        assert sched.entries[(0, 0)] == (0, 1, 4)
        assert sched.total_cost == 5

    def test_exact_policy_short_branch(self, example_35):
        policy = ExactTablePolicy(solve_exact(example_35))
        real = {(0, 0): False, (1, 0): True}
        sched = replay(policy, example_35, real)
        assert sched.total_cost == 2

    def test_stratified_one_type_both_long(self):
        inst = make(1, [(169, [1.0, 1.0])])
        rounded, groups, grid, _ = prepare(inst)
        sol = solve_stratified(rounded, groups, grid)
        policy = StratifiedTablePolicy(sol, grid)
        real = {(0, 0): True, (0, 1): True}
        sched = replay(policy, rounded, real)
        starts = sorted(s for _m, s, _c in sched.entries.values())
        assert starts == [0, 234]
        assert sched.total_cost == 169 + 403

    def test_feasibility_validated(self, example_35):
        policy = SeptPolicy()
        for _p, real in enumerate_realizations(example_35):
            sched = replay(policy, example_35, real)
            validate_schedule(example_35, sched, real)

    def test_missing_state_errors(self, example_35):
        policy = ExactTablePolicy(solve_exact(example_35))
        bogus = make(1, [(3, [0.5, 0.5]), (1, [1.0])])
        with pytest.raises(ReplayError):
            replay(policy, bogus, {j: True for j in bogus.job_ids()})

    def test_idle_entry_in_exact_table_errors(self, example_35):
        # the exact class never idles, so the exact replay has no target
        idle = {(prof, nu): ("idle",) for prof, nu in
                solve_exact(example_35).policy}
        policy = ExactTablePolicy(SimpleNamespace(policy=idle))
        with pytest.raises(ReplayError, match="idle decision at 0 "):
            replay(policy, example_35, {j: True for j in example_35.job_ids()})


class TestExpectedCost:
    def test_exact_policy_matches_dp(self, example_35):
        sol = solve_exact(example_35)
        got = expected_cost_exact(ExactTablePolicy(sol), example_35)
        assert got == pytest.approx(sol.value, abs=1e-9)

    def test_deterministic_single_realization(self):
        inst = make(2, [(4, [1.0]), (2, [1.0, 1.0])])
        reals = list(enumerate_realizations(inst))
        assert len(reals) == 1 and reals[0][0] == 1.0

    def test_sept_on_example(self, example_35):
        assert expected_cost_exact(SeptPolicy(), example_35) == \
            pytest.approx(3.5, abs=1e-9)

    def test_stratified_policy_matches_dp(self):
        inst = make(1, [(169, [0.5, 1.0])])
        rounded, groups, grid, _ = prepare(inst)
        sol = solve_stratified(rounded, groups, grid)
        got = expected_cost_exact(StratifiedTablePolicy(sol, grid), rounded)
        assert got == pytest.approx(sol.value, abs=1e-9)


class TestMonteCarlo:
    def test_deterministic_zero_stderr(self):
        inst = make(1, [(4, [1.0]), (2, [1.0])])
        mean, stderr = expected_cost_mc(SeptPolicy(), inst, trials=50, seed=1)
        assert stderr == 0.0
        assert mean == pytest.approx(2 + 6)

    def test_mean_near_truth(self, example_35):
        mean, stderr = expected_cost_mc(
            SeptPolicy(), example_35, trials=4000, seed=7
        )
        assert abs(mean - 3.5) <= 4 * stderr + 1e-12

    def test_seed_reproducible(self, example_35):
        a = expected_cost_mc(SeptPolicy(), example_35, trials=200, seed=3)
        b = expected_cost_mc(SeptPolicy(), example_35, trials=200, seed=3)
        assert a == b

    def test_trials_validated(self, example_35):
        with pytest.raises(ReplayError):
            expected_cost_mc(SeptPolicy(), example_35, trials=0, seed=0)


class TestSept:
    def test_order_on_example(self, example_35):
        order = sept_order(example_35)
        assert order == [(1, 0), (0, 0)]  # E=1 before E=1.5

    def test_tie_breaks_by_type_index(self):
        inst = make(1, [(4, [0.5]), (2, [1.0])])  # both E=2
        assert sept_order(inst) == [(0, 0), (1, 0)]

    def test_deterministic_instances_optimal(self):
        for k in range(10):
            rng = SeedStream(515, k).generator()
            n_jobs = int(rng.integers(1, 5))
            by_size = {}
            for _ in range(n_jobs):
                by_size.setdefault(int(rng.integers(1, 9)), []).append(1.0)
            inst = make(int(rng.integers(1, 3)),
                        [(p, v) for p, v in by_size.items()])
            got = expected_cost_exact(SeptPolicy(), inst)
            assert got == pytest.approx(solve_exact(inst).value, abs=1e-9)

    def test_all_equal_q_stochastic_order(self):
        # identical q across jobs: expected-size order is optimal
        for k in range(10):
            rng = SeedStream(616, k).generator()
            q = float((0.25, 0.5, 0.75)[int(rng.integers(0, 3))])
            by_size = {}
            for _ in range(int(rng.integers(1, 5))):
                by_size.setdefault(int(rng.integers(1, 9)), []).append(q)
            inst = make(int(rng.integers(1, 3)),
                        [(p, v) for p, v in by_size.items()])
            got = expected_cost_exact(SeptPolicy(), inst)
            assert got == pytest.approx(solve_exact(inst).value, abs=1e-9)


class TestFixedAssignment:
    def test_m1_equals_sept(self, example_35):
        a = expected_cost_exact(FixedAssignmentPolicy(), example_35)
        b = expected_cost_exact(SeptPolicy(), example_35)
        assert a == pytest.approx(b, abs=1e-9)

    def test_round_robin_split(self):
        inst = make(2, [(3, [0.5, 0.5, 0.5, 0.5])])
        for _p, real in enumerate_realizations(inst):
            sched = replay(FixedAssignmentPolicy(), inst, real)
            machines = [m for m, _s, _c in sched.entries.values()]
            assert machines.count(0) == 2 and machines.count(1) == 2

    def test_adaptivity_gap_exists(self):
        inst = make(2, [(3, [0.5] * 4)])
        fixed = expected_cost_exact(FixedAssignmentPolicy(), inst)
        opt = solve_exact(inst).value
        assert fixed > opt + 1e-9


class TestListPolicy:
    def test_order_violation_never_cheaper(self):
        # swapping two same-type jobs out of q-order cannot reduce the cost
        inst = make(1, [(3, [0.25, 0.75]), (1, [1.0])])
        good = [(0, 0), (0, 1), (1, 0)]
        bad = [(0, 1), (0, 0), (1, 0)]
        cost_good = expected_cost_exact(ListPolicy(good), inst)
        cost_bad = expected_cost_exact(ListPolicy(bad), inst)
        assert cost_bad >= cost_good - 1e-9


def _reuse_case(name):
    """(policy factory, first instance, second instance) for one policy.
    A table policy's second instance has the first's sizes and counts, so
    its table covers it, but other probabilities."""
    if name == "sept":
        return SeptPolicy, make(2, [(3, [0.25, 0.75]), (1, [0.5, 1.0])]), \
            make(1, [(4, [0.5]), (2, [0.25, 0.75])])
    if name == "fixed":
        return FixedAssignmentPolicy, make(2, [(3, [0.5] * 3), (1, [0.25])]), \
            make(3, [(5, [0.75, 1.0]), (2, [0.5, 0.5])])
    first = make(2, [(3, [0.25, 0.75]), (1, [0.5, 1.0])])
    second = make(2, [(3, [0.5, 0.5]), (1, [0.25, 0.75])])
    if name == "list":
        order = [(1, 0), (0, 1), (0, 0), (1, 1)]
        return lambda: ListPolicy(order), first, second
    if name == "exact":
        sol = solve_exact(first)
        return lambda: ExactTablePolicy(sol), first, second
    assert name == "stratified"
    rounded, groups, grid, _ = prepare(
        make(1, [(169, [0.25, 0.5]), (1, [0.25, 0.25])]))
    sol = solve_stratified(rounded, groups, grid)
    other = make(1, [(t.size, [0.75] * t.count) for t in rounded.types])
    return lambda: StratifiedTablePolicy(sol, grid), rounded, other


def _fresh_cost(factory, inst):
    """expected_cost_exact with a new policy object for every replay."""
    total = 0.0
    for prob, real in enumerate_realizations(inst):
        total += prob * float(replay(factory(), inst, real).total_cost)
    return total


class TestReuse:
    """One policy object evaluated twice on one instance and once on
    another costs what fresh objects cost each time: no state from one
    replay leaks into the next."""

    @pytest.mark.parametrize(
        "name", ["sept", "fixed", "list", "exact", "stratified"])
    def test_reused_equals_fresh(self, name):
        factory, first, second = _reuse_case(name)
        policy = factory()
        assert policy.name == name
        runs = (first, first, second)
        reused = [expected_cost_exact(policy, inst) for inst in runs]
        assert reused == [_fresh_cost(factory, inst) for inst in runs]
        assert reused[0] != reused[2]


# -- the fixed-order kernel against scalar replay ---------------------------

def _scalar_exact(policy, inst):
    return _fresh_cost(lambda: policy, inst)


def _scalar_mc(policy, inst, trials, seed):
    total = total_sq = 0.0
    for i in range(trials):
        real = sample_realization(inst, SeedStream(seed, i).generator())
        cost = float(replay(policy, inst, real).total_cost)
        total += cost
        total_sq += cost * cost
    mean = total / trials
    if trials == 1:
        return mean, 0.0
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(var / trials)


# equal and non-integer sizes, non-dyadic q, and m below and above N
fixed_order_instances = st.builds(
    lambda m, jobs: make(m, [(p, [q for p2, q in jobs if p2 == p])
                             for p in {p for p, _q in jobs}]),
    st.integers(1, 5),
    st.lists(st.tuples(st.sampled_from([Fraction(5, 13), 1, Fraction(3, 2), 4]),
                       st.sampled_from([0.1, 0.25, 0.5, 0.93, 1.0])),
             min_size=1, max_size=6),
)


def _fixed_order_policies(inst, permutation):
    jobs = inst.job_ids()
    return (SeptPolicy(), FixedAssignmentPolicy(),
            ListPolicy([jobs[k] for k in permutation]))


class TestFixedOrderKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_scalar_replay(self, data):
        inst = data.draw(fixed_order_instances)
        permutation = data.draw(st.permutations(range(inst.total_jobs)))
        seed = data.draw(st.integers(0, 2**32))
        trials = data.draw(st.integers(1, 40))
        for policy in _fixed_order_policies(inst, permutation):
            assert expected_cost_exact(policy, inst) == \
                _scalar_exact(policy, inst)
            assert expected_cost_mc(policy, inst, trials, seed) == \
                _scalar_mc(policy, inst, trials, seed)

    def test_sums_carry_across_blocks(self, monkeypatch):
        inst = make(2, [(Fraction(7, 3), [0.1, 0.93]), (1, [0.25, 0.5]),
                        (Fraction(1, 2), [0.93, 1.0, 0.1])])
        monkeypatch.setattr(policies, "_BLOCK", 5)
        for policy in _fixed_order_policies(inst, range(6, -1, -1)):
            assert expected_cost_exact(policy, inst) == \
                _scalar_exact(policy, inst)
            assert expected_cost_mc(policy, inst, 23, 4) == \
                _scalar_mc(policy, inst, 23, 4)

    def test_fast_path_does_not_replay(self, monkeypatch):
        inst = make(2, [(3, [0.25, 0.75]), (1, [0.5, 1.0]),
                        (Fraction(1, 3), [0.93])])
        want = {}
        for policy in (SeptPolicy(), FixedAssignmentPolicy()):
            want[policy.name] = (_scalar_exact(policy, inst),
                                 _scalar_mc(policy, inst, 50, 9))

        def no_replay(*args):
            raise AssertionError("replay called")

        monkeypatch.setattr(policies, "replay", no_replay)
        for policy in (SeptPolicy(), FixedAssignmentPolicy()):
            got = (expected_cost_exact(policy, inst),
                   expected_cost_mc(policy, inst, 50, 9))
            assert got == want[policy.name]

    def test_totals_beyond_2_53_replay(self, monkeypatch):
        inst = make(2, [(2**60, [0.5, 0.25]), (3 * 2**58, [0.75]),
                        (Fraction(2**60, 3), [0.5])])
        calls = []

        def counting_replay(*args):
            calls.append(args)
            return replay(*args)

        # one replay per distinct outcome vector among the 30 trials
        distinct = len({
            tuple(sample_realization(inst, SeedStream(2, i).generator())
                  .values())
            for i in range(30)})
        monkeypatch.setattr(policies, "replay", counting_replay)
        for policy in (SeptPolicy(), FixedAssignmentPolicy()):
            calls.clear()
            assert expected_cost_exact(policy, inst) == \
                _scalar_exact(policy, inst)
            assert len(calls) == 16
            assert expected_cost_mc(policy, inst, 30, 2) == \
                _scalar_mc(policy, inst, 30, 2)
            assert len(calls) == 16 + distinct

    def test_incomplete_list_still_raises(self):
        inst = make(1, [(3, [0.5]), (1, [0.5])])
        with pytest.raises(ReplayError):
            expected_cost_exact(ListPolicy([(0, 0)]), inst)


# -- Monte-Carlo by replay against per-trial replay -------------------------

table_instances = st.builds(
    lambda m, jobs: make(m, [(p, [q for p2, q in jobs if p2 == p])
                             for p in {p for p, _q in jobs}]),
    st.integers(1, 3),
    st.lists(st.tuples(st.sampled_from([1, Fraction(3, 2), 13]),
                       st.sampled_from([0.25, 0.5, 0.93, 1.0])),
             min_size=1, max_size=4),
)


def _table_cases(inst):
    """(exact table policy, inst) and (stratified table policy, rounded)."""
    rounded, groups, grid, _ = prepare(inst)
    return [(ExactTablePolicy(solve_exact(inst)), inst),
            (StratifiedTablePolicy(solve_stratified(rounded, groups, grid),
                                   grid), rounded)]


def _mc_outcome(policy, inst, trials, seed, mc):
    """mc's (mean, stderr), or the message of the ReplayError it raised."""
    try:
        return mc(policy, inst, trials, seed)
    except ReplayError as exc:
        return str(exc)


def _assert_mc_equals_per_trial(policy, inst, trials, seed):
    want = _mc_outcome(policy, inst, trials, seed, _scalar_mc)
    assert _mc_outcome(policy, inst, trials, seed, expected_cost_mc) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policies, "_BLOCK", 5)  # blocks split mid-run
        assert _mc_outcome(policy, inst, trials, seed,
                           expected_cost_mc) == want


class TestReplayMonteCarlo:
    """Replayed Monte-Carlo, one replay per distinct outcome vector, gives
    per-trial replay's results and errors to the bit."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_tables_equal_per_trial_replay(self, data):
        inst = data.draw(table_instances)
        seed = data.draw(st.integers(0, 2**32))
        trials = data.draw(st.integers(1, 40))
        for policy, case_inst in _table_cases(inst):
            _assert_mc_equals_per_trial(policy, case_inst, trials, seed)
            # one or two states gone: whichever failing trial comes first
            # names the missing state
            keys = sorted(policy.table, key=repr)
            removed = data.draw(st.sets(st.sampled_from(keys),
                                        min_size=1, max_size=2))
            policy.table = {k: v for k, v in policy.table.items()
                            if k not in removed}
            _assert_mc_equals_per_trial(policy, case_inst, trials, seed)

    def test_missing_state_raises_first_trials_error(self):
        # only the root state is left, so each trial fails at its second
        # decision, in a state that its first job's outcome decides
        inst = make(1, [(3, [0.25, 0.75]), (1, [0.5])])
        policy, _ = _table_cases(inst)[0]
        root = ((Fraction(0),), inst.counts)
        policy.table = {root: policy.table[root]}
        seed, trials = 1, 40
        rows, errors = [], []
        for i in range(trials):
            real = sample_realization(inst, SeedStream(seed, i).generator())
            rows.append(tuple(real.values()))
            with pytest.raises(ReplayError) as exc:
                replay(policy, inst, real)
            errors.append(str(exc.value))
        # the lexicographically first outcome vector fails otherwise
        assert errors[rows.index(min(rows))] != errors[0]
        assert _mc_outcome(policy, inst, trials, seed, _scalar_mc) == errors[0]
        assert _mc_outcome(policy, inst, trials, seed,
                           expected_cost_mc) == errors[0]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_fixed_order_beyond_2_53_equals_per_trial_replay(self, data):
        inst = data.draw(fixed_order_instances)
        big = make(inst.machines,
                   [(t.size * 2**60, list(t.qs)) for t in inst.types])
        assert policies._fixed_order_kernel(SeptPolicy(), big) is None
        permutation = data.draw(st.permutations(range(big.total_jobs)))
        seed = data.draw(st.integers(0, 2**32))
        trials = data.draw(st.integers(1, 40))
        for policy in _fixed_order_policies(big, permutation):
            _assert_mc_equals_per_trial(policy, big, trials, seed)
        jobs = big.job_ids()
        _assert_mc_equals_per_trial(ListPolicy([jobs[k] for k in
                                                permutation[1:]]),
                                    big, trials, seed)


# -- the table kernel against scalar replay ----------------------------------

# separated sizes (169 and 1) make the stratified tables idle
kernel_table_instances = st.builds(
    lambda m, jobs: make(m, [(p, [q for p2, q in jobs if p2 == p])
                             for p in {p for p, _q in jobs}]),
    st.integers(1, 3),
    st.lists(st.tuples(st.sampled_from([1, Fraction(3, 2), 13, 169]),
                       st.sampled_from([0.25, 0.5, 0.93, 1.0])),
             min_size=1, max_size=4),
)


def _has_idle(policy):
    return ("idle",) in set(policy.table.values())


def _idling_cases():
    """Both table policies on 169-and-1 instances, each with two distinct
    probabilities in a type; the stratified tables idle."""
    cases = []
    for machines, big in ((1, [0.25, 0.5]), (2, [0.25, 0.5, 0.75])):
        cases += _table_cases(make(machines, [(169, big), (1, [0.25, 0.93])]))
    assert all(_has_idle(policy) for policy, _inst in cases[1::2])
    return cases


def _no_replay(*args):
    raise AssertionError("replay called")


def _counting_replay(calls):
    def counted(*args):
        calls.append(args)
        return replay(*args)
    return counted


def _outcome(evaluate, *args):
    """The evaluation's result, or the type and message of what it raised."""
    try:
        return evaluate(*args)
    except Exception as exc:  # noqa: BLE001  (compared with replay's)
        return type(exc), str(exc)


def _assert_table_outcomes_equal_replay(policy, inst, trials, seed):
    """Enumeration and Monte-Carlo give per-realization replay's results
    or errors, with the default blocks and with blocks of five rows."""
    want = (_outcome(_scalar_exact, policy, inst),
            _outcome(_scalar_mc, policy, inst, trials, seed))
    for block in (policies._BLOCK, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policies, "_BLOCK", block)
            got = (_outcome(expected_cost_exact, policy, inst),
                   _outcome(expected_cost_mc, policy, inst, trials, seed))
        assert got == want


class TestTableKernel:
    """Table policies step whole blocks on integer states and give
    per-realization replay's results and errors to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_scalar_replay(self, data):
        inst = data.draw(kernel_table_instances)
        seed = data.draw(st.integers(0, 2**32))
        trials = data.draw(st.integers(1, 40))
        for policy, case_inst in _table_cases(inst):
            assert policies._table_kernel(policy, case_inst) is not None
            # the reference replays through this module's own binding
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(policies, "replay", _no_replay)
                _assert_table_outcomes_equal_replay(policy, case_inst,
                                                    trials, seed)

    @pytest.mark.parametrize("as_dict", [False, True])
    def test_tables_do_not_replay(self, monkeypatch, as_dict):
        cases = _idling_cases()
        if as_dict:  # as loaded from a file: Fraction profiles, plain tuples
            for policy, _inst in cases:
                policy.table = dict(policy.table.items())
        want = [(_scalar_exact(policy, inst), _scalar_mc(policy, inst, 60, 3))
                for policy, inst in cases]
        monkeypatch.setattr(policies, "replay", _no_replay)
        for block in (policies._BLOCK, 5):
            monkeypatch.setattr(policies, "_BLOCK", block)
            got = [(expected_cost_exact(policy, inst),
                    expected_cost_mc(policy, inst, 60, 3))
                   for policy, inst in cases]
            assert got == want

    def test_missing_state_replays(self):
        for policy, inst in _idling_cases():
            table = dict(policy.table.items())
            # a state that only trials whose first job is short reach
            root = ((Fraction(0),) * inst.machines, inst.counts)
            j = table[root][1]
            nu = inst.counts[:j] + (inst.counts[j] - 1,) + inst.counts[j + 1:]
            del table[root[0], nu]
            policy.table = table
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(policies, "replay", _counting_replay(calls))
                _assert_table_outcomes_equal_replay(policy, inst, 40, 1)
            assert calls
            with pytest.raises(ReplayError, match="missing from policy table"):
                expected_cost_exact(policy, inst)

    def test_idle_in_exact_table_replays(self, example_35):
        idle = {(prof, nu): ("idle",) for prof, nu in
                solve_exact(example_35).policy}
        policy = ExactTablePolicy(SimpleNamespace(policy=idle))
        _assert_table_outcomes_equal_replay(policy, example_35, 20, 2)
        with pytest.raises(ReplayError, match="idle decision at 0 "):
            expected_cost_mc(policy, example_35, 20, 2)

    def test_idle_without_progress_replays(self):
        # the root's time 0 is in every Q-set, so an idle there stays put
        policy, inst = _idling_cases()[1]
        table = dict(policy.table.items())
        table[(Fraction(0),), inst.counts] = ("idle",)
        policy.table = table
        _assert_table_outcomes_equal_replay(policy, inst, 20, 2)
        with pytest.raises(ReplayError, match="does not progress"):
            expected_cost_exact(policy, inst)

    def test_start_of_exhausted_type_replays(self):
        policy, inst = _idling_cases()[0]
        table = dict(policy.table.items())
        table[(Fraction(0),), inst.counts] = ("start", 0)
        table[(Fraction(0),), (1, 2)] = ("start", 0)
        table[(Fraction(0),), (0, 2)] = ("start", 0)
        policy.table = table
        _assert_table_outcomes_equal_replay(policy, inst, 20, 2)
        with pytest.raises(ReplayError, match="no remaining job of type 0"):
            expected_cost_exact(policy, inst)

    def test_totals_beyond_2_53_replay(self, monkeypatch):
        inst = make(2, [(2**60, [0.5, 0.25]), (3 * 2**58, [0.75]),
                        (Fraction(2**60, 3), [0.5])])
        policy = ExactTablePolicy(solve_exact(inst))
        assert policies._table_kernel(policy, inst) is not None
        calls = []
        monkeypatch.setattr(policies, "replay", _counting_replay(calls))
        _assert_table_outcomes_equal_replay(policy, inst, 30, 2)
        assert calls
        # the same table scaled down runs without replay
        small = make(2, [(4, [0.5, 0.25]), (3, [0.75]),
                         (Fraction(4, 3), [0.5])])
        policy = ExactTablePolicy(solve_exact(small))
        calls.clear()
        expected_cost_mc(policy, small, 30, 2)
        assert not calls

    def test_stratified_sizes_beyond_2_53_replay(self, monkeypatch):
        policy, inst = _idling_cases()[1]
        big = make(inst.machines,
                   [(t.size * 2**60, list(t.qs)) for t in inst.types])
        rounded, groups, grid, _ = prepare(big)
        policy = StratifiedTablePolicy(solve_stratified(rounded, groups, grid),
                                       grid)
        assert _has_idle(policy)
        calls = []
        monkeypatch.setattr(policies, "replay", _counting_replay(calls))
        _assert_table_outcomes_equal_replay(policy, rounded, 30, 2)
        assert calls

    def test_declines_other_grids_and_policies(self):
        # a stratified table evaluated on an instance its grid was not
        # built for is replay's business: the kernel declines it
        policy, inst = _idling_cases()[1]
        other = make(1, [(13, [0.5, 0.5]), (1, [0.25, 0.93])])
        assert policies._table_kernel(policy, other) is None
        assert policies._table_kernel(SeptPolicy(), inst) is None


# -- exact values over reached states against enumeration --------------------

# several types, q = 1 among the jobs, and one to three machines
reached_instances = st.builds(
    lambda m, jobs: make(m, [(p, [q for p2, q in jobs if p2 == p])
                             for p in {p for p, _q in jobs}]),
    st.integers(1, 3),
    st.lists(st.tuples(st.sampled_from([Fraction(5, 13), 1, Fraction(3, 2),
                                        4, 13]),
                       st.sampled_from([0.1, 0.25, 0.5, 0.93, 1.0])),
             min_size=1, max_size=8),
)


def _replay_error(policy, inst):
    """The message of the ReplayError that replaying ``policy`` raises."""
    with pytest.raises(ReplayError) as exc:
        replay(policy, inst, {job: True for job in inst.job_ids()})
    return str(exc.value)


class TestReachedStates:
    """``expected_cost_reached`` prices the list, SEPT and fixed-assignment
    policies exactly, without enumerating outcome vectors."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_enumeration(self, data):
        inst = data.draw(reached_instances)
        permutation = data.draw(st.permutations(range(inst.total_jobs)))
        for policy in _fixed_order_policies(inst, permutation):
            got = expected_cost_reached(policy, inst)
            assert isinstance(got, Fraction)
            want = expected_cost_exact(policy, inst)
            assert abs(float(got) - want) <= 1e-12 * want

    def test_two_machines_resort_the_profile(self):
        # the size-4 job holds one machine until 4; when the size-2 job
        # runs long, the other machine is free at 2, so the last job
        # starts at 2 (at 0 when it ran short), not at 4
        inst = make(2, [(4, [1.0]), (2, [0.5]), (1, [1.0])])
        order = ListPolicy([(0, 0), (1, 0), (2, 0)])
        want = 4 + Fraction(1, 2) * 2 + Fraction(1, 2) * (2 + 1) \
            + Fraction(1, 2) * 1
        assert expected_cost_reached(order, inst) == want
        assert expected_cost_exact(order, inst) == float(want)

    def test_fixed_assignment_closed_form(self):
        # one machine, queue (1, 0), (0, 0): the first job counts twice
        inst = make(1, [(3, [0.5]), (1, [1.0])])
        assert expected_cost_reached(FixedAssignmentPolicy(), inst) == \
            2 * 1 + Fraction(3, 2)

    def test_past_enumeration(self):
        # 24 stochastic jobs: enumeration refuses them; on one machine the
        # SEPT list and the fixed assignment run the same order
        inst = make(1, [(Fraction(7, 3), [0.25, 0.5, 0.75] * 4),
                        (1, [0.1, 0.93] * 6)])
        with pytest.raises(ReplayError, match="too many stochastic jobs"):
            expected_cost_exact(SeptPolicy(), inst)
        sept = expected_cost_reached(SeptPolicy(), inst)
        assert sept == expected_cost_reached(FixedAssignmentPolicy(), inst)
        assert sept.denominator > 1

    def test_missing_job_raises_replays_error(self):
        inst = make(2, [(3, [0.5, 0.25]), (1, [1.0])])
        partial = ListPolicy([(0, 1), (1, 0)])
        with pytest.raises(ReplayError) as exc:
            expected_cost_reached(partial, inst)
        assert str(exc.value) == _replay_error(partial, inst)

    def test_other_policies_raise(self, example_35):
        policy = ExactTablePolicy(solve_exact(example_35))
        with pytest.raises(ReplayError, match="no reached-state evaluator"):
            expected_cost_reached(policy, example_35)

    def test_state_cap(self):
        inst = make(2, [(3, [0.5] * 3), (1, [0.25] * 3)])
        with pytest.raises(SolverCapError,
                           match=r"^state cap exceeded \(\d+ states\)$"):
            expected_cost_reached(SeptPolicy(), inst, state_cap=5)
        assert expected_cost_reached(SeptPolicy(), inst, state_cap=100) == \
            expected_cost_reached(SeptPolicy(), inst)
