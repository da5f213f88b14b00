import gc
import math
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsched import policies
from bernsched.dp_exact import DecisionTable, SolverCapError, solve_exact
from bernsched.dp_stratified import solve_stratified
from bernsched.harness import ExperimentSpec, generate, prepare
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
)
from oracles import validate_schedule


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


    @pytest.mark.parametrize("decide, message", [
        (lambda view: ("start", (0, 0)),
         "policy started unavailable job (0, 0)"),
        (lambda view: ("pause",), "unknown decision ('pause',)"),
        (lambda view: ("retire",), "all machines retired with jobs remaining"),
        (lambda view: ("advance", view.t_star + 1), "replay did not terminate"),
    ], ids=["restart", "unknown", "retire", "advance"])
    def test_guards(self, example_35, decide, message):
        # a policy that starts a started job, answers what replay does not
        # know, retires its last machine with jobs left, or never starts
        # anything is stopped, each with its own message
        stub = type("Stub", (policies.Policy,),
                    {"decide": staticmethod(decide)})()
        with pytest.raises(ReplayError) as exc:
            replay(stub, example_35, {j: True for j in example_35.job_ids()})
        assert str(exc.value) == message


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
        # a float or a bool is no trial count, not even 2.0 or True
        for trials in (0, 2.0, True):
            with pytest.raises(ReplayError):
                expected_cost_mc(SeptPolicy(), example_35, trials=trials,
                                 seed=0)

    @pytest.mark.parametrize("block", [policies._BLOCK, 5, 1])
    def test_one_stream_per_call(self, block, monkeypatch):
        # trial i is the (i+1)-th sample_realization on one stream, in
        # blocks of any size, so fewer trials are a prefix of more
        inst = make(2, [(3, [0.25, 0.75]), (1, [0.5, 0.93, 1.0])])
        monkeypatch.setattr(policies, "_BLOCK", block)
        rng = SeedStream(11).generator()
        want = [list(sample_realization(inst, rng).values())
                for _ in range(23)]
        for trials in (23, 7, 1):
            rows = np.vstack(list(policies._trial_blocks(inst, trials, 11)))
            assert rows.tolist() == want[:trials]

    @pytest.mark.parametrize("e", [30, 40, 50])
    def test_stderr_on_large_means(self, e):
        # costs 2**e + 2 and 2**e, each in about half the trials, have a
        # sample variance near 1, which sums of squares near 2**(2e)
        # cannot hold; sums about the first trial's cost keep it
        inst = make(1, [(2**e, [1.0]), (1, [0.5])])
        trials, seed = 2000, 3
        rng = SeedStream(seed).generator()
        costs = [replay(SeptPolicy(), inst, sample_realization(inst, rng))
                 .total_cost for _ in range(trials)]
        mean = sum(costs) / trials
        var = sum((c - mean) ** 2 for c in costs) / (trials - 1)
        want = math.sqrt(var / trials)
        got_mean, got = expected_cost_mc(SeptPolicy(), inst, trials, seed)
        assert got == pytest.approx(want, rel=1e-9)
        truth = expected_cost_exact(SeptPolicy(), inst)
        assert truth == 2**e + 1
        assert abs(got_mean - truth) <= 4 * got

    def test_golden_bits(self):
        # (mean, stderr) as float.hex, pinned from the one-stream sampler;
        # 20,000 trials are two trial blocks
        inst, = generate(ExperimentSpec(n_types=2, jobs_per_type=3,
                                        machines=2, count=1, seed=1))
        (exact, _), (stratified, rounded) = _table_cases(inst)
        want = {
            "sept": ("0x1.e1aee7d566cf4p+9", "0x1.ad23b5952c7fdp+1"),
            "exact": ("0x1.e174e219652bdp+9", "0x1.adef2f5c919b4p+1"),
            "stratified": ("0x1.eed736d5e3828p+9", "0x1.e23c14aee1d74p+1"),
        }
        cases = {"sept": (SeptPolicy(), inst), "exact": (exact, inst),
                 "stratified": (stratified, rounded)}
        assert 20_000 > policies._BLOCK
        for name, (policy, case_inst) in cases.items():
            mean, stderr = expected_cost_mc(policy, case_inst, 20_000, 7)
            assert (mean.hex(), stderr.hex()) == want[name], name


def _criterion11_instance(k):
    """Instance k of acceptance criterion 11: up to three jobs of sizes
    1-9 on up to two machines, drawn from ``SeedStream(121212, k)``."""
    rng = SeedStream(121212, k).generator()
    n_jobs = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    by_size = {}
    for _ in range(n_jobs):
        p = (1, 2, 3, 5, 9)[int(rng.integers(0, 5))]
        q = (0.25, 0.5, 0.75, 1.0)[int(rng.integers(0, 4))]
        by_size.setdefault(p, []).append(q)
    return make(m, list(by_size.items()))


class TestWorkloadBits:
    """(mean, stderr) as float.hex of SEPT, fixed assignment and the list
    of the jobs in reverse ``job_ids`` order at 2,000 trials, seed k, on
    criterion 11's instance k: Monte-Carlo at the shapes of one sampling
    pass, pinned from the one-stream sampler."""

    want = {
        0: (("0x1.83020c49ba5e3p+1", "0x1.142c882eea8ffp-5"),
            ("0x1.99cac083126e9p+1", "0x1.1c6f5463ddb18p-5"),
            ("0x1.99cac083126e9p+1", "0x1.1c6f5463ddb18p-5")),
        1: (("0x1.1df7ced916872p+3", "0x1.26cab03055507p-3"),
            ("0x1.3353f7ced9168p+3", "0x1.3739e79f75a4ap-3"),
            ("0x1.1df7ced916872p+3", "0x1.26cab03055507p-3")),
        2: (("0x1.0000000000000p+0", "0x0.0p+0"),) * 3,
        3: (("0x1.5ed916872b021p+2", "0x1.3974103bcfbe0p-6"),) * 3,
        4: (("0x1.46e978d4fdf3cp+2", "0x1.12a899effd2cdp-4"),
            ("0x1.46e978d4fdf3cp+2", "0x1.12a899effd2cdp-4"),
            ("0x1.6374bc6a7ef9ep+2", "0x1.12a899effd2cdp-5")),
        5: (("0x1.4947ae147ae14p+1", "0x1.c9de5c5143873p-5"),) * 3,
        6: (("0x1.853b645a1cac0p+4", "0x1.c5a0fb9a3b49cp-3"),
            ("0x1.853b645a1cac0p+4", "0x1.c5a0fb9a3b49cp-3"),
            ("0x1.aa3d70a3d70a4p+4", "0x1.a4800efebadf6p-3")),
        7: (("0x1.b2b020c49ba5ep+1", "0x1.78ef3748761a7p-5"),
            ("0x1.e45a1cac08312p+1", "0x1.afa963e116b68p-5"),
            ("0x1.b2b020c49ba5ep+1", "0x1.78ef3748761a7p-5")),
        8: (("0x1.2189374bc6a7fp+1", "0x1.d977147aa8343p-6"),) * 3,
        9: (("0x1.82e147ae147aep+3", "0x1.333e7a1e238c6p-5"),) * 3,
    }

    @pytest.mark.parametrize("k", range(10))
    def test_golden_bits(self, k):
        inst = _criterion11_instance(k)
        cases = (SeptPolicy(), FixedAssignmentPolicy(),
                 ListPolicy(inst.job_ids()[::-1]))
        got = tuple(tuple(x.hex() for x in expected_cost_mc(policy, inst,
                                                            2000, k))
                    for policy in cases)
        assert got == self.want[k]


class TestSept:
    def test_order_on_example(self, example_35):
        order = sept_order(example_35)
        assert order == [(1, 0), (0, 0)]  # E=1 before E=1.5

    def test_tie_breaks_by_type_index(self):
        inst = make(1, [(4, [0.5]), (2, [1.0])])  # both E=2
        assert sept_order(inst) == [(0, 0), (1, 0)]

    def test_exact_ties_do_not_depend_on_scale(self):
        # q*p = 5/24 for all three jobs, but in floats 1/3 * 0.625 falls
        # below 5/3 * 0.125; scaled by 3 the products tie in floats too
        small = make(2, [(Fraction(5, 3), [0.125]),
                         (Fraction(1, 3), [0.625, 0.625])])
        scaled = make(2, [(5, [0.125]), (1, [0.625, 0.625])])
        assert sept_order(small) == sept_order(scaled) \
            == [(0, 0), (1, 0), (1, 1)]
        assert expected_cost_reached(SeptPolicy(), scaled) \
            == 3 * expected_cost_reached(SeptPolicy(), small)

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
    rng = SeedStream(seed).generator()
    costs = [float(replay(policy, inst, sample_realization(inst, rng))
                   .total_cost) for _ in range(trials)]
    first = costs[0]
    shifted = shifted_sq = 0.0
    for cost in costs:
        shifted += cost - first
        shifted_sq += (cost - first) * (cost - first)
    mean = first + shifted / trials
    if trials == 1:
        return mean, 0.0
    var = max(0.0, (shifted_sq - shifted * shifted / trials) / (trials - 1))
    return mean, math.sqrt(var / trials)


# equal and non-integer sizes, non-dyadic q, and m from 1 to 8, below and
# above N; the second kind of job list has 2-6 jobs of one size with q = 1
# (and up to two with q = 0.5), so the list kernel's lanes meet ties
fixed_order_sizes = st.sampled_from([Fraction(5, 13), 1, Fraction(3, 2), 4])
fixed_order_jobs = st.lists(
    st.tuples(fixed_order_sizes,
              st.sampled_from([0.1, 0.25, 0.5, 0.93, 1.0])),
    min_size=1, max_size=6)
fixed_order_instances = st.builds(
    lambda m, jobs: make(m, [(p, [q for p2, q in jobs if p2 == p])
                             for p in {p for p, _q in jobs}]),
    st.integers(1, 8),
    st.one_of(fixed_order_jobs,
              st.builds(lambda p, n, rest: [(p, 1.0)] * n + rest,
                        fixed_order_sizes, st.integers(2, 6),
                        st.lists(st.tuples(fixed_order_sizes,
                                           st.just(0.5)), max_size=2))),
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
        rng = SeedStream(2).generator()
        distinct = len({tuple(sample_realization(inst, rng).values())
                        for _ in range(30)})
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
        rng = SeedStream(seed).generator()
        for _ in range(trials):
            real = sample_realization(inst, rng)
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

    def test_idle_target_that_idles_replays(self):
        # a big job first: when it is long, a small job later leads to the
        # idle state at 235 or 236, whose advance targets 252.  Marked
        # idle, that target idles a second time in a row: replay raises,
        # as the target is already in the idle group's Q-set
        policy, inst = _idling_cases()[1]
        table = dict(policy.table.items())
        idle, target = ((Fraction(235),), (1, 0)), ((Fraction(252),), (1, 0))
        assert (table[idle], table[target]) == (("idle",), ("start", 0))
        table[(Fraction(0),), inst.counts] = ("start", 0)
        table[target] = ("idle",)
        policy.table = table
        # the first three trials of seed 2 never reach the idle state, so
        # they have replay's results; the first forty do, so its error
        for trials, reached in ((3, False), (40, True)):
            want = _outcome(_scalar_mc, policy, inst, trials, 2)
            assert (want[0] is ReplayError) == reached
            _assert_table_outcomes_equal_replay(policy, inst, trials, 2)
        with pytest.raises(ReplayError,
                           match=r"^advance to 252 does not progress$"):
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


class TestIntegerReads:
    """The table kernel reads a solver's table on integer states; a
    ``Fraction``-keyed dict of the same decisions is read through ``get``
    and gives the same bits."""

    # expected_cost_exact, pinned from reads through ``get``, and
    # expected_cost_mc's (mean, stderr) at 2,000 trials and seed 7, pinned
    # from the one-stream sampler, as float.hex
    want = {
        "exact": ("0x1.e054000000000p+9", "0x1.e3d48b4395810p+9",
                  "0x1.58bb54d887e4cp+3"),
        "stratified": ("0x1.ed70d719c060fp+9", "0x1.f1be607c7ac87p+9",
                       "0x1.82fdc996a1553p+3"),
    }

    @staticmethod
    def _no_get(*args):
        raise AssertionError("DecisionTable.get called")

    @staticmethod
    def _bits(policy, inst):
        mean, stderr = expected_cost_mc(policy, inst, 2000, 7)
        return (expected_cost_exact(policy, inst).hex(), mean.hex(),
                stderr.hex())

    def test_solver_tables_bypass_get(self):
        inst, = generate(ExperimentSpec(n_types=2, jobs_per_type=3,
                                        machines=2, count=1, seed=1))
        cases = zip(("exact", "stratified"), _table_cases(inst))
        for name, (policy, case_inst) in cases:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(DecisionTable, "get", self._no_get)
                assert self._bits(policy, case_inst) == self.want[name], name
            policy.table = dict(policy.table.items())
            assert self._bits(policy, case_inst) == self.want[name], name


class TestKeptSteps:
    """A solver's table keeps its kernel steps on the policy while its
    table, the instance and the grid stay the same objects: a second call
    reads no state, and a change of any of the three starts afresh."""

    def test_second_calls_read_no_state(self, monkeypatch):
        armed = []
        integer_get = DecisionTable.integer_get

        def read_once(table, key, default=None):
            if armed:
                raise AssertionError("DecisionTable.integer_get called")
            return integer_get(table, key, default)
        monkeypatch.setattr(DecisionTable, "integer_get", read_once)
        inst, = generate(ExperimentSpec(n_types=2, jobs_per_type=3,
                                        machines=2, count=1, seed=1))
        cases = zip(("exact", "stratified"), _table_cases(inst))
        for name, (policy, case_inst) in cases:
            armed.clear()
            first = TestIntegerReads._bits(policy, case_inst)
            armed.append(True)
            second = TestIntegerReads._bits(policy, case_inst)
            assert first == second == TestIntegerReads.want[name], name

    @staticmethod
    def _count_walked(monkeypatch):
        """A list that gets the number of rows of every call of a cost
        function through either grouping, which the table kernel's walk
        takes only for rows its memo has not priced."""
        walked = []

        def counting(group):
            def counted(cost, outcomes, codes=None):
                def cost_counted(rows):
                    walked.append(len(rows))
                    return cost(rows)
                return group(cost_counted, outcomes, codes)
            return counted
        for name in ("_per_distinct_row", "_each_row"):
            monkeypatch.setattr(policies, name,
                                counting(getattr(policies, name)))
        return walked

    def test_repeat_calls_walk_no_row(self, monkeypatch):
        walked = self._count_walked(monkeypatch)
        inst, = generate(ExperimentSpec(n_types=2, jobs_per_type=3,
                                        machines=2, count=1, seed=1))
        cases = zip(("exact", "stratified"), _table_cases(inst),
                    _table_cases(inst))
        for name, (policy, case_inst), (enumerated, _) in cases:
            exact, mean, stderr = TestIntegerReads.want[name]
            walked.clear()
            first = expected_cost_mc(policy, case_inst, 2000, 7)
            assert walked, name
            walked.clear()
            assert expected_cost_mc(policy, case_inst, 2000, 7) == first
            assert not walked, name
            # enumeration prices every outcome vector that trials draw
            assert expected_cost_exact(enumerated, case_inst).hex() == exact
            walked.clear()
            got = expected_cost_mc(enumerated, case_inst, 2000, 7)
            assert not walked, name
            assert tuple(x.hex() for x in got) == (mean, stderr) == tuple(
                x.hex() for x in first), name

    @staticmethod
    def _copy(policy, table):
        """A new policy of ``policy``'s kind on ``table``, nothing kept."""
        solution = SimpleNamespace(policy=table)
        if type(policy) is StratifiedTablePolicy:
            return StratifiedTablePolicy(solution, policy.grid)
        return ExactTablePolicy(solution)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_memo_equals_fresh_and_dict_tables(self, data):
        # one policy priced run after run, with or without an enumeration
        # first, gives a fresh policy's bits and its dict table's
        inst = data.draw(kernel_table_instances)
        runs = data.draw(st.lists(st.tuples(st.integers(1, 300),
                                            st.integers(0, 2**32)),
                                  min_size=1, max_size=3))
        enumerate_first = data.draw(st.booleans())
        block = data.draw(st.sampled_from([policies._BLOCK, 5]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policies, "_BLOCK", block)
            for policy, case_inst in _table_cases(inst):
                if enumerate_first:
                    expected_cost_exact(policy, case_inst)
                as_dict = dict(policy.table.items())
                for trials, seed in runs:
                    got = expected_cost_mc(policy, case_inst, trials, seed)
                    for other in (self._copy(policy, policy.table),
                                  self._copy(policy, as_dict)):
                        assert expected_cost_mc(other, case_inst, trials,
                                                seed) == got
                assert expected_cost_exact(policy, case_inst) == \
                    expected_cost_exact(self._copy(policy, as_dict),
                                        case_inst)

    def test_small_tables_keep_no_memo(self, monkeypatch):
        # one type of 12 jobs on one machine: 78 states, 2**12 vectors
        inst = make(1, [(3, [0.25, 0.5, 0.75] * 4)])
        walked = self._count_walked(monkeypatch)
        for policy, case_inst in _table_cases(inst):
            assert len(policy.table) < 1 << case_inst.total_jobs
            as_dict = self._copy(policy, dict(policy.table.items()))
            want = (expected_cost_exact(as_dict, case_inst),
                    expected_cost_mc(as_dict, case_inst, 2000, 3))
            for _ in range(2):  # every call walks its rows
                walked.clear()
                assert (expected_cost_exact(policy, case_inst),
                        expected_cost_mc(policy, case_inst, 2000, 3)) == want
                assert walked
            assert policy._walk[3].memo is None
        assert expected_cost_mc(policy, case_inst, 40, 3) == \
            _scalar_mc(policy, case_inst, 40, 3)

    @staticmethod
    def _changed(change):
        """(policy evaluated once, then changed; a fresh policy of the
        change; the instance to evaluate both on; the first result)."""
        first = make(2, [(3, [0.25, 0.75]), (1, [0.5, 1.0])])
        solution = solve_exact(first)
        if change == "grid":  # the same sizes on a grid of another epsilon
            raw = [(169, [0.25, 0.5]), (1, [0.25, 0.93])]
            rounded, groups, grid, _ = prepare(make(1, raw))
            solution = solve_stratified(rounded, groups, grid)
            other = prepare(make(1, raw, "1/2"))[2]
            policy = StratifiedTablePolicy(solution, grid)
            before = _outcome(expected_cost_exact, policy, rounded)
            policy.grid = other
            return (policy, StratifiedTablePolicy(solution, other), rounded,
                    before)
        policy = ExactTablePolicy(solution)
        before = _outcome(expected_cost_exact, policy, first)
        if change == "table":  # other probabilities, other decisions
            table = solve_exact(make(2, [(3, [0.75, 0.75]),
                                         (1, [0.05, 0.5])])).policy
            policy.table = table
            return (policy, ExactTablePolicy(SimpleNamespace(policy=table)),
                    first, before)
        assert change == "instance"  # one job fewer: other columns
        return (policy, ExactTablePolicy(solution),
                make(2, [(3, [0.75]), (1, [0.5, 1.0])]), before)

    @pytest.mark.parametrize("change", ["table", "instance", "grid"])
    def test_changed_inputs_equal_a_fresh_policy(self, change):
        policy, fresh, inst, before = self._changed(change)
        for evaluate, args in ((expected_cost_exact, ()),
                               (expected_cost_mc, (200, 4))):
            want = _outcome(evaluate, fresh, inst, *args)
            assert _outcome(evaluate, policy, inst, *args) == want
        assert _outcome(expected_cost_exact, fresh, inst) != before

    def test_failing_table_replays_on_every_call(self, monkeypatch):
        # a grid table read as an exact one: its idle states, and the
        # states that exact long jobs reach, make the kernel replay, and
        # replay raises; on a table whose totals exceed 2**53 replay
        # gives every cost.  Either way the memo keeps no cost of a block
        # that replays
        grid_table, inst = _idling_cases()[1]
        big = make(2, [(2**60, [0.5, 0.25]), (3 * 2**58, [0.75]),
                       (Fraction(2**60, 3), [0.5])])
        cases = [(ExactTablePolicy(SimpleNamespace(policy=grid_table.table)),
                  inst), (ExactTablePolicy(solve_exact(big)), big)]
        wants = []
        for policy, inst in cases:
            want = [_outcome(_scalar_exact, policy, inst),
                    _outcome(_scalar_mc, policy, inst, 40, 1)]
            wants.append(want)
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(policies, "replay", _counting_replay(calls))
                for _ in range(2):
                    calls.clear()
                    got = [_outcome(expected_cost_exact, policy, inst),
                           _outcome(expected_cost_mc, policy, inst, 40, 1)]
                    assert got == want
                    assert calls
                    memo = policy._walk[3].memo
                    assert len(memo) == 1 << inst.total_jobs
                    assert np.isnan(memo).all()
        (grid_exact, _), (big_exact, (big_mean, _)) = wants
        assert grid_exact[0] is ReplayError
        assert isinstance(big_exact, float) and isinstance(big_mean, float)

    def test_dict_tables_are_read_on_every_call(self):
        reads = []

        class Counted(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)
        for policy, inst in _idling_cases():
            policy.table = Counted(policy.table.items())
            counts = []
            for _ in range(2):
                reads.clear()
                expected_cost_mc(policy, inst, 60, 3)
                counts.append(len(reads))
            assert counts[0] == counts[1] > 0

    def test_dropped_policy_frees_its_steps(self):
        cases = _idling_cases()
        while cases:  # the last reference to each policy is the name
            policy, inst = cases.pop()
            expected_cost_exact(policy, inst)
            kept = weakref.ref(policy._walk[3])  # the walk and its steps
            memo = weakref.ref(policy._walk[3].memo)
            gc.disable()
            try:
                del policy
                assert kept() is None
                assert memo() is None
            finally:
                gc.enable()


class TestPerDistinctRow:
    """``_per_distinct_row`` calls the cost function once, on the distinct
    rows in order of first occurrence, and gives each row its cost."""

    @pytest.mark.parametrize("columns", [st.integers(1, 62),
                                         st.integers(63, 70)],
                             ids=["int-code", "packbits"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_call_on_distinct_rows(self, columns, data):
        width = data.draw(columns)
        row = st.lists(st.booleans(), min_size=width, max_size=width)
        pool = data.draw(st.lists(row, min_size=1, max_size=6))
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=30))
        outcomes = np.array(picks, dtype=bool)

        def cost(rows):
            return np.array([float(int("".join("01"[b] for b in r), 2) % 10007)
                             for r in rows.tolist()])

        calls = []

        def counted(rows):
            calls.append(rows.tolist())
            return cost(rows)

        got = policies._per_distinct_row(counted, outcomes)
        first = [list(r) for r in dict.fromkeys(map(tuple, picks))]
        assert calls == [first]
        assert got.tolist() == cost(outcomes).tolist()

    def test_enumeration_does_not_group(self, monkeypatch):
        # enumeration yields each outcome vector once, so the table
        # kernel, its replay fallback and replay itself take its rows as
        # they are, with the default blocks and with blocks of five
        def cases():
            inst = make(2, [(169, [0.25, 0.5, 0.75]), (1, [0.25, 0.93])])
            tables = _table_cases(inst)
            failing = ExactTablePolicy(SimpleNamespace(
                policy=tables[1][0].table))  # a grid table read as exact

            class Replayed(ListPolicy):  # a policy no kernel takes
                pass
            jobs = inst.job_ids()
            copies = [(TestKeptSteps._copy(p, dict(p.table.items())), i)
                      for p, i in tables]  # dict tables, as from a file
            return tables + copies + [
                (failing, inst), (Replayed(jobs[::-1]), inst),
                (ListPolicy(jobs[1:]), inst), (SeptPolicy(), inst)]
        want = [_outcome(_scalar_exact, p, i) for p, i in cases()]
        assert sum(isinstance(w, tuple) for w in want) == 2  # two fail

        def no_grouping(*args):
            raise AssertionError("_per_distinct_row called")
        monkeypatch.setattr(policies, "_per_distinct_row", no_grouping)
        for block in (policies._BLOCK, 5):
            monkeypatch.setattr(policies, "_BLOCK", block)
            assert [_outcome(expected_cost_exact, p, i)
                    for p, i in cases()] == want

    def test_wide_rows_equal_per_trial_replay(self, monkeypatch):
        # 70 columns group by packbits; no benchmark input is that wide
        qs = [(0.25, 0.5, 0.75)[k % 3] for k in range(70)]
        inst = make(2, [(3, qs)])
        policy = ExactTablePolicy(solve_exact(inst))
        # the reference replays through this module's own binding
        monkeypatch.setattr(policies, "replay", _no_replay)
        _assert_mc_equals_per_trial(policy, inst, 200, 5)


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
