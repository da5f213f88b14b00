import hashlib
import inspect
import itertools
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernsched import cli, dp_exact
from bernsched.dp_exact import (
    LEVELS_MIN_NU,
    Diagnostics,
    ExactRule,
    Solution,
    SolverCapError,
    _solve_dfs,
    _solve_levels,
    solve_core,
    solve_exact,
)
from bernsched.dp_stratified import GridRule, solve_stratified
from bernsched.harness import ExperimentSpec, generate, prepare
from bernsched.instances import validate_and_canonicalize
from bernsched.numerics import SeedStream
from bernsched.policies import (
    ExactTablePolicy,
    ReplayError,
    SeptPolicy,
    SimView,
    StratifiedTablePolicy,
    expected_cost_exact,
    expected_cost_reached,
)
from bernsched.timegrid import GridError
from oracles import brute_force_oracle, deferring_oracle, idling_oracle


def make(machines, raw, epsilon="1/13"):
    return validate_and_canonicalize(machines, epsilon, raw)


def random_instance(rng, max_jobs=5, max_machines=3, sizes=(1, 2, 3, 5, 9),
                    qs=(0.25, 0.5, 0.75, 1.0)):
    n_jobs = int(rng.integers(1, max_jobs + 1))
    m = int(rng.integers(1, max_machines + 1))
    by_size = {}
    for _ in range(n_jobs):
        p = int(sizes[int(rng.integers(0, len(sizes)))])
        q = float(qs[int(rng.integers(0, len(qs)))])
        by_size.setdefault(p, []).append(q)
    return make(m, [(p, v) for p, v in by_size.items()])


@pytest.fixture(scope="module")
def separated_4x3x2():
    """``bernsched gen --types 4 --jobs 3 --machines 2 --seed 1``'s
    separated instance, its rounding and grid: 30,078 exact and 10,662
    grid states, 2,442 of them idle."""
    inst = generate(ExperimentSpec(n_types=4, jobs_per_type=3, machines=2,
                                   scheme="separated", count=1, seed=1))[0]
    rounded, _groups, grid, _ = prepare(inst)
    return inst, rounded, grid


class TestSolveExact:
    def test_two_job_example(self):
        inst = make(1, [(3, [0.5]), (1, [1.0])])
        sol = solve_exact(inst)
        assert sol.value == pytest.approx(3.5, abs=1e-9)
        # first decision: the deterministic unit job (type index 1)
        first = sol.policy[((Fraction(0),), (1, 1))]
        assert first == ("start", 1)

    def test_single_deterministic_job(self):
        assert solve_exact(make(1, [(5, [1.0])])).value == pytest.approx(5)

    def test_two_machines_independent(self):
        inst = make(2, [(3, [0.5]), (1, [1.0])])
        assert solve_exact(inst).value == pytest.approx(2.5)

    def test_cap(self):
        # the state cap is the solver's one guard; the oracles keep job caps
        inst = make(1, [(3, [0.5] * 5)])
        with pytest.raises(SolverCapError, match=r"^state cap exceeded \("):
            solve_exact(inst, state_cap=4)
        assert solve_exact(inst).states > 4
        for oracle, jobs in ((brute_force_oracle, 7), (idling_oracle, 5)):
            with pytest.raises(SolverCapError, match=(
                    rf"^job cap exceeded \({jobs} jobs > max_jobs {jobs - 1}\)$")):
                oracle(make(1, [(3, [0.5] * jobs)]))

    def test_1100_jobs(self):
        # deeper than Python's recursion limit; 605,550 = 1 + 2 + ... + 1100
        inst = make(1, [(1, [1.0] * 1100)])
        sol = solve_exact(inst)
        assert sol.value == 605_550
        assert sol.states == 605_550

    def test_deterministic_spt(self):
        # all q=1: shortest processing time first is optimal
        inst = make(1, [(5, [1.0]), (2, [1.0]), (9, [1.0])])
        spt = 2 + (2 + 5) + (2 + 5 + 9)
        assert solve_exact(inst).value == pytest.approx(spt)


class TestBruteForce:
    def test_matches_dp_on_example(self):
        inst = make(1, [(3, [0.5]), (1, [1.0])])
        assert brute_force_oracle(inst) == pytest.approx(3.5, abs=1e-9)

    def test_deterministic_spt_formula(self):
        inst = make(2, [(4, [1.0]), (2, [1.0]), (1, [1.0])])
        # SPT on 2 machines: starts 0,0 then shortest machine
        assert brute_force_oracle(inst) == pytest.approx(solve_exact(inst).value)

    def test_zero_jobs_not_representable(self):
        # empty instances are rejected upstream; single job is the floor
        inst = make(1, [(7, [0.25])])
        assert brute_force_oracle(inst) == pytest.approx(7 * 0.25)

    def test_agreement_random(self):
        for k in range(40):
            rng = SeedStream(101, k).generator()
            inst = random_instance(rng, max_jobs=4, max_machines=2)
            assert solve_exact(inst).value == pytest.approx(
                brute_force_oracle(inst), abs=1e-9
            ), f"disagreement on seed {k}"


class TestIdling:
    def test_idling_never_helps_example(self):
        inst = make(1, [(3, [0.5]), (1, [1.0])])
        assert idling_oracle(inst) == pytest.approx(3.5, abs=1e-9)

    def test_single_job(self):
        inst = make(1, [(5, [0.5])])
        assert idling_oracle(inst) == pytest.approx(2.5)

    def test_two_deterministic_m1(self):
        inst = make(1, [(3, [1.0]), (1, [1.0])])
        assert idling_oracle(inst) == pytest.approx(1 + 4)

    def test_agreement_random(self):
        for k in range(25):
            rng = SeedStream(202, k).generator()
            inst = random_instance(rng, max_jobs=4, max_machines=2)
            assert idling_oracle(inst) == pytest.approx(
                brute_force_oracle(inst), abs=1e-9
            ), f"idling helped on seed {k}"

    # past idling_oracle's 4 jobs: deferring the earliest machine to the
    # next availability never beats the exact DP
    @settings(max_examples=80, deadline=None)
    @given(machines=st.integers(2, 3),
           sizes=st.lists(st.sampled_from((1, 2, 3, 5, 9, 40, 169)),
                          min_size=2, max_size=3, unique=True),
           picks=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(
               (0.1, 0.25, 0.5, 0.75, 0.9, 1.0))), min_size=5, max_size=8))
    @example(machines=2, sizes=[169, 9, 1],
             picks=[(0, 0.5), (0, 0.5), (0, 0.25), (1, 0.75), (1, 0.75),
                    (1, 1.0), (2, 0.5), (2, 0.5), (2, 0.9), (2, 0.9)])
    def test_deferring_never_helps(self, machines, sizes, picks):
        by_size = {}
        for k, q in picks:
            by_size.setdefault(sizes[k % len(sizes)], []).append(q)
        inst = make(machines, list(by_size.items()))
        assert deferring_oracle(inst) == pytest.approx(
            solve_exact(inst).value, rel=1e-12)


class TestProperties:
    def test_scale_invariance(self):
        for k in range(10):
            rng = SeedStream(303, k).generator()
            inst = random_instance(rng, max_jobs=4, max_machines=2)
            sol = solve_exact(inst)
            for lam in (2, 7):
                scaled = validate_and_canonicalize(
                    inst.machines, inst.epsilon,
                    [(t.size * lam, list(t.qs)) for t in inst.types],
                )
                sol2 = solve_exact(scaled)
                assert sol2.value == pytest.approx(lam * sol.value, rel=1e-9)
                mapped = {
                    (tuple(x * lam for x in prof), nu): j
                    for (prof, nu), j in sol.policy.items()
                }
                assert mapped == sol2.policy

    def test_monotone_in_jobs(self):
        for k in range(10):
            rng = SeedStream(404, k).generator()
            inst = random_instance(rng, max_jobs=4, max_machines=2)
            if inst.total_jobs < 2:
                continue
            base = solve_exact(inst).value
            # drop the last job of the last type
            raw = [(t.size, list(t.qs)) for t in inst.types]
            if len(raw[-1][1]) == 1:
                raw = raw[:-1]
            else:
                raw[-1] = (raw[-1][0], raw[-1][1][:-1])
            smaller = validate_and_canonicalize(inst.machines, inst.epsilon, raw)
            assert solve_exact(smaller).value <= base + 1e-9

    def test_policy_covers_reachable_states(self):
        inst = make(2, [(3, [0.5, 0.5]), (1, [1.0])])
        sol = solve_exact(inst)
        assert ((Fraction(0), Fraction(0)), (2, 1)) in sol.policy


# non-dyadic decimals (their floats have 2**-55-scale denominators) and
# sizes that are not integers
instances = st.builds(
    lambda m, jobs: make(m, [(p, [q for p2, q in jobs if p2 == p])
                             for p in {p for p, _q in jobs}]),
    st.integers(1, 2),
    st.lists(st.tuples(st.sampled_from([Fraction(5, 13), 1, Fraction(3, 2), 4]),
                       st.sampled_from([0.1, 0.93, 0.5, 1.0])),
             min_size=1, max_size=4),
)

# sizes eps^-2 apart, in groups of their own: the grid DP idles on these
separated = st.builds(
    lambda m, jobs: make(m, [(p, [q for p2, q in jobs if p2 == p])
                             for p in {p for p, _q in jobs}]),
    st.integers(1, 2),
    st.lists(st.tuples(st.sampled_from([1, 169, 169 ** 2]),
                       st.sampled_from([0.25, 0.5, 1.0])),
             min_size=1, max_size=5),
)


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(instances)
    def test_solvers_match_oracle_and_replay(self, inst):
        exact = solve_exact(inst)
        assert exact.value == pytest.approx(brute_force_oracle(inst), abs=1e-9)
        assert expected_cost_exact(ExactTablePolicy(exact), inst) == \
            pytest.approx(exact.value, abs=1e-9)

        rounded, groups, grid, _ = prepare(inst)
        strat = solve_stratified(rounded, groups, grid)
        assert expected_cost_exact(StratifiedTablePolicy(strat, grid),
                                   rounded) == pytest.approx(strat.value, abs=1e-9)

        for table in (exact.policy, strat.policy):
            for profile, _nu in table:
                assert all(type(x) is Fraction for x in profile)


class TestSolution:
    @settings(max_examples=30, deadline=None)
    @given(st.one_of(instances, separated))
    @example(make(1, [(169, [0.25, 0.5]), (1, [0.25, 0.25])]))  # idles
    def test_one_type_with_diagnostics_on_demand(self, inst):
        exact = solve_exact(inst)
        rounded, groups, grid, _ = prepare(inst)
        for sol in (exact, solve_stratified(rounded, groups, grid)):
            assert type(sol) is Solution
            assert "diagnostics" not in vars(sol)
            # the figures straight from the table's integer states
            by_time = {}
            for (times, _nu), _decision in sol.policy.integer_items():
                by_time.setdefault(times[0], set()).add(times)
            expected = Diagnostics(
                relevant_time_points=len(by_time),
                max_profiles_per_timepoint=max(map(len, by_time.values())),
                states=len(sol.policy))
            d = sol.diagnostics
            assert "diagnostics" in vars(sol) and sol.diagnostics is d
            assert d == expected
            assert sol.states == len(sol.policy)
            # read from the arrays, equal to the figures of the sorted keys
            # that lookups search
            assert "_sorted" not in vars(sol.policy)
            table = sol.policy
            keys, _codes = table._sorted
            pids = {state // table._radix for state in keys}
            by_time = Counter(table._profiles[pid][0] for pid in pids)
            assert d == Diagnostics(len(by_time), max(by_time.values()),
                                    len(keys))
        assert exact.diagnostics.states == exact.states


class TestDecisionTable:
    @settings(max_examples=30, deadline=None)
    @given(instances)
    def test_reads_as_the_fraction_keyed_dict(self, inst):
        # the table keeps the core's integer states; read through its
        # Mapping surface it is the dict keyed by Fraction profiles
        exact = solve_exact(inst)
        rounded, groups, grid, _ = prepare(inst)
        strat = solve_stratified(rounded, groups, grid)
        for table, states, evaluated in (
                (exact.policy, exact.states, inst),
                (strat.policy, strat.diagnostics.states, rounded)):
            unit = table.unit
            plain = {(tuple(Fraction(t) / unit for t in profile), nu): d
                     for (profile, nu), d in table.integer_items()}
            assert dict(table.items()) == plain
            assert len(table) == len(plain) == states
            assert table == plain and plain == table
            for key, decision in plain.items():
                assert key in table
                assert table[key] == table.get(key) == decision

            # half a unit off the grid of the table: a missing state, and
            # the same ReplayError as the plain dict's
            (profile, nu), _decision = next(iter(plain.items()))
            off = tuple(t + Fraction(1, 2 * unit) for t in profile)
            assert (off, nu) not in table
            with pytest.raises(KeyError):
                table[off, nu]
            remaining = {(j, i) for j, c in enumerate(nu) for i in range(c)}
            view = SimView(list(off), 0, off[0], remaining, evaluated)
            messages = []
            for t in (table, plain):
                policy = ExactTablePolicy(SimpleNamespace(policy=t))
                with pytest.raises(ReplayError,
                                   match="missing from policy table") as exc:
                    policy.decide(view)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]

    @settings(max_examples=30, deadline=None)
    @given(instances)
    def test_counts_never_alias(self, inst):
        # a state is pid * NU + nid with nid in mixed radix: counts of the
        # wrong length, below zero or above the instance's must be missing
        # keys, never another state's nid
        exact = solve_exact(inst)
        rounded, groups, grid, _ = prepare(inst)
        strat = solve_stratified(rounded, groups, grid)
        for table, counts in ((exact.policy, inst.counts),
                              (strat.policy, rounded.counts)):
            plain = dict(table.items())
            box = itertools.product(*(range(-1, c + 3) for c in counts))
            nus = list(box) + [counts + (0,), counts + (1,), counts[:-1],
                               counts[1:], ()]
            for profile in {profile for profile, _nu in plain}:
                times = tuple(int(t * table.unit) for t in profile)
                for nu in nus:
                    assert table.get((profile, nu)) == plain.get((profile, nu))
                    assert table.integer_get((times, nu)) == plain.get(
                        (profile, nu))
            (profile, nu), _decision = next(iter(plain.items()))
            for bad in ((-1,) + nu[1:], (counts[0] + 1,) + nu[1:], nu + (0,)):
                assert_missing(table, plain, profile, bad)

    @pytest.mark.parametrize("solve", [_solve_dfs, _solve_levels])
    def test_reads_as_a_dict_does(self, solve):
        # keys() is the Mapping's view, and a key that is not a (profile,
        # counts) pair is missing, as it is from a dict
        inst = make(1, [(169, [0.25, 0.5]), (1, [0.25, 0.25])])  # idles
        for evaluated, rule in rules(inst):
            table = solve(evaluated, rule(), 10 ** 6).policy
            assert dict(table) == dict(table.items())
            assert list(table.keys()) == list(table)
            assert len(table.keys()) == len(table) > 0
            for bad in (5, "x", None, (), ("a", "b"), ((0,), 5)):
                assert bad not in table
                assert table.get(bad) is None and table.get(bad, 7) == 7
                with pytest.raises(KeyError):
                    table[bad]

    def test_keys_sorted_on_first_get(self, separated_4x3x2):
        # the digests are the sha256 of the sorted state=decision lines,
        # read through get, that the dict-backed table of an earlier
        # version gave: the exact solve and both traversals of the grid one
        inst, rounded, grid = separated_4x3x2
        exact = "020b9503181638a8ac3b2ede9a60fd4cda2c51add2ca629d1adf41a896edb6ee"
        strat = "5604134241cebf703d9e2f6bc449f5083c95901a5eeb171924bec9f9bbd4e3f6"
        for solve, digest in (
                (lambda: solve_exact(inst), exact),
                (lambda: _solve_dfs(rounded, GridRule(grid), 10 ** 6), strat),
                (lambda: _solve_levels(rounded, GridRule(grid), 10 ** 6),
                 strat)):
            sol = solve()
            table = sol.policy
            assert table.codes.dtype == np.uint8
            assert len(table) == sol.states == sol.diagnostics.states
            assert len(list(table.values())) == len(table)
            keys = list(table)
            assert "_sorted" not in vars(table)
            lines = sorted(f"{cli.state_to_str(key)}={table.get(key)}\n"
                           for key in keys)
            assert "_sorted" in vars(table)
            sorted_keys, _codes = table._sorted
            assert sorted_keys == sorted(table.state_keys.tolist())
            assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(instances, separated))
    @example(make(1, [(169, [0.25, 0.5]), (1, [0.25, 0.25])]))  # idles
    def test_every_count_vector_at_the_zero_profile(self, inst):
        # every type may start at 0, so each count vector with jobs left is
        # a state at the zero profile: NU - 1 states at least, the fact that
        # solve_core's up-front cap check rests on
        rounded, groups, grid, _ = prepare(inst)
        for sol, rule, evaluated in (
                (solve_exact(inst), ExactRule(inst), inst),
                (solve_stratified(rounded, groups, grid), GridRule(grid),
                 rounded)):
            counts = evaluated.counts
            assert tuple(rule.allowed(0)) == tuple(range(len(counts)))
            zero = (0,) * evaluated.machines
            nus = set(itertools.product(*(range(c + 1) for c in counts)))
            nus.discard((0,) * len(counts))
            at_zero = {nu for (times, nu), _d in sol.policy.integer_items()
                       if times == zero}
            assert at_zero == nus
            assert sol.states >= len(nus) == sol.policy._radix - 1

    def test_interned_profile_never_reached_with_jobs_left(self):
        # the long outcome of the only job leads to profile (3,) with no
        # jobs left: the core interns it, but no state with jobs left has it
        table = solve_exact(make(1, [(3, [0.5])])).policy
        assert dict(table.items()) == {((Fraction(0),), (1,)): ("start", 0)}
        for nu in ((0,), (1,)):
            assert_missing(table, {}, (Fraction(3),), nu)
        # on the unit, never interned
        assert_missing(table, {}, (Fraction(1),), (1,))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(instances, separated))
    @example(make(1, [(169, [0.25, 0.5]), (1, [0.25, 0.25])]))  # idles
    def test_keys_are_the_rules_reachable_states(self, inst):
        # walk the states with jobs left from the top one with the rule's
        # own transitions, independently of solve_core's bookkeeping
        rounded, groups, grid, _ = prepare(inst)
        for solve, rule, evaluated in (
                (lambda: solve_exact(inst), ExactRule(inst), inst),
                (lambda: solve_stratified(rounded, groups, grid),
                 GridRule(grid), rounded)):
            table = solve().policy
            walked = {}
            todo = [((0,) * evaluated.machines, evaluated.counts)]
            while todo:
                state = todo.pop()
                profile, nu = state
                if state in walked or not any(nu):
                    continue
                js = walked[state] = [j for j in rule.allowed(profile[0])
                                      if nu[j]]
                for j in js:
                    less = nu[:j] + (nu[j] - 1,) + nu[j + 1:]
                    todo += [(rule.after_long(profile, j), less),
                             (profile, less)]
                if not js:
                    h = rule.idle_group(nu)
                    todo.append((rule.after_idle(profile, h), nu))
            decided = dict(table.integer_items())
            assert decided.keys() == walked.keys()
            for state, decision in decided.items():
                if walked[state]:
                    assert decision[0] == "start" and decision[1] in walked[state]
                else:
                    assert decision == ("idle",)


def assert_missing(table, plain, profile, nu):
    """(profile, nu) is a missing key of table, with the ReplayError of the
    plain dict."""
    assert (profile, nu) not in table and (profile, nu) not in plain
    with pytest.raises(KeyError):
        table[profile, nu]
    view = SimpleNamespace(sorted_profile=lambda: profile, counts=lambda: nu)
    messages = []
    for t in (table, plain):
        with pytest.raises(ReplayError, match="missing from policy table") as exc:
            ExactTablePolicy(SimpleNamespace(policy=t)).decide(view)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


class StalledRule:
    """A rule that never lets a job start and idles in place: without a
    progress check the core would ask it again (and loop forever), so a
    second call fails the test instead of hanging it."""

    unit, sizes = 1, (1,)

    def __init__(self):
        self.calls = 0

    def allowed(self, t):
        return ()

    def after_long(self, profile, j):
        raise AssertionError("no type may start")

    def idle_group(self, nu):
        return 0

    def after_idle(self, profile, h):
        self.calls += 1
        assert self.calls == 1, "solve_core idled in place again"
        return profile


class TestIdleProgress:
    def test_idle_advance_in_place_is_an_error(self):
        with pytest.raises(GridError, match="idle advance stalled at 0/1"):
            solve_core(make(1, [(1, [0.5])]), StalledRule(), 100)

    @pytest.mark.parametrize("solve", [_solve_dfs, _solve_levels])
    def test_both_traversals_report_the_stall(self, solve):
        with pytest.raises(GridError, match=r"^idle advance stalled at 0/1$"):
            solve(make(1, [(1, [0.5])]), StalledRule(), 100)


# sizes near 2**52 in units: the costs outgrow int64, so the level
# traversal computes them in Python ints
huge = st.builds(
    lambda m, jobs: make(m, [(p, [q for p2, q in jobs if p2 == p])
                             for p in {p for p, _q in jobs}]),
    st.integers(1, 2),
    st.lists(st.tuples(st.sampled_from([2 ** 50, 3 * 2 ** 50, 5 * 2 ** 50]),
                       st.sampled_from([0.25, 0.5, 1.0])),
             min_size=1, max_size=5),
)


def rules(inst):
    """(instance, rule) for the exact solve and for the grid-restricted
    solve of the rounded instance."""
    rounded, _groups, grid, _ = prepare(inst)
    return ((inst, lambda: ExactRule(inst)),
            (rounded, lambda: GridRule(grid)))


def assert_same_solution(a, b):
    assert repr(a.value) == repr(b.value)
    assert len(a.policy) == len(b.policy)
    assert dict(a.policy.integer_items()) == dict(b.policy.integer_items())
    assert a.diagnostics == b.diagnostics


class TestTraversals:
    """``solve_core``'s depth-first and level traversals are one solver."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(instances, separated, huge))
    @example(make(2, [(1, [1.0]), (2, [1.0])]))  # every decision a tie
    @example(make(1, [(169, [0.25, 0.5]), (1, [0.25, 0.25])]))  # idles
    @example(make(2, [(2 ** 50, [0.25, 0.5]), (3 * 2 ** 50, [0.25, 0.25]),
                      (5 * 2 ** 50, [0.25])]))  # past int64
    # the widegap benchmark's shape: one machine, two types of two jobs,
    # size ratios 845 and 16,900; and the same on two machines
    @example(make(1, [(845 * 3, [0.25, 0.5]), (3, [0.75, 0.25])]))
    @example(make(1, [(16900 * 2, [0.5, 0.75]), (2, [0.25, 0.25])]))
    @example(make(2, [(845 * 3, [0.25, 0.5]), (3, [0.75, 0.25])]))
    @example(make(2, [(16900 * 2, [0.5, 0.75]), (2, [0.25, 0.25])]))
    # from 36 to 48 count vectors, below LEVELS_MIN_NU: the sweep's 2x5x2
    # (36), types of 5 and 6 jobs on three machines (42), of 3, 3 and 2
    # jobs (48), and one type of 47 jobs, the most jobs depth first takes
    @example(make(2, [(169 * 3, [0.25, 0.5, 0.75, 0.5, 0.25]),
                      (2, [0.5, 0.75, 0.25, 0.25, 0.5])]))
    @example(make(3, [(13 * 5, [0.75, 0.25, 0.5, 0.5, 0.25]),
                      (4, [0.5, 0.25, 0.75, 0.25, 1.0, 0.5])]))
    @example(make(2, [(169 * 2, [0.5, 0.25, 0.75]), (13, [0.25, 0.5, 0.5]),
                      (1, [0.75, 0.25])]))
    @example(make(2, [(3, [0.25, 0.5, 0.75, 1.0] * 11 + [0.5, 0.25, 0.75])]))
    def test_identical_solutions(self, inst):
        for evaluated, rule in rules(inst):
            assert_same_solution(_solve_dfs(evaluated, rule(), 10 ** 6),
                                 _solve_levels(evaluated, rule(), 10 ** 6))

    def test_width_changes_between_levels(self, separated_4x3x2):
        # level r computes in int64 while D**r * (r+1) * t_max + 1 < 2**62
        s = 128102389400760775
        tight = make(1, [(2 * s, [0.5]), (3 * s, [0.5, 0.5])])
        _inst, rounded, grid = separated_4x3x2
        for inst, rule, fits in (
                # level 2's costs pass 2**63: in int64 they would wrap
                (tight, ExactRule(tight), [True, False, False]),
                (rounded, GridRule(grid), [True] * 10 + [False] * 2)):
            levels = _solve_levels(inst, rule, 10 ** 6)
            _den, power, _qnum = dp_exact._numerators(inst)
            t_max = max(max(rule.sizes),
                        max(p[-1] for p in levels.policy._profiles))
            assert fits == [power[r] * (r + 1) * t_max + 1 < 2 ** 62
                            for r in range(1, inst.total_jobs + 1)]
            assert_same_solution(_solve_dfs(inst, rule, 10 ** 6), levels)

    def test_one_idle_advance_per_profile_and_group(self, separated_4x3x2):
        _inst, rounded, grid = separated_4x3x2
        calls = []

        class Counting(GridRule):
            def after_idle(self, profile, h):
                calls.append((profile, h))
                return super().after_idle(profile, h)

        table = _solve_levels(rounded, Counting(grid), 10 ** 6).policy
        idle = [(times, grid.idle_group(nu))
                for (times, nu), d in table.integer_items() if d == ("idle",)]
        assert len(idle) == 2442
        assert len(calls) == len(set(calls)) == len(set(idle)) == 530
        assert set(calls) == set(idle)

        # the depth-first traversal too, on separated 2x3x1 (16 count
        # vectors), whose grid solve idles at 6 (profile, group) pairs;
        # and both ask after_long at most once per (profile, type)
        small = generate(ExperimentSpec(n_types=2, jobs_per_type=3,
                                        scheme="separated", count=1,
                                        seed=1))[0]
        small_rounded, _groups, small_grid, _ = prepare(small)
        assert dp_exact._mixed_radix(small_rounded.counts)[1] < LEVELS_MIN_NU
        longs = []

        class CountingLong(Counting):
            def __init__(self, grid):
                super().__init__(grid)
                allowed = self.allowed  # GridRule's is an instance attribute
                self.allowed = lambda t: asked.append(t) or allowed(t)

            def after_long(self, profile, j):
                longs.append((profile, j))
                return super().after_long(profile, j)

        asked = []
        for solve, evaluated, on in (
                (_solve_dfs, small_rounded, small_grid),
                (_solve_levels, small_rounded, small_grid),
                (_solve_levels, rounded, grid)):
            calls.clear()
            longs.clear()
            asked.clear()
            table = solve(evaluated, CountingLong(on), 10 ** 6).policy
            idle = {(times, on.idle_group(nu)) for (times, nu), d
                    in table.integer_items() if d == ("idle",)}
            assert len(calls) == len(set(calls)) and set(calls) == idle
            assert len(longs) == len(set(longs))
            # the rule is asked which types start once per profile of a
            # state, however many of its states a level holds
            assert len(asked) == len({times for (times, _nu), _d
                                      in table.integer_items()})
            if evaluated is small_rounded:
                assert len(idle) == 6

    def test_chained_idle_advances(self):
        # an idle advance must lead to a state that starts a job: two
        # advances of one unit would lead from time 0 to 2, where the job
        # may start, but the first one's target at time 1 idles again
        class ChainRule:
            unit, sizes, calls = 1, (1,), 0

            def allowed(self, t):
                return (0,) if t >= 2 else ()

            def after_long(self, profile, j):
                return tuple(sorted(profile[1:] + (profile[0] + 1,)))

            def idle_group(self, nu):
                return 0

            def after_idle(self, profile, h):
                self.calls += 1
                return tuple(max(x, profile[0] + 1) for x in profile)

        for solve in (_solve_dfs, _solve_levels):
            rule = ChainRule()
            with pytest.raises(GridError,
                               match=r"^idle advance stalled at 0/1$"):
                solve(make(2, [(1, [0.5, 0.25])]), rule, 100)
            assert rule.calls == 1

    def test_same_cap_error(self):
        inst = make(2, [(3, [0.5, 0.25]), (1, [0.75, 0.5]), (2, [0.5])])
        for evaluated, rule in rules(inst):
            states = _solve_dfs(evaluated, rule(), 10 ** 6).states
            messages = []
            for solve in (_solve_dfs, _solve_levels):
                with pytest.raises(SolverCapError) as exc:
                    solve(evaluated, rule(), states - 2)
                messages.append(str(exc.value))
                for cap in (states - 1, states):
                    assert solve(evaluated, rule(), cap).states == states
            assert messages == [f"state cap exceeded ({states - 1} states)"] * 2

    def test_levels_cap_before_moves(self):
        # eight one-job types on one machine: 256 count vectors, and the
        # level with r jobs left holds C(8, r) * 2**(8 - r) states, so
        # 1 + 16 + 112 down to six jobs left and 448 more at five.  A cap of
        # 300 is met when level five's keys are known, before its moves
        # ask for a long child: only the profiles of the three levels above,
        # the sums of at most two sizes, are ever asked about
        inst = make(1, [(169 ** k, [0.5]) for k in range(8)])
        calls = []

        class CountingRule(ExactRule):
            def after_long(self, profile, j):
                calls.append(profile)
                return super().after_long(profile, j)

        with pytest.raises(SolverCapError,
                           match=r"^state cap exceeded \(301 states\)$"):
            _solve_levels(inst, CountingRule(inst), 300)
        assert len(calls) == 8 * len(set(calls)) == 8 * (1 + 8 + 28)

    # ids that do not change when LEVELS_MIN_NU moves
    @pytest.mark.parametrize("nu, cap, expected", [
        (LEVELS_MIN_NU - 1, 10 ** 6, ["_solve_dfs"]),
        (LEVELS_MIN_NU, 10 ** 6, ["_solve_levels"]),
        (LEVELS_MIN_NU, LEVELS_MIN_NU - 1, ["_solve_levels"]),
        # more count vectors with jobs left than states allowed: each is a
        # state at the zero profile, so the cap error comes before any work
        (LEVELS_MIN_NU, LEVELS_MIN_NU - 2, None)],
        ids=["below", "at", "at-cap-edge", "above-cap"])
    def test_picks_by_count_vectors(self, monkeypatch, nu, cap, expected):
        # one type with nu - 1 jobs has nu count vectors; the traversals
        # are stubs, and the rule records any attribute asked of it
        called = []
        for name in ("_solve_dfs", "_solve_levels"):
            monkeypatch.setattr(dp_exact, name,
                                lambda *args, name=name: called.append(name))

        class Untouched:
            def __getattr__(self, name):
                called.append(f"rule.{name}")

        inst = make(1, [(1, [0.5] * (nu - 1))])
        if expected is None:
            with pytest.raises(SolverCapError, match=rf"^state cap exceeded "
                                                     rf"\({cap + 1} states\)$"):
                solve_core(inst, Untouched(), cap)
            assert called == []
        else:
            solve_core(inst, Untouched(), cap)
            assert called == expected


class TestRecursionDepth:
    """Each frame of ``_solve_dfs`` starts a job or idles to a state that
    starts one, so a solve with N jobs recurses at most 2N + 1 frames
    deep, and ``solve_core`` sends it at most LEVELS_MIN_NU - 2 = 47 jobs,
    at most 95 frames."""

    #: frames above and below the recursion: ``solve_core``, the
    #: traversal, and the rule's calls from the deepest frame
    MARGIN = 12

    # the most jobs below LEVELS_MIN_NU count vectors are one type's
    # LEVELS_MIN_NU - 2; twenty-three jobs of size 169 = eps**-2 and one of
    # size 1 on two machines have 48 count vectors, the most jobs an
    # instance whose grid idles takes depth first
    @pytest.mark.parametrize("raw, grid, idles", [
        ([(1, [0.5] * (LEVELS_MIN_NU - 2))], False, False),
        ([(1, [0.5] * (LEVELS_MIN_NU - 2))], True, False),
        ([(169, [0.5] * 23), (1, [0.5])], True, True)],
        ids=["exact", "grid", "idles"])
    def test_deepest_depth_first_solves(self, raw, grid, idles):
        inst, rule = rules(make(2, raw))[grid]
        assert dp_exact._mixed_radix(inst.counts)[1] < LEVELS_MIN_NU
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 2 * inst.total_jobs
                              + 1 + self.MARGIN)
        try:
            sol = solve_core(inst, rule(), 10 ** 6)
        finally:
            sys.setrecursionlimit(limit)
        assert_same_solution(sol, _solve_levels(inst, rule(), 10 ** 6))
        assert (("idle",) in set(sol.policy.values())) == idles


class TestOneMachine:
    """On one machine no policy beats SEPT, so the exact value is SEPT's
    expected cost to the float bit under either traversal, far past the
    brute-force oracle's reach: one type of 47 jobs, the most depth first
    takes, and two and three types with 36 to 48 count vectors."""

    @staticmethod
    def seeded(k, n_types):
        rng = SeedStream(505, k).generator()
        counts = (0,)
        while not 36 <= dp_exact._mixed_radix(counts)[1] <= 48:
            counts = [int(c) for c in rng.integers(1, 24, n_types)]
        sizes = rng.permutation(
            ["1", "2", "3", "5/3", "7/2", "13/3", "9", "169"])[:n_types]
        qs = (0.25, 0.5, 0.75, 1.0)
        return make(1, [(Fraction(str(p)),
                         [qs[int(i)] for i in rng.integers(0, 4, c)])
                        for p, c in zip(sizes, counts)])

    @pytest.mark.parametrize("solve", [_solve_dfs, _solve_levels])
    def test_exact_is_sept(self, solve):
        cases = [make(1, [(3, [0.25, 0.5, 0.75, 1.0] * 11
                           + [0.5, 0.25, 0.75])])]
        cases += [self.seeded(k, n) for n in (2, 3) for k in range(8)]
        for inst in cases:
            want = float(expected_cost_reached(SeptPolicy(), inst))
            got = solve(inst, ExactRule(inst), 10 ** 6).value
            assert repr(got) == repr(want), inst.counts

    @pytest.mark.parametrize("counts", [(50, 10), (30, 30)])
    def test_exact_is_sept_past_depth_first(self, counts):
        """ROADMAP item 16's equality past the depth-first bound: two
        types of 60 jobs in all (86,955 and 189,930 states), which
        ``solve_exact`` hands to the level traversal."""
        qs = (0.25, 0.5, 0.75, 1.0)
        inst = make(1, [(p, [qs[i % 4] for i in range(c)])
                        for p, c in zip((Fraction(13, 3), 2), counts)])
        assert dp_exact._mixed_radix(inst.counts)[1] >= LEVELS_MIN_NU
        want = float(expected_cost_reached(SeptPolicy(), inst))
        assert repr(solve_exact(inst).value) == repr(want)


@given(machines=st.integers(2, 4),
       jobs=st.dictionaries(st.integers(1, 59), st.integers(1, 6),
                            min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_exact_is_spt_when_every_q_is_one(machines, jobs):
    """With every q = 1 the instance is a deterministic P||ΣC_j, which SPT
    solves exactly (Conway, Maxwell and Miller, *Theory of Scheduling*,
    1967), and SEPT is SPT: on any number of machines the exact value is
    SEPT's to the float bit, under either traversal."""
    inst = make(machines, [(p, [1.0] * c) for p, c in jobs.items()])
    want = float(expected_cost_reached(SeptPolicy(), inst))
    for solve in (_solve_dfs, _solve_levels):
        got = solve(inst, ExactRule(inst), 10 ** 6).value
        assert repr(got) == repr(want), solve.__name__
