from fractions import Fraction

import pytest

from bernsched.dp_exact import solve_exact
from bernsched.dp_stratified import (
    GridRule,
    profiles_per_timepoint_ceiling,
    sandwich_bound,
    solve_stratified,
    time_point_ceiling,
)
from bernsched.harness import ExperimentSpec, generate, prepare
from bernsched.instances import validate_and_canonicalize
from bernsched.numerics import SeedStream


def make(machines, raw, epsilon="1/13"):
    return validate_and_canonicalize(machines, epsilon, raw)


def after_long(profile, j, grid):
    """GridRule.after_long on Fraction times."""
    rule = GridRule(grid)
    out = rule.after_long(tuple(int(x * rule.unit) for x in profile), j)
    return tuple(Fraction(x, rule.unit) for x in out)


def after_idle(profile, nu, grid):
    """GridRule.after_idle on Fraction times, to counts nu's idle group."""
    rule = GridRule(grid)
    out = rule.after_idle(tuple(int(x * rule.unit) for x in profile),
                          rule.idle_group(nu))
    return tuple(Fraction(x, rule.unit) for x in out)


def separated_instance(rng, n_max=2, jobs_max=6, m_max=3):
    """Sizes separated by at least eps^-2 = 169 between consecutive types."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    sizes = []
    p = int(rng.integers(1, 5))
    for _ in range(n):
        sizes.append(p)
        p *= 169 * int(rng.integers(1, 3))
    sizes.reverse()
    total = int(rng.integers(n, jobs_max + 1))
    counts = [1] * n
    for _ in range(total - n):
        counts[int(rng.integers(0, n))] += 1
    qs = (0.25, 0.5, 0.75, 1.0)
    raw = []
    for p, c in zip(sizes, counts):
        raw.append((p, [float(qs[int(rng.integers(0, 4))]) for _ in range(c)]))
    return make(m, raw)


@pytest.fixture(scope="module")
def one_type():
    inst = make(1, [(169, [1.0, 1.0])])
    rounded, groups, grid, _ = prepare(inst)
    return inst, rounded, groups, grid


class TestHandWorked:
    def test_value_572(self, one_type):
        inst, rounded, groups, grid = one_type
        sol = solve_stratified(rounded, groups, grid)
        assert sol.value == pytest.approx(572.0, abs=1e-9)

    def test_ratio_within_bound(self, one_type):
        inst, rounded, groups, grid = one_type
        exact = solve_exact(inst).value
        strat = solve_stratified(rounded, groups, grid).value
        assert exact == pytest.approx(507.0)
        bound = float(sandwich_bound(1, Fraction(1, 13)))
        assert exact - 1e-9 <= strat <= bound * exact + 1e-9
        assert strat / exact == pytest.approx(572 / 507)

    def test_single_deterministic_job(self):
        inst = make(1, [(13, [1.0])])
        rounded, groups, grid, _ = prepare(inst)
        assert solve_stratified(rounded, groups, grid).value == pytest.approx(13)

    def test_policy_decisions(self, one_type):
        _, rounded, groups, grid = one_type
        sol = solve_stratified(rounded, groups, grid)
        assert sol.policy[((Fraction(0),), (2,))] == ("start", 0)
        assert sol.policy[((Fraction(234),), (1,))] == ("start", 0)
        assert sol.policy[((Fraction(0),), (1,))] == ("start", 0)


class TestProfileUpdates:
    def test_long_rounds_to_circ(self, one_type):
        grid = one_type[-1]
        out = after_long((Fraction(0),), 0, grid)
        assert out == (Fraction(234),)

    def test_long_in_tail(self, one_type):
        grid = one_type[-1]
        out = after_long((Fraction(234),), 0, grid)
        # completion 403 is not on the stretched tail; next point is 414
        assert out == (Fraction(414),)

    def test_multi_machine_sorts(self, one_type):
        grid = one_type[-1]
        out = after_long((Fraction(0), Fraction(0)), 0, grid)
        assert out == (Fraction(0), Fraction(234))

    def test_answers_agree_with_the_grid(self, one_type):
        # integer answers in grid.unit, equal to the grid's Fraction wrappers
        _, rounded, _, grid = one_type
        two_rounded, _, two_grid, _ = prepare(make(1, TestIdleChain.RAW))
        for rounded, grid in ((rounded, grid), (two_rounded, two_grid)):
            rule, unit = GridRule(grid), grid.unit
            sizes = [t.size for t in rounded.types]
            nu = (0,) * (len(sizes) - 1) + (1,)
            h = grid.idle_group(nu)
            top = 3 * int(grid.thresholds.p_circ[0] * unit)
            for x in range(0, top, 1 + top // 499):
                t = Fraction(x, unit)
                for j, p in enumerate(sizes):
                    [s] = rule.after_long((x,), j)
                    assert type(s) is int
                    assert Fraction(s, unit) == grid.release_time(
                        grid.group_of_type(j), t + p)
                if not grid.q_contains(h, t):
                    [s] = rule.after_idle((x,), h)
                    assert type(s) is int
                    assert Fraction(s, unit) == grid.q_successor(h, t)

    def test_idle_raises_lagging_machines(self):
        inst = make(2, [(169, [1.0]), (1, [1.0, 1.0])])
        rounded, groups, grid, _ = prepare(inst)
        # at t*=5/13 (not in Q_2), both machines below the next point move up
        profile = (Fraction(5, 13), Fraction(9))
        nu = (0, 1)
        out = after_idle(profile, nu, grid)
        target = grid.q_successor(1, Fraction(5, 13))
        assert out[0] == target
        assert out[1] == Fraction(9)


class TestIdleChain:
    # a long type-1 job moves the machine to a point of Q_1 outside Q_0,
    # from where the remaining type-0 job needs an idle advance
    RAW = [(169, [0.25, 0.5]), (1, [0.25, 0.25])]

    def test_idle_decisions_recorded(self):
        rounded, groups, grid, _ = prepare(make(1, self.RAW))
        sol = solve_stratified(rounded, groups, grid)
        assert sol.policy[((Fraction(235),), (1, 0))] == ("idle",)

    def test_idle_advance_lands_on_a_start(self):
        # an idle advance reaches a point of the idle group's Q-set, where
        # that group's type with jobs left may start: advances never chain
        cases = [make(1, self.RAW)]
        for k in range(10):
            rng = SeedStream(1212, k).generator()
            cases.append(separated_instance(rng, n_max=3))
        cases += generate(ExperimentSpec(n_types=3, jobs_per_type=2,
                                         machines=2, scheme="grouped",
                                         count=10, seed=1313))
        idles = 0
        for inst in cases:
            rounded, groups, grid, _ = prepare(inst)
            table = solve_stratified(rounded, groups, grid).policy
            for (profile, nu), decision in table.items():
                if decision == ("idle",):
                    idles += 1
                    after = after_idle(profile, nu, grid)
                    assert table[after, nu][0] == "start"
        assert idles >= 10


class TestManyJobs:
    def test_1100_jobs_within_bound(self):
        # no Python recursion: 1100 jobs in a chain of 1100 decisions.  The
        # exact optimum runs the unit jobs back to back: 1 + 2 + ... + 1100.
        inst = make(1, [(1, [1.0] * 1100)])
        rounded, groups, grid, _ = prepare(inst)
        sol = solve_stratified(rounded, groups, grid)
        exact = 1100 * 1101 // 2
        bound = float(sandwich_bound(1, inst.epsilon))
        assert exact - 1e-9 <= sol.value <= bound * exact + 1e-9


class TestSandwich:
    def test_bound_value(self):
        b = sandwich_bound(2, Fraction(1, 13))
        assert b == Fraction(70812, 28561)
        assert float(b) == pytest.approx(2.4793, abs=1e-4)

    def test_random_instances(self):
        for k in range(15):
            rng = SeedStream(707, k).generator()
            inst = separated_instance(rng, jobs_max=5)
            exact = solve_exact(inst).value
            rounded, groups, grid, _ = prepare(inst)
            strat = solve_stratified(rounded, groups, grid).value
            bound = float(sandwich_bound(inst.n_types, inst.epsilon))
            assert exact - 1e-9 <= strat <= bound * exact + 1e-9, \
                f"sandwich violated on seed {k}"


class TestDiagnostics:
    def test_ceilings(self):
        for k in range(10):
            rng = SeedStream(808, k).generator()
            inst = separated_instance(rng, jobs_max=5)
            rounded, groups, grid, _ = prepare(inst)
            sol = solve_stratified(rounded, groups, grid)
            d = sol.diagnostics
            assert d.relevant_time_points <= time_point_ceiling(rounded)
            assert d.max_profiles_per_timepoint <= \
                profiles_per_timepoint_ceiling(rounded, groups)
            assert d.states >= d.relevant_time_points

    def test_dict_shape(self, one_type):
        _, rounded, groups, grid = one_type
        d = solve_stratified(rounded, groups, grid).diagnostics.as_dict()
        assert set(d) == {
            "relevant_time_points", "max_profiles_per_timepoint", "states"
        }


class TestDeterminism:
    def test_two_runs_identical(self):
        rng = SeedStream(909, 0).generator()
        inst = separated_instance(rng)
        rounded, groups, grid, _ = prepare(inst)
        a = solve_stratified(rounded, groups, grid)
        b = solve_stratified(rounded, groups, grid)
        assert a.value == b.value
        assert a.policy == b.policy


class TestScaleInvariance:
    def test_integer_scaling(self):
        for k in range(5):
            rng = SeedStream(111, k).generator()
            inst = separated_instance(rng, jobs_max=4)
            rounded, groups, grid, _ = prepare(inst)
            sol = solve_stratified(rounded, groups, grid)
            for lam in (2, 7):
                scaled = validate_and_canonicalize(
                    inst.machines, inst.epsilon,
                    [(t.size * lam, list(t.qs)) for t in inst.types],
                )
                r2, g2, grid2, _ = prepare(scaled)
                sol2 = solve_stratified(r2, g2, grid2)
                assert sol2.value == pytest.approx(lam * sol.value, rel=1e-9)
                mapped = {
                    (tuple(x * lam for x in prof), nu): d
                    for (prof, nu), d in sol.policy.items()
                }
                assert mapped == sol2.policy
