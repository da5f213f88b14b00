"""Acceptance gate: one test per criterion, named so that `pytest -v`
prints a single pass/fail line for each.  Tolerances are stated inline."""

import itertools
import json
from fractions import Fraction

import pytest

from bernsched.cli import main as cli_main
from bernsched.dp_exact import solve_exact
from bernsched.dp_stratified import (
    profiles_per_timepoint_ceiling,
    sandwich_bound,
    solve_stratified,
    time_point_ceiling,
)
from bernsched.harness import prepare
from bernsched.instances import (
    build_groups,
    round_for_divisibility,
    round_to_powers_of_c,
    save_instance,
    validate_and_canonicalize,
)
from bernsched.numerics import SeedStream
from bernsched.policies import (
    ExactTablePolicy,
    ListPolicy,
    SeptPolicy,
    StratifiedTablePolicy,
    enumerate_realizations,
    expected_cost_exact,
    expected_cost_mc,
    replay,
)
from oracles import (
    brute_force_oracle,
    idling_oracle,
    partition_sml,
    validate_schedule,
)

TOL = 1e-9


def make(machines, raw, epsilon="1/13"):
    return validate_and_canonicalize(machines, epsilon, raw)


def random_instance(rng, max_jobs, max_machines, sizes=(1, 2, 3, 5, 9),
                    qs=(0.25, 0.5, 0.75, 1.0)):
    n_jobs = int(rng.integers(1, max_jobs + 1))
    m = int(rng.integers(1, max_machines + 1))
    by_size = {}
    for _ in range(n_jobs):
        p = int(sizes[int(rng.integers(0, len(sizes)))])
        q = float(qs[int(rng.integers(0, len(qs)))])
        by_size.setdefault(p, []).append(q)
    return make(m, [(p, v) for p, v in by_size.items()])


def separated_instance(rng, n_max=2, jobs_max=6, m_max=3):
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
    raw = [
        (p, [float(qs[int(rng.integers(0, 4))]) for _ in range(c)])
        for p, c in zip(sizes, counts)
    ]
    return make(m, raw)


@pytest.fixture(scope="module")
def ptas_suite():
    """Criterion-4 suite, shared by criteria 4-8: 100 seeded instances with
    n <= 2 separated types, N <= 6, m <= 3, eps = 1/13, both solvers run."""
    suite = []
    for k in range(100):
        rng = SeedStream(424200, k).generator()
        inst = separated_instance(rng)
        exact = solve_exact(inst)
        rounded, groups, grid, _ = prepare(inst)
        strat = solve_stratified(rounded, groups, grid)
        suite.append((inst, exact, rounded, groups, grid, strat))
    return suite


def test_criterion_01_oracle_equivalence():
    """solve_exact == brute_force within 1e-9: exhaustive N<=4 suite over
    sizes {1,3,9} x q {0.25,0.5,1} x m {1,2}, plus 200 random instances."""
    kinds = [(p, q) for p in (1, 3, 9) for q in (0.25, 0.5, 1.0)]
    checked = 0
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(kinds, k):
            by_size = {}
            for p, q in combo:
                by_size.setdefault(p, []).append(q)
            raw = [(p, v) for p, v in by_size.items()]
            for m in (1, 2):
                inst = make(m, raw)
                assert abs(solve_exact(inst).value
                           - brute_force_oracle(inst)) <= TOL
                checked += 1
    assert checked == 714 * 2
    for k in range(200):
        rng = SeedStream(111000, k).generator()
        inst = random_instance(rng, max_jobs=5, max_machines=3)
        assert abs(solve_exact(inst).value - brute_force_oracle(inst)) <= TOL
    print("criterion 01 (oracle equivalence): PASS")


def test_criterion_02_non_idling():
    """idling never helps: idling == brute_force within 1e-9 on 100 seeded
    instances, N <= 4, m <= 2."""
    for k in range(100):
        rng = SeedStream(222000, k).generator()
        inst = random_instance(rng, max_jobs=4, max_machines=2)
        assert abs(idling_oracle(inst) - brute_force_oracle(inst)) <= TOL
    print("criterion 02 (non-idling): PASS")


def test_criterion_03_within_type_order():
    """swapping adjacent same-type jobs against q-order in a random list
    policy never strictly reduces the enumerated expected cost (tol 1e-9)."""
    violations_seen = 0
    for k in range(100):
        rng = SeedStream(333000, k).generator()
        inst = random_instance(rng, max_jobs=5, max_machines=2,
                               sizes=(1, 3), qs=(0.1, 0.3, 0.5, 0.7, 0.9))
        jobs = inst.job_ids()
        order = list(jobs)
        perm = rng.permutation(len(order))
        order = [order[i] for i in perm]
        for pos in range(len(order) - 1):
            a, b = order[pos], order[pos + 1]
            if a[0] != b[0] or inst.job_q(a) <= inst.job_q(b):
                continue
            violations_seen += 1
            swapped = list(order)
            swapped[pos], swapped[pos + 1] = b, a
            bad = expected_cost_exact(ListPolicy(order), inst)
            good = expected_cost_exact(ListPolicy(swapped), inst)
            assert bad >= good - TOL
    assert violations_seen > 0, "suite produced no q-order violations"
    print(f"criterion 03 (within-type order, {violations_seen} swaps): PASS")


def test_criterion_04_ptas_sandwich(ptas_suite):
    """exact <= stratified <= B(n,eps) * exact on the 100-instance suite;
    B from the closed formula (B(2,1/13) = 70812/28561 ~ 2.479); plus the
    hand-worked one-type instance at exactly 507 vs 572."""
    assert sandwich_bound(2, Fraction(1, 13)) == Fraction(70812, 28561)
    for inst, exact, _r, _g, _grid, strat in ptas_suite:
        bound = float(sandwich_bound(inst.n_types, inst.epsilon))
        assert exact.value - TOL <= strat.value <= bound * exact.value + TOL
    inst = make(1, [(169, [1.0, 1.0])])
    assert solve_exact(inst).value == pytest.approx(507.0, abs=TOL)
    rounded, groups, grid, _ = prepare(inst)
    assert solve_stratified(rounded, groups, grid).value == \
        pytest.approx(572.0, abs=TOL)
    print("criterion 04 (PTAS sandwich): PASS")


def _check_compliance(rounded, grid, sched, realization):
    # (i) every start lies in the started type's Q set
    for job, (_m, s, _c) in sched.entries.items():
        assert grid.q_contains(grid.group_of_type(job[0]), s)
    # (ii) after a long job, the machine starts nothing before the next
    # allowed point at or beyond max(threshold, completion)
    for _m, runs in sched.starts_by_machine().items():
        for (s1, c1, j1), (s2, _c2, _j2) in zip(runs, runs[1:]):
            if realization[j1]:
                h = grid.group_of_type(j1[0])
                t_min = grid.q_successor(
                    h, max(grid.thresholds.p_circ[h], c1)
                )
                assert s2 >= t_min
    # (iii) same-type jobs start in probability order
    by_type = {}
    for (j, i), (_m, s, _c) in sched.entries.items():
        by_type.setdefault(j, []).append((s, i))
    for j, lst in by_type.items():
        for (s1, i1), (s2, i2) in itertools.combinations(lst, 2):
            if s1 < s2:
                assert rounded.types[j].qs[i1] <= rounded.types[j].qs[i2]
            elif s2 < s1:
                assert rounded.types[j].qs[i2] <= rounded.types[j].qs[i1]


def test_criterion_05_stratified_compliance(ptas_suite):
    """replayed schedules obey all three structural rules on every
    enumerated realization of the criterion-4 suite (exact arithmetic)."""
    for _inst, _exact, rounded, _g, grid, strat in ptas_suite:
        policy = StratifiedTablePolicy(strat, grid)
        for _prob, real in enumerate_realizations(rounded):
            sched = replay(policy, rounded, real)
            validate_schedule(rounded, sched, real)
            _check_compliance(rounded, grid, sched, real)
    print("criterion 05 (stratified compliance): PASS")


def test_criterion_06_value_replay_consistency(ptas_suite):
    """enumerated expected cost of each extracted policy equals its DP
    value within 1e-9, both solvers, all criterion-4 instances."""
    for inst, exact, rounded, _g, grid, strat in ptas_suite:
        got = expected_cost_exact(ExactTablePolicy(exact), inst)
        assert abs(got - exact.value) <= TOL
        got = expected_cost_exact(StratifiedTablePolicy(strat, grid), rounded)
        assert abs(got - strat.value) <= TOL
    print("criterion 06 (value/replay consistency): PASS")


def test_criterion_07_grid_lemmas(ptas_suite):
    """on 1000 sampled rational times per instance: Q sets are nested with
    0 in each, the nesting lemma holds exactly, and every threshold point
    is a member of its own Q set."""
    for _inst, _e, rounded, groups, grid, _s in ptas_suite:
        rng = SeedStream(777000, hash(grid.tail_start) % 1000).generator()
        hi = 3 * grid.thresholds.p_circ[0]
        denom = 8 * 13
        for h in range(groups.gamma):
            assert grid.q_contains(h, Fraction(0))
            assert grid.q_contains(h, grid.thresholds.p_circ[h])
        for _ in range(1000):
            t = Fraction(int(rng.integers(0, max(2, int(hi * denom)))), denom)
            for h in range(1, groups.gamma):
                if grid.q_contains(h - 1, t):
                    assert grid.q_contains(h, t)
                if grid.q_contains(h, t) and not grid.q_contains(h - 1, t):
                    nxt = grid.q_successor(h - 1, t)
                    assert nxt >= t + grid.pmaxs[h]
    print("criterion 07 (grid lemmas): PASS")


def test_criterion_08_diagnostics_ceilings(ptas_suite):
    """recorded state counts stay below the analytic ceilings on every
    solved instance (sanity, never tight)."""
    for _inst, _e, rounded, groups, _grid, strat in ptas_suite:
        d = strat.diagnostics
        assert d.relevant_time_points <= time_point_ceiling(rounded)
        assert d.max_profiles_per_timepoint <= \
            profiles_per_timepoint_ceiling(rounded, groups)
    print("criterion 08 (diagnostics ceilings): PASS")


def test_criterion_09_scale_invariance():
    """integer scaling by 2 and 7 multiplies both solvers' values by the
    factor (rel tol 1e-9) and maps decision tables bijectively, 20 seeded
    instances."""
    for k in range(20):
        rng = SeedStream(999000, k).generator()
        inst = separated_instance(rng, jobs_max=5)
        exact = solve_exact(inst)
        rounded, groups, grid, _ = prepare(inst)
        strat = solve_stratified(rounded, groups, grid)
        for lam in (2, 7):
            scaled = make(
                inst.machines,
                [(t.size * lam, list(t.qs)) for t in inst.types],
            )
            exact2 = solve_exact(scaled)
            assert exact2.value == pytest.approx(lam * exact.value, rel=TOL)
            assert exact2.policy == {
                (tuple(x * lam for x in prof), nu): j
                for (prof, nu), j in exact.policy.items()
            }
            r2, g2, grid2, _ = prepare(scaled)
            strat2 = solve_stratified(r2, g2, grid2)
            assert strat2.value == pytest.approx(lam * strat.value, rel=TOL)
            assert strat2.policy == {
                (tuple(x * lam for x in prof), nu): d
                for (prof, nu), d in strat.policy.items()
            }
    print("criterion 09 (scale invariance): PASS")


def test_criterion_10_rounding_reductions():
    """divisibility postconditions exact; power-of-c outputs exact powers
    with growth < c; size classes cover and separate; 50 seeded instances."""
    for k in range(50):
        rng = SeedStream(101010, k).generator()
        inst = separated_instance(rng, n_max=2, jobs_max=5)
        eps = inst.epsilon
        groups = build_groups(inst)
        rounded, new_groups, _merges = round_for_divisibility(inst, groups)
        for h in range(1, new_groups.gamma):
            assert new_groups.reps[h - 1] % new_groups.reps[h] == 0
        for h, g in enumerate(new_groups.groups):
            grid_step = eps * new_groups.reps[h]
            for j in g:
                assert (rounded.types[j].size / grid_step).denominator == 1
        old = sorted(inst.job_size(j) for j in inst.job_ids())
        new = sorted(rounded.job_size(j) for j in rounded.job_ids())
        for a, b in zip(old, new):
            assert a <= b <= (1 + eps) * a

        powered, scale = round_to_powers_of_c(inst, 169)
        for t in powered.types:
            x = t.size
            while x > 1:
                x /= 169
            assert x == 1
        for j in inst.job_ids():
            target = inst.job_size(j) * scale
            rounded_size = min(
                t.size for t in powered.types if t.size >= target
            )
            assert rounded_size < 169 * target

        s, m, l = partition_sml(inst, 1)
        n_jobs = inst.total_jobs
        assert set(s) | set(m) | set(l) == set(inst.job_ids())
        assert len(s) + len(m) + len(l) == n_jobs
        for j in s:
            assert inst.job_size(j) < Fraction(1, n_jobs * n_jobs)
        for j in l:
            assert inst.job_size(j) >= Fraction(n_jobs) ** 8
        for j in m:
            assert Fraction(1, n_jobs * n_jobs) <= inst.job_size(j) \
                < Fraction(n_jobs) ** 8
    print("criterion 10 (rounding reductions): PASS")


def test_criterion_11_monte_carlo(tmp_path, capsys):
    """MC mean within 4*stderr of the enumerated value at 1e5 trials on 10
    instances; a fixed seed reproduces byte-identical simulate output."""
    for k in range(10):
        rng = SeedStream(121212, k).generator()
        inst = random_instance(rng, max_jobs=3, max_machines=2)
        truth = expected_cost_exact(SeptPolicy(), inst)
        mean, stderr = expected_cost_mc(
            SeptPolicy(), inst, trials=100_000, seed=k
        )
        if stderr == 0.0:
            assert mean == pytest.approx(truth, abs=TOL)
        else:
            assert abs(mean - truth) <= 4 * stderr
    inst = make(1, [(3, [0.5]), (1, [1.0])])
    path = str(tmp_path / "inst.json")
    save_instance(inst, path)
    argv = ["simulate", "--instance", path, "--policy", "sept",
            "--trials", "500", "--seed", "42"]
    cli_main(argv)
    out1 = capsys.readouterr().out
    cli_main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2 and json.loads(out1)["method"] == "mc"
    print("criterion 11 (monte carlo): PASS")
