from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil, floor, inf, lcm
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from bernsched.harness import compare
from bernsched.instances import GroupStructure, build_groups, \
    validate_and_canonicalize
from bernsched.numerics import SeedStream
from bernsched.timegrid import GridError, Thresholds, TimeGrid, build_grid
from oracles import floor_div


def is_stretched_endpoint(grid, t):
    """Whether t is a stretched endpoint l'_k, by the integer interval
    lookup."""
    x = t * grid.unit
    return x.denominator == 1 and grid._interval(x.numerator)[0] == x


def interval_labels(grid):
    """The group label of each interval [l_k, l_{k+1}) below p_star[0],
    expanded from the endpoint runs, then the tail's label."""
    return (*(g for _s, _d, c, g in grid.runs[:-1] for _ in range(c)),
            grid.runs[-1][3])


def grid_for(machines, epsilon, raw):
    inst = validate_and_canonicalize(machines, epsilon, raw)
    groups = build_groups(inst)
    return inst, groups, build_grid(inst, groups)


@pytest.fixture(scope="module")
def one_type():
    return grid_for(1, "1/13", [(169, [1.0, 1.0])])


@pytest.fixture(scope="module")
def two_type():
    # the classic picture: p2 = p1/80, eps = 1/8
    return grid_for(1, "1/8", [(80, [0.5]), (1, [1.0])])


@pytest.fixture(scope="module")
def three_group():
    return grid_for(2, "1/13", [(28561, [0.5]), (169, [0.5]), (1, [1.0])])


class TestThresholds:
    def test_one_type(self, one_type):
        _, _, grid = one_type
        assert grid.thresholds.p_star == (169,)
        assert grid.thresholds.p_circ == (234,)

    def test_two_type_no_correction(self, two_type):
        _, _, grid = two_type
        assert grid.thresholds.p_star == (80, 1)
        assert grid.thresholds.p_circ == (130, Fraction(13, 8))

    def test_three_group_correction(self, three_group):
        _, _, grid = three_group
        # middle and smallest groups get no correction; the largest one is
        # charged (types-below-group-2 + 3) * rep_2 scaled by (1+eps)*eps
        assert grid.thresholds.p_star[2] == 1
        assert grid.thresholds.p_star[1] == 169
        expected = 28561 + Fraction(14, 13) * Fraction(1, 13) * (1 + 3) * 169
        assert grid.thresholds.p_star[0] == expected == 28617

    def test_decreasing(self, three_group):
        _, _, grid = three_group
        ps = grid.thresholds.p_star
        assert ps[0] > ps[1] > ps[2]

    def test_circ_is_stretched_endpoint(self, three_group):
        _, groups, grid = three_group
        for h in range(groups.gamma):
            assert is_stretched_endpoint(grid, grid.thresholds.p_circ[h])
            assert grid.q_contains(h, grid.thresholds.p_circ[h])


class TestEndpoints:
    def test_one_type_tail(self, one_type):
        _, _, grid = one_type
        assert grid.prefix == (0,)
        assert grid.tail_start == 169
        assert grid.tail_step == 13
        # stretched tail: l'_k = (18/13)(169 + 13(k-1))
        stretch = 1 + 5 * grid.eps
        assert stretch * grid.endpoint(1) == 234
        assert stretch * grid.endpoint(2) == 252

    def test_two_type_tail_values(self, two_type):
        _, _, grid = two_type
        # 80 and 90 are consecutive endpoints at the top threshold, with
        # stretched images 130 and 146.25; below them lie 0, 631 fine
        # points and a midpoint, so 80 is l_633
        assert grid.tail_start == 80
        assert grid.tail_step == 10
        assert grid.endpoint(633) == 80 and grid.endpoint(634) == 90
        assert interval_labels(grid)[633:] == (0,)  # l_633 starts the tail
        stretch = 1 + 5 * grid.eps
        assert stretch * 80 == 130
        assert stretch * 90 == Fraction(585, 4)

    def test_two_type_prefix_shape(self, two_type):
        _, _, grid = two_type
        # fine endpoints from p*_2 = 1 spaced 1/8, then a midpoint below 80
        labels = interval_labels(grid)
        assert grid.endpoint(0) == 0 and labels[0] is None
        assert grid.endpoint(1) == 1
        assert grid.endpoint(2) == Fraction(9, 8)
        assert grid.endpoint(631) == Fraction(639, 8) - Fraction(1, 8)
        assert grid.endpoint(632) == Fraction(639, 8)  # midpoint 79.875
        assert all(labels[k] == 1 for k in (1, 2, 631, 632))
        # the stored points are the run starts below p*_1: 0, 1 and 79.875
        assert grid.prefix == (0, 1, Fraction(639, 8))

    def test_interval_lengths(self, three_group):
        _, groups, grid = three_group
        eps, labels = grid.eps, interval_labels(grid)
        k = 1
        while grid.endpoint(k) <= grid.tail_start:
            h = labels[k]
            length = grid.endpoint(k + 1) - grid.endpoint(k)
            assert eps * grid.reps[h] / 2 <= length <= eps * grid.reps[h]
            k += 1
        assert k > 4000  # every fine point of both smaller groups

    def test_monotone(self, three_group):
        _, _, grid = three_group
        pts = []
        while not pts or pts[-1] <= grid.tail_start + 5 * grid.tail_step:
            pts.append(grid.endpoint(len(pts)))
        assert all(a < b for a, b in zip(pts, pts[1:]))


class TestMembership:
    def test_zero_always(self, three_group):
        _, groups, grid = three_group
        for h in range(groups.gamma):
            assert grid.q_contains(h, Fraction(0))

    def test_one_type_circ_member(self, one_type):
        _, _, grid = one_type
        assert grid.q_contains(0, Fraction(234))

    def test_between_points(self, one_type):
        _, _, grid = one_type
        assert not grid.q_contains(0, Fraction(235))
        assert not grid.q_contains(0, Fraction(169))

    def test_base_grid(self, one_type):
        _, _, grid = one_type
        # multiples of 13 strictly below 234 - 169 = 65
        for t in (13, 26, 39, 52):
            assert grid.q_contains(0, Fraction(t))
        assert not grid.q_contains(0, Fraction(65))
        assert not grid.q_contains(0, Fraction(78))

    def test_negative_time_rejected(self, one_type):
        _, _, grid = one_type
        with pytest.raises(GridError):
            grid.q_contains(0, Fraction(-1))


class TestSuccessor:
    def test_hand_worked(self, one_type):
        _, _, grid = one_type
        assert grid.q_successor(0, Fraction(169)) == 234
        assert grid.q_successor(0, Fraction(403)) == 414

    def test_reflexive_on_members(self, one_type):
        _, _, grid = one_type
        for t in (Fraction(0), Fraction(13), Fraction(234), Fraction(252)):
            assert grid.q_successor(0, t) == t

    def test_fine_spacing(self, two_type):
        _, _, grid = two_type
        # past p_circ_1 = 130 the small group's points advance by eps*p_2
        t = Fraction(130)
        assert grid.q_contains(1, t)
        nxt = grid.successor(1, 130 * grid.unit + 1)
        assert Fraction(nxt, grid.unit) == t + Fraction(1, 8)

    def test_no_member_skipped(self, two_type):
        _, groups, grid = two_type
        for h in range(groups.gamma):
            x = 0
            for _ in range(200):
                nxt = grid.successor(h, x + 1)
                assert nxt > x
                assert grid.contains(h, nxt)
                # midpoint between should not be a member
                mid = (x + nxt) // 2
                if mid > x:
                    assert not grid.contains(h, mid)
                x = nxt


class TestTransitions:
    def test_release_one_type(self, one_type):
        _, _, grid = one_type
        # p° = 234: a long job ending before it frees its machine at p°
        assert grid.release_time(0, Fraction(0)) == 234
        assert grid.release_time(0, Fraction(169)) == 234
        assert grid.release_time(0, Fraction(234)) == 234
        # past p° the completion rounds up to the stretched tail
        assert grid.release_time(0, Fraction(403)) == 414

    def test_release_two_groups(self, two_type):
        _, _, grid = two_type
        assert grid.thresholds.p_circ == (130, Fraction(13, 8))
        # Q_0 has a stretched endpoint below p°_0 that the release skips
        assert grid.q_successor(0, Fraction(80)) == Fraction(2561, 32)
        assert grid.release_time(0, Fraction(80)) == 130
        assert grid.release_time(0, Fraction(131)) == Fraction(585, 4)
        assert grid.release_time(1, Fraction(0)) == Fraction(13, 8)
        assert grid.release_time(1, Fraction(2)) == Fraction(65, 32)
        assert grid.release_time(1, Fraction(2081, 16)) == Fraction(1041, 8)

    @pytest.mark.parametrize("fixture", ["one_type", "two_type"])
    def test_release_is_first_member_past_threshold(self, fixture, request):
        _, groups, grid = request.getfixturevalue(fixture)
        for h in range(groups.gamma):
            p_circ = grid.thresholds.p_circ[h]
            for k in range(60):
                t = Fraction(k * k, 7)
                s = grid.release_time(h, t)
                assert s >= max(p_circ, t) and grid.q_contains(h, s)
                assert s == grid.q_successor(h, max(p_circ, t))

    def test_idle_group_one_type(self, one_type):
        _, _, grid = one_type
        assert grid.idle_group((2,)) == 0
        assert grid.idle_group((1,)) == 0

    def test_idle_group_two_groups(self, two_type):
        _, _, grid = two_type
        # the smallest remaining type decides
        assert grid.idle_group((1, 1)) == 1
        assert grid.idle_group((0, 1)) == 1
        assert grid.idle_group((1, 0)) == 0

    def test_idle_group_three_groups(self, three_group):
        _, _, grid = three_group
        assert grid.idle_group((1, 1, 0)) == 1
        assert grid.idle_group((1, 0, 1)) == 2
        assert grid.idle_group((3, 0, 0)) == 0


class TestAllowedTypes:
    def test_zero_all_types(self, three_group):
        inst, _, grid = three_group
        assert grid.allowed(0) == (0, 1, 2)

    def test_two_type_shared_endpoint(self, two_type):
        _, _, grid = two_type
        assert grid.allowed(130 * grid.unit) == (0, 1)

    def test_fine_point_only_small_group(self, two_type):
        _, _, grid = two_type
        x = (Fraction(130) + Fraction(1, 8)) * grid.unit
        assert x.denominator == 1 and grid.allowed(x.numerator) == (1,)


class TestNesting:
    def sample_times(self, grid, count=300, seed=5):
        rng = SeedStream(seed, 0).generator()
        hi = 3 * grid.thresholds.p_circ[0]
        out = []
        for _ in range(count):
            num = int(rng.integers(0, int(hi * 8 * 13)))
            out.append(Fraction(num, 8 * 13))
        return out

    @pytest.mark.parametrize("fixture", ["two_type", "three_group"])
    def test_nested_sets(self, fixture, request):
        _, groups, grid = request.getfixturevalue(fixture)
        for t in self.sample_times(grid):
            for h in range(1, groups.gamma):
                if grid.q_contains(h - 1, t):
                    assert grid.q_contains(h, t)

    @pytest.mark.parametrize("fixture", ["two_type", "three_group"])
    def test_nesting_lemma(self, fixture, request):
        # a Q_h member with a Q_{h-1} member within pmax_h ahead of it is
        # itself a Q_{h-1} member.  This holds unconditionally with up to
        # two groups; with three or more it only holds below the
        # next-larger group's own fine-point regime (beyond p_circ[h-2]
        # both sets contain fine points and the gap claim breaks down), so
        # the check is restricted to that range.
        _, groups, grid = request.getfixturevalue(fixture)
        for t in self.sample_times(grid):
            for h in range(1, groups.gamma):
                if h >= 2 and t >= grid.thresholds.p_circ[h - 2]:
                    continue
                if not grid.q_contains(h, t):
                    continue
                if grid.q_contains(h - 1, t):
                    continue
                nxt = grid.q_successor(h - 1, t)
                assert nxt >= t + grid.pmaxs[h]


@given(st.integers(0, 10**6), st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_successor_is_minimal_member(num, den):
    inst = validate_and_canonicalize(1, "1/8", [(80, [0.5]), (1, [1.0])])
    groups = build_groups(inst)
    grid = build_grid(inst, groups)
    t = Fraction(num, den)
    for h in range(groups.gamma):
        s = grid.q_successor(h, t)
        assert s >= t
        assert grid.q_contains(h, s)
        if s > t and grid.q_contains(h, t):
            raise AssertionError("successor skipped its own argument")


def test_gamma_one_grid_has_only_tail_and_base(one_type):
    _, _, grid = one_type
    assert grid.prefix == (0,)
    members = grid.iter_members(0, 8)
    assert members == [0, 13, 26, 39, 52, 234, 252, 270]


class EnumeratedGrid(TimeGrid):
    """Oracle for the endpoint runs: every endpoint below p_star[0] is
    enumerated and stored with its stretched image and interval label, and
    the endpoint queries are answered from those lists, with the tail from
    p_star[0] on in closed form.  The integer interval lookup converts to
    and from those ``Fraction`` lists, so the inherited Q-set queries run
    on the enumerated intervals."""

    def __init__(self, inst, groups):
        ps = fraction_grid(inst, groups).thresholds.p_star
        eps, stretch = inst.epsilon, 1 + 5 * inst.epsilon
        points, labels = [Fraction(0)], [None]
        for h in range(groups.gamma - 1, 0, -1):
            step = eps * groups.reps[h]
            t = ps[h]
            while t < ps[h - 1] - step:
                points.append(t)
                labels.append(h)
                t += step
            points.append(points[-1] + (ps[h - 1] - points[-1]) / 2)
            labels.append(h)
        self.points, self.labels = tuple(points), tuple(labels)
        self.points_stretched = tuple(stretch * x for x in points)
        self.tail_start_stretched = stretch * ps[0]
        self.tail_step_stretched = stretch * eps * groups.reps[0]
        super().__init__(inst, groups)

    def endpoint(self, k):
        if k < len(self.points):
            return self.points[k]
        return self.tail_start + (k - len(self.points)) * self.tail_step

    def _stretched_interval(self, t):
        if t >= self.tail_start_stretched:
            i = floor_div(t - self.tail_start_stretched, self.tail_step_stretched)
            lk = self.tail_start_stretched + i * self.tail_step_stretched
            return lk, lk + self.tail_step_stretched
        k = bisect_right(self.points_stretched, t) - 1
        if k + 1 < len(self.points_stretched):
            return self.points_stretched[k], self.points_stretched[k + 1]
        return self.points_stretched[k], self.tail_start_stretched

    def _interval(self, x):
        out = []
        for end in self._stretched_interval(Fraction(x, self.unit)):
            n = end * self.unit
            assert n.denominator == 1, f"endpoint {end} is off the unit"
            out.append(n.numerator)
        return tuple(out)

    def run_edges(self):
        """Endpoint indices within two of a change of interval label or of
        the tail's start: where one run of endpoints ends and the next
        begins."""
        changes = [k for k in range(1, len(self.labels))
                   if self.labels[k] != self.labels[k - 1]]
        return sorted({k for c in [*changes, len(self.points)]
                       for k in range(max(0, c - 2), c + 3)})


def fraction_grid(inst, groups):
    """Reference for the grid's construction: the thresholds and endpoint
    runs computed in ``Fraction`` arithmetic, the unit as the lcm of the
    denominators of every run start and step, their stretched images and
    the sizes, and each table converted to that unit; or the GridError that
    construction raises."""
    eps, gamma, reps = inst.epsilon, groups.gamma, groups.reps
    counts = [len(g) for g in groups.groups]
    p_star = []
    for h in range(gamma):
        corr = Fraction(0)
        for k in range(h + 1, gamma - 1):
            tail_types = sum(counts[i] for i in range(k + 1, gamma))
            corr += (tail_types + 3) * reps[k]
        p_star.append(reps[h] + (1 + eps) * eps * corr)
    for h in range(1, gamma):
        if not p_star[h - 1] > p_star[h]:
            raise GridError("thresholds not strictly decreasing across groups")
    stretch = 1 + 5 * eps
    p_circ = [stretch * p for p in p_star]

    runs, point, label = [], Fraction(0), None
    for h in range(gamma - 1, 0, -1):
        step = eps * reps[h]
        if not (point < p_star[h] < p_star[h - 1] - step):
            raise GridError(f"no room for group-{h} endpoints between thresholds")
        count = -floor_div(p_star[h] + step - p_star[h - 1], step)
        runs += [(point, p_star[h] - point, 1, label),
                 (p_star[h], step, count, h)]
        last = p_star[h] + (count - 1) * step
        point, label = last + (p_star[h - 1] - last) / 2, h
    runs += [(point, p_star[0] - point, 1, label),
             (p_star[0], eps * reps[0], None, 0)]

    plain = [x for run in runs for x in run[:2]]
    unit = lcm(*(x.denominator for x in [
        *plain, *(stretch * x for x in plain), *(t.size for t in inst.types)]))

    def units(x):
        x *= unit
        assert x.denominator == 1
        return x.numerator

    starts = [units(stretch * run[0]) for run in runs]
    stretched = [(s, units(stretch * run[1]), end)
                 for s, run, end in zip(starts, runs, (*starts[1:], inf))]
    p_circ_units = [units(p) for p in p_circ]
    for pc in p_circ_units:
        start, step, _end = stretched[bisect_right(starts, pc) - 1]
        if (pc - start) % step:
            raise GridError(f"threshold {Fraction(pc, unit)} is not a "
                            "stretched endpoint")
    pmaxs = [units(p) for p in groups.pmaxs]
    return SimpleNamespace(
        unit=unit,
        sizes=tuple(units(t.size) for t in inst.types),
        runs=tuple((units(s), units(d), c, g) for s, d, c, g in runs),
        stretched=tuple(stretched),
        steps=tuple(units(eps * r) for r in reps),
        pmaxs=tuple(pmaxs),
        p_circ=tuple(p_circ_units),
        base_cap=starts[1] - pmaxs[-1],
        thresholds=Thresholds(tuple(p_star), tuple(p_circ)),
        prefix=tuple(run[0] for run in runs[:-1]),
        tail_start=runs[-1][0],
        tail_step=runs[-1][1],
    )


@st.composite
def fractional_instances(draw, max_groups=4):
    """eps = 1/E for E from 2 to 30 and 1 to ``max_groups`` groups of 1 to
    3 fractional sizes: within a group each size is a factor 1 + a/(4E)
    (a <= 8) or 1 + a/4 < E^2 above the last, and each group's representative is E^2 (1 + b/8) times
    the largest size of the group below it."""
    e = draw(st.integers(2, 30))
    size = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 12)))
    raw = []
    for h in range(draw(st.integers(1, max_groups))):
        if h:
            size *= e * e * (1 + Fraction(draw(st.integers(0, 16)), 8))
        for i in range(draw(st.integers(1, 3))):
            if i:
                size *= 1 + draw(st.one_of(
                    st.integers(1, 8).map(lambda a: Fraction(a, 4 * e)),
                    st.integers(1, 4 * e * e - 5).map(lambda a: Fraction(a, 4))))
            raw.append((size, [0.5]))
    return validate_and_canonicalize(1, Fraction(1, e), raw)


@st.composite
def grid_inputs(draw):
    """A fractional instance with its own groups, or with any partition of
    its types into 1 to 4 runs of consecutive types, which need not be
    separated and so may leave no room for a group's endpoints."""
    inst = draw(fractional_instances())
    if draw(st.booleans()):
        return inst, build_groups(inst)
    n = inst.n_types
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True)) \
        if n > 1 else []
    bounds = [0, *sorted(cuts), n]
    groups = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    return inst, GroupStructure(
        groups=groups, reps=tuple(inst.types[g[-1]].size for g in groups),
        pmaxs=tuple(inst.types[g[0]].size for g in groups))


@given(grid_inputs())
@example((validate_and_canonicalize(1, "1/2", [(10, [0.5]),
                                               (Fraction(99, 10), [0.5])]),
          GroupStructure(((0,), (1,)), (10, Fraction(99, 10)),
                         (10, Fraction(99, 10)))))
@settings(max_examples=300, deadline=None)
def test_construction_matches_fraction_reference(instance):
    inst, groups = instance
    try:
        want = fraction_grid(inst, groups)
    except GridError as exc:
        with pytest.raises(GridError) as got:
            TimeGrid(inst, groups)
        assert str(got.value) == str(exc)
        return
    grid = TimeGrid(inst, groups)
    assert grid.unit == want.unit
    assert grid.sizes == want.sizes
    assert grid.runs == want.runs
    assert grid._stretched == want.stretched
    assert grid._steps == want.steps
    assert grid._pmaxs == want.pmaxs
    assert grid._p_circ == want.p_circ
    assert grid._base_cap == want.base_cap
    assert grid.thresholds == want.thresholds
    assert grid.prefix == want.prefix
    assert (grid.tail_start, grid.tail_step) == (want.tail_start, want.tail_step)
    for value in (*want.prefix, want.tail_start, want.tail_step,
                  *want.thresholds.p_star, *want.thresholds.p_circ):
        assert type(value) is Fraction


@st.composite
def grid_instances(draw):
    """1-3 groups, eps 1/8 or 1/13; each group is its representative and
    at most one larger size on the group's eps * rep lattice, and each
    representative is 2 or 3 times eps^-2 the next smaller one."""
    e = draw(st.sampled_from([8, 13]))
    rep = Fraction(draw(st.integers(1, 5)))
    raw = []
    for _ in range(draw(st.integers(1, 3))):
        raw.append((rep, [0.5]))
        extra = draw(st.integers(0, e))
        if extra:
            raw.append((rep * (1 + Fraction(extra, e)), [0.5]))
        rep *= e * e * draw(st.integers(2, 3))
    inst = validate_and_canonicalize(1, Fraction(1, e), raw)
    return inst, build_groups(inst)


@given(grid_instances(), st.data())
@settings(max_examples=40, deadline=None)
def test_runs_match_enumeration(instance, data):
    inst, groups = instance
    grid, oracle = build_grid(inst, groups), EnumeratedGrid(inst, groups)
    assert len(grid.prefix) == 2 * groups.gamma - 1
    for k in range(len(oracle.points) + 20):
        assert grid.endpoint(k) == oracle.endpoint(k)
    assert interval_labels(grid) == (*oracle.labels, 0)

    e, stretch = inst.epsilon.denominator, 1 + 5 * inst.epsilon
    hi = 3 * grid.thresholds.p_circ[0]
    dens = st.sampled_from([1, 2, e, e * e, 4 * e ** 3, 5 * e + 25])
    stretched = st.one_of(st.integers(0, len(oracle.points) + 20),
                          st.sampled_from(oracle.run_edges())).map(
        lambda k: stretch * oracle.endpoint(k))
    times = st.one_of(
        st.builds(lambda x, d: Fraction(int(x * hi * d), d),
                  st.floats(0, 1), dens),
        stretched,
    )
    for t in data.draw(st.lists(times, min_size=40, max_size=40)):
        x = floor(t * grid.unit)
        assert grid._interval(x) == oracle._interval(x)
        assert is_stretched_endpoint(grid, t) == is_stretched_endpoint(oracle, t)
        assert grid.allowed(x) == oracle.allowed(x)
        for h in range(groups.gamma):
            assert grid.q_contains(h, t) == oracle.q_contains(h, t)
            assert grid.q_successor(h, t) == oracle.q_successor(h, t)
            assert grid.successor(h, x + 1) == oracle.successor(h, x + 1)
            assert grid.release_time(h, t) == oracle.release_time(h, t)


def definitional_members(oracle, h):
    """Q_h up to past 3 * p_circ[0], straight from the three rules of
    TimeGrid's docstring on the oracle's enumerated endpoints: disjoint
    progressions (first, step, last) in increasing order."""
    hi, stretch = 3 * oracle.thresholds.p_circ[0], 1 + 5 * oracle.eps
    stretched = [Fraction(0)]
    while stretched[-1] < hi:
        stretched.append(stretch * oracle.endpoint(len(stretched)))
    eps, smallest = oracle.eps, oracle.gamma - 1
    # base grid: multiples of eps * rep below l'_1 - pmax, and 0
    base = eps * oracle.reps[smallest]
    cap = stretched[1] - oracle.pmaxs[smallest]
    progs = [(Fraction(0), base, max(0, ceil(cap / base) - 1) * base)]
    step, pmax = eps * oracle.reps[h], oracle.pmaxs[h]
    for lk, lk1 in zip(stretched[1:], stretched[2:]):
        if h == 0 or lk < oracle.thresholds.p_circ[h - 1]:
            progs.append((lk, step, lk))  # a stretched endpoint
        elif lk < lk1 - pmax:  # fine points strictly below l'_{k+1} - pmax
            progs.append((lk, step, lk + (ceil((lk1 - pmax - lk) / step) - 1) * step))
    return progs


@given(grid_instances(), st.data())
@settings(max_examples=20, deadline=None)
def test_q_sets_match_definition(instance, data):
    inst, groups = instance
    grid, oracle = build_grid(inst, groups), EnumeratedGrid(inst, groups)
    e, unit, stretch = inst.epsilon.denominator, grid.unit, 1 + 5 * grid.eps
    dens = st.sampled_from([1, e, unit, 2 * unit, 3 * unit + 1, 7 * e * unit])
    marks = [*grid.thresholds.p_circ,
             *(stretch * oracle.endpoint(k) for k in oracle.run_edges())]
    for h in range(groups.gamma):
        progs = definitional_members(oracle, h)
        lasts = [last for _first, _step, last in progs]
        top = lasts[-1]
        # every time on and just off the unit at the first two members of
        # each progression near a threshold or a change of run, at its last
        # member and at the point past it; and random times
        near = {i for m in marks for i in range(bisect_left(lasts, m) - 2,
                                                bisect_left(lasts, m) + 3)}
        edges = [x + d for i in sorted(near & set(range(len(progs))))
                 for first, step, last in [progs[i]]
                 for x in (first, first + step, last, last + step)
                 for d in (0, Fraction(1, 2 * unit), Fraction(-1, 3 * unit))]
        times = st.builds(lambda x, d: Fraction(int(x * top * d), d),
                          st.floats(0, 1), dens)
        for t in [*edges, *data.draw(st.lists(times, min_size=30, max_size=30))]:
            if not 0 <= t < top:
                continue
            first, step, _last = progs[bisect_left(lasts, t)]
            succ = max(first, first + ceil((t - first) / step) * step)
            first, step, _last = progs[bisect_right(lasts, t)]
            nxt = max(first, first + (floor((t - first) / step) + 1) * step)
            assert grid.q_contains(h, t) == (succ == t)
            assert grid.q_successor(h, t) == succ
            assert grid.successor(h, floor(t * unit) + 1) == nxt * unit


def test_wide_gap_prepares_in_closed_form():
    # size ratio 169,000 with eps = 1/13: about 2.2 million endpoints lie
    # below p_star[0], none of which the grid stores
    inst = validate_and_canonicalize(
        1, "1/13", [(169_000, [0.5, 0.5]), (1, [0.5, 0.5])])
    groups = build_groups(inst)
    grid = build_grid(inst, groups)
    assert len(grid.prefix) == 2 * groups.gamma - 1 == 3
    [row] = compare([inst])
    assert not row.skipped
    assert 1.0 - 1e-9 <= row.ratio <= row.bound + 1e-9
