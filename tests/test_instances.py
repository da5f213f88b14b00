from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bernsched.instances import (
    GroupStructure,
    InstanceError,
    build_groups,
    instance_from_dict,
    instance_to_dict,
    partition_unchanged,
    round_for_divisibility,
    round_to_powers_of_c,
    validate_and_canonicalize,
)
from oracles import ceil_to_multiple_of, divides, partition_sml


def make(machines, epsilon, raw):
    return validate_and_canonicalize(machines, epsilon, raw)


class TestCanonicalize:
    def test_merge_and_sort(self):
        inst = make(1, "1/13", [(1, [0.5]), (3, [0.2]), (3, [0.1])])
        assert [t.size for t in inst.types] == [3, 1]
        assert inst.types[0].qs == (0.1, 0.2)

    def test_empty_rejected(self):
        with pytest.raises(InstanceError):
            make(1, "1/13", [])

    def test_single_job_identity(self):
        inst = make(1, "1/13", [(5, [1.0])])
        assert inst.types[0].size == 5
        assert inst.types[0].qs == (1.0,)

    def test_bad_epsilon(self):
        with pytest.raises(InstanceError):
            make(1, "2/13", [(5, [1.0])])
        with pytest.raises(InstanceError):
            make(1, "1/1", [(5, [1.0])])

    def test_bad_q(self):
        with pytest.raises(InstanceError):
            make(1, "1/13", [(5, [0.0])])
        with pytest.raises(InstanceError):
            make(1, "1/13", [(5, [1.5])])

    def test_nonpositive_size(self):
        with pytest.raises(InstanceError):
            make(1, "1/13", [(0, [0.5])])


class TestGroups:
    def test_strict_boundary(self):
        # 169 = eps^2 * 28561 exactly, so the strict ">" splits here
        inst = make(1, "1/13", [(28561, [1.0]), (169, [1.0]), (1, [1.0])])
        groups = build_groups(inst)
        assert groups.gamma == 3

    def test_one_group(self):
        inst = make(1, "1/13", [(100, [1.0]), (90, [1.0])])
        groups = build_groups(inst)
        assert groups.gamma == 1
        assert groups.reps == (90,)
        assert groups.pmaxs == (100,)

    def test_single_type(self):
        inst = make(1, "1/13", [(7, [0.5])])
        groups = build_groups(inst)
        assert groups.gamma == 1

    def test_cross_group_separation(self):
        inst = make(1, "1/13", [(28561, [1.0]), (169, [1.0]), (1, [1.0])])
        groups = build_groups(inst)
        eps2 = Fraction(1, 169)
        for h in range(1, groups.gamma):
            for j in groups.groups[h - 1]:
                for jp in groups.groups[h]:
                    assert inst.types[jp].size <= eps2 * inst.types[j].size


class TestDivisibilityRounding:
    def test_rep_rounds_to_multiple(self):
        inst = make(1, "1/13", [(1000, [1.0]), (3, [1.0])])
        groups = build_groups(inst)
        out, new_groups, merges = round_for_divisibility(inst, groups)
        assert new_groups.reps[0] % new_groups.reps[1] == 0
        assert out.types[0].size == 1002
        assert merges == []

    def test_within_group_grid(self):
        inst = make(1, "1/13", [(27, [1.0]), (26, [1.0])])
        groups = build_groups(inst)
        out, new_groups, _ = round_for_divisibility(inst, groups)
        assert [t.size for t in out.types] == [28, 26]
        assert out is not inst

    def test_already_divisible_identity(self):
        # rounding that moves no size hands back its input
        inst = make(1, "1/13", [(28561, [1.0]), (169, [1.0]), (1, [1.0])])
        groups = build_groups(inst)
        out, new_groups, merges = round_for_divisibility(inst, groups)
        assert [t.size for t in out.types] == [28561, 169, 1]
        assert out is inst and new_groups == groups
        assert merges == []

    def test_powers_of_c_in_one_group_identity(self):
        inst = make(1, "1/2", [(8, [1.0]), (4, [0.5]), (2, [1.0])])
        groups = build_groups(inst)
        assert groups.groups == ((0, 1, 2),)
        out, new_groups, merges = round_for_divisibility(inst, groups)
        assert out is inst and new_groups == groups
        assert merges == []

    def test_collision_merges(self):
        # both sizes round up to the same multiple of eps*rep
        inst = make(1, "1/2", [(Fraction(21, 8), [0.5]),
                               (Fraction(23, 8), [0.25]), (2, [1.0])])
        groups = build_groups(inst)
        out, _, merges = round_for_divisibility(inst, groups)
        assert out.total_jobs == 3
        if merges:
            merged_type = [t for t in out.types if t.size == merges[0]]
            assert merged_type[0].count >= 2

    def test_growth_and_postconditions(self):
        inst = make(2, "1/13", [(28561, [0.5, 0.5]), (167, [1.0]), (1, [0.25])])
        groups = build_groups(inst)
        out, new_groups, _ = round_for_divisibility(inst, groups)
        eps = Fraction(1, 13)
        for h in range(1, new_groups.gamma):
            assert new_groups.reps[h - 1] % new_groups.reps[h] == 0
        for h, g in enumerate(new_groups.groups):
            grid = eps * new_groups.reps[h]
            for j in g:
                assert (out.types[j].size / grid).denominator == 1
        assert out.total_jobs == inst.total_jobs


class TestPowersOfC:
    def test_next_power(self):
        inst = make(1, "1/13", [(200, [1.0])])
        out, scale = round_to_powers_of_c(inst, 169)
        assert out.types[0].size == 28561
        assert scale == 1

    def test_fixed_point(self):
        inst = make(1, "1/13", [(169, [1.0])])
        out, _ = round_to_powers_of_c(inst, 169)
        assert out.types[0].size == 169

    def test_small_sizes_prescaled(self):
        inst = make(1, "1/13", [(1, [1.0])])
        out, scale = round_to_powers_of_c(inst, 169)
        assert out.types[0].size == 169
        assert scale == 169

    def test_outputs_are_powers(self):
        inst = make(1, "1/13", [(Fraction(7, 3), [0.5]), (50, [1.0]),
                                (30000, [0.25])])
        out, _scale = round_to_powers_of_c(inst, 169)
        for t in out.types:
            x = t.size
            while x > 1:
                x /= 169
            assert x == 1

    def test_growth_below_c(self):
        inst = make(1, "1/13", [(200, [1.0]), (170, [1.0])])
        out, scale = round_to_powers_of_c(inst, 169)
        for t in inst.types:
            target = t.size * scale
            rounded = min(p.size for p in out.types if p.size >= target)
            assert rounded < 169 * target


class TestPartitionSML:
    def test_thresholds(self):
        # ten jobs total; normalized sizes 1e-3, 1, 1e9
        inst = make(1, "1/13", [
            (Fraction(1, 1000), [1.0]),
            (1, [1.0] * 8),
            (10**9, [1.0]),
        ])
        s, m, l = partition_sml(inst, 1)
        assert len(s) == 1 and len(l) == 1 and len(m) == 8

    def test_all_medium(self):
        inst = make(1, "1/13", [(1, [1.0, 1.0])])
        s, m, l = partition_sml(inst, 1)
        assert not s and not l and len(m) == 2

    def test_boundary_inclusive(self):
        # N=2: 0.2 >= 1/4 is false -> small; 1/4 itself is medium
        inst = make(1, "1/13", [(Fraction(1, 4), [1.0]), (Fraction(1, 5), [1.0])])
        s, m, l = partition_sml(inst, 1)
        assert s == [(1, 0)]
        assert m == [(0, 0)]

    def test_cover_disjoint(self):
        inst = make(2, "1/13", [(Fraction(1, 100), [0.5, 0.5]),
                                (5, [1.0]), (10**8, [0.25])])
        s, m, l = partition_sml(inst, 1)
        all_jobs = set(inst.job_ids())
        assert set(s) | set(m) | set(l) == all_jobs
        assert not (set(s) & set(m)) and not (set(m) & set(l))


def test_json_roundtrip(tmp_path):
    inst = make(2, "1/8", [(80, [0.25, 0.75]), (1, [1.0])])
    d = instance_to_dict(inst)
    assert d["epsilon"] == "1/8"
    again = instance_from_dict(d)
    assert again == inst


def test_from_dict_rejects_malformed_types():
    good = {"machines": 2, "epsilon": "1/13",
            "types": [{"size": "3", "jobs": [0.5, 1.0]}]}
    assert instance_from_dict({**good, "machines": 2.0}).machines == 2
    for fields in ({"machines": 2.7}, {"machines": True}, {"machines": "2"},
                   {"types": [{"size": "3", "jobs": [0.5, True]}]},
                   {"types": [{"size": True, "jobs": [0.5]}]}):
        with pytest.raises(InstanceError):
            instance_from_dict({**good, **fields})


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n,
                          unique=True))
    raw = []
    for p in sizes:
        k = draw(st.integers(1, 3))
        qs = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                           min_size=k, max_size=k))
        raw.append((p, qs))
    m = draw(st.integers(1, 3))
    return validate_and_canonicalize(m, "1/13", raw)


@given(instances())
@settings(max_examples=50)
def test_canonical_invariants(inst):
    sizes = [t.size for t in inst.types]
    assert sizes == sorted(sizes, reverse=True)
    assert len(set(sizes)) == len(sizes)
    for t in inst.types:
        assert list(t.qs) == sorted(t.qs)
    assert 1 <= inst.machines <= inst.total_jobs  # one machine per job at most


@given(instances())
@settings(max_examples=50)
def test_grouping_and_rounding_invariants(inst):
    groups = build_groups(inst)
    assert sorted(j for g in groups.groups for j in g) == list(
        range(inst.n_types)
    )
    out, new_groups, _ = round_for_divisibility(inst, groups)
    eps = inst.epsilon
    assert out.total_jobs == inst.total_jobs
    for h in range(1, new_groups.gamma):
        assert new_groups.reps[h - 1] % new_groups.reps[h] == 0
    for h, g in enumerate(new_groups.groups):
        grid = eps * new_groups.reps[h]
        for j in g:
            assert (out.types[j].size / grid).denominator == 1


def fraction_groups(inst):
    """Reference for ``build_groups`` in ``Fraction`` arithmetic."""
    eps2 = inst.epsilon * inst.epsilon
    groups, current = [], [0]
    for j in range(1, inst.n_types):
        if inst.types[j].size > eps2 * inst.types[j - 1].size:
            current.append(j)
        else:
            groups.append(tuple(current))
            current = [j]
    groups.append(tuple(current))
    for h in range(1, len(groups)):
        for j in groups[h - 1]:
            for jp in groups[h]:
                if inst.types[j].size * eps2 < inst.types[jp].size:
                    raise InstanceError(
                        f"groups {h - 1},{h} not eps^-2 separated "
                        f"({inst.types[j].size} vs {inst.types[jp].size})")
    return GroupStructure(groups=tuple(groups),
                          reps=tuple(inst.types[g[-1]].size for g in groups),
                          pmaxs=tuple(inst.types[g[0]].size for g in groups))


def fraction_round(inst, groups):
    """Reference for ``round_for_divisibility`` in ``Fraction``
    arithmetic, the rounded instance built by ``validate_and_canonicalize``
    and grouped by ``fraction_groups``."""
    eps, gamma = inst.epsilon, groups.gamma
    new_reps = list(groups.reps)
    for h in range(gamma - 2, -1, -1):
        new_reps[h] = ceil_to_multiple_of(groups.reps[h], new_reps[h + 1])
    rounded = []
    for h, g in enumerate(groups.groups):
        grid = eps * new_reps[h]
        for j in g:
            old = inst.types[j].size
            new = max(ceil_to_multiple_of(old, grid), new_reps[h])
            if new > (1 + eps) * old:
                raise InstanceError(
                    f"divisibility rounding grew {old} to {new}, beyond (1+eps)")
            rounded.append((new, inst.types[j].qs))
    sizes = [new for new, _qs in rounded]
    merges = sorted(p for p in set(sizes) if sizes.count(p) > 1)
    out = validate_and_canonicalize(inst.machines, eps, rounded)
    new_groups = fraction_groups(out)
    if not partition_unchanged(inst, groups, out, new_groups):
        raise InstanceError("divisibility rounding changed the group partition")
    for h in range(1, new_groups.gamma):
        if not divides(new_groups.reps[h], new_groups.reps[h - 1]):
            raise InstanceError("representative divisibility failed after rounding")
    return out, new_groups, merges


@st.composite
def rounding_inputs(draw):
    """eps = 1/E for E from 2 to 30 and 1 to 4 groups of 1 to 3 fractional
    sizes, each size a factor 1 + a/(4E) (a <= 8) or 1 + a/4 < E^2 above
    the last and each representative E^2 (1 + b/8) times the largest size
    below it; with the instance's own groups, or with any partition of the
    types into runs of consecutive types, which rounding may grow by more
    than 1 + eps."""
    e = draw(st.integers(2, 30))
    size = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 12)))
    raw = []
    for h in range(draw(st.integers(1, 4))):
        if h:
            size *= e * e * (1 + Fraction(draw(st.integers(0, 16)), 8))
        for i in range(draw(st.integers(1, 3))):
            if i:
                size *= 1 + draw(st.one_of(
                    st.integers(1, 8).map(lambda a: Fraction(a, 4 * e)),
                    st.integers(1, 4 * e * e - 5).map(lambda a: Fraction(a, 4))))
            qs = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                               min_size=1, max_size=2))
            raw.append((size, qs))
    inst = validate_and_canonicalize(draw(st.integers(1, 2)),
                                     Fraction(1, e), raw)
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


@given(rounding_inputs())
@example((make(1, "1/2", [(15, [0.5]), (4, [0.5]), (1, [0.5])]), None))
# 2 rounds up to 3, exactly (1 + eps) * 2: no growth error
@example((make(1, "1/2", [(2, [0.5]), (Fraction(3, 2), [0.5])]),
          GroupStructure(((0,), (1,)), (2, Fraction(3, 2)),
                         (2, Fraction(3, 2)))))
@settings(max_examples=300, deadline=None)
def test_rounding_matches_fraction_reference(instance):
    inst, groups = instance
    assert build_groups(inst) == fraction_groups(inst)
    groups = groups or build_groups(inst)
    try:
        want = fraction_round(inst, groups)
    except InstanceError as exc:
        with pytest.raises(InstanceError) as got:
            round_for_divisibility(inst, groups)
        assert str(got.value) == str(exc)
        return
    out, new_groups, merges = round_for_divisibility(inst, groups)
    assert (out, new_groups, merges) == want
    assert (out is inst) == (out == inst)
    assert all(type(t.size) is Fraction for t in out.types)
    assert all(type(p) is Fraction for p in merges)
