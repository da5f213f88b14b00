import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bernsched.numerics import (
    NumericsError,
    SeedStream,
    format_rat,
    parse_rat,
)
from oracles import ceil_to_multiple_of, divides, floor_div


def test_parse_and_format_roundtrip():
    assert parse_rat("169") == 169
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat(7) == 7
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(5)) == "5"
    for bad in ("-1/2", "abc", "3/0"):
        with pytest.raises(NumericsError):
            parse_rat(bad)


def test_ceil_to_multiple_examples():
    assert ceil_to_multiple_of(Fraction(1000), Fraction(3)) == 1002
    assert ceil_to_multiple_of(Fraction(27), Fraction(2)) == 28
    assert ceil_to_multiple_of(Fraction(169), Fraction(13)) == 169


rationals = st.fractions(min_value=0, max_value=10**6)
steps = st.fractions(min_value=Fraction(1, 1000), max_value=1000)


@given(rationals, steps)
def test_ceil_to_multiple_properties(a, g):
    r = ceil_to_multiple_of(a, g)
    assert r >= a
    assert divides(g, r)
    assert r - a < g


@given(rationals, steps)
def test_floor_div_properties(a, g):
    k = floor_div(a, g)
    assert k * g <= a < (k + 1) * g


def test_divides():
    assert divides(Fraction(13), Fraction(169))
    assert not divides(Fraction(13), Fraction(170))
    assert divides(Fraction(1, 8), Fraction(5, 8))
    assert divides(Fraction(0), Fraction(0))
    assert not divides(Fraction(0), Fraction(1))


def test_seed_stream_reproducible():
    a = SeedStream(42, 3).generator().random(5)
    b = SeedStream(42, 3).generator().random(5)
    assert list(a) == list(b)


def test_seed_stream_independent():
    a = SeedStream(42, 0).generator().random(5)
    b = SeedStream(42, 1).generator().random(5)
    assert list(a) != list(b)


def test_seed_stream_key_is_uint64():
    # a list key sends seeds at and above 2**63 (so every negative seed)
    # through float64, where 2**63 and 2**63+1 collide and -1 casts to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streams = {tuple(SeedStream(s, 5).generator().random(4))
                   for s in (0, -1, 2**63, 2**63 + 1)}
    assert len(streams) == 4
    assert SeedStream(-1).master_seed == 2**64 - 1


def test_stream_index_range():
    for bad in (-1, 2**64):
        with pytest.raises(NumericsError):
            SeedStream(0, bad)
    assert SeedStream(0, 2**64 - 1).stream_index == 2**64 - 1
