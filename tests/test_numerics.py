import hashlib
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bernsched import numerics
from bernsched.numerics import (
    NumericsError,
    SeedStream,
    ceil_to_multiple_of,
    divides,
    floor_div,
    format_rat,
    parse_rat,
    uniform_block,
)


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
    assert uniform_block(0, 2**64 - 3, 3, 1).shape == (3, 1)
    with pytest.raises(NumericsError):
        uniform_block(0, 2**64 - 2, 3, 1)


stream_indices = st.one_of(st.integers(0, 2**16),
                           st.integers(2**32, 2**64 - 64))


@given(st.integers(-(2**63), 2**64 - 1), stream_indices,
       st.integers(1, 64), st.integers(0, 9),
       st.one_of(st.integers(1, 3), st.integers(4, 96)))
def test_uniform_block_is_numpy_philox(seed, first, rows, draws, per_pass):
    # pins numpy's Philox4x64-10 and its random(): 1-9 draws cross the
    # four-word output blocks, passes of 1-3 blocks split the rows one to
    # three at a time, and larger ones leave lane arrays of several rows
    # and blocks, the last one short.  Each shape runs with both operand
    # layouts: (2, 1, 1) operands in every pass (bound 0) and operands at
    # the lanes' shape in every pass (bound 2**62)
    want = [SeedStream(seed, first + r).generator().random(draws).tolist()
            for r in range(rows)]
    for same_shape in (0, 2**62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "_PHILOX_PASS", per_pass)
            mp.setattr(numerics, "_PHILOX_SAME_SHAPE", same_shape)
            block = uniform_block(seed, first, rows, draws)
        assert block.shape == (rows, draws)
        assert block.tolist() == want, same_shape


#: SHA-256 of ``uniform_block(*args).tobytes()``: the rows x draws shapes
#: that Monte-Carlo uses, and 20,000 rows, which passes of 16,384 blocks
#: split; pinned from the earlier one-lane kernel.
UNIFORM_BLOCK_SHA256 = {
    (7, 0, 2000, 1):
        "215d5f6e369d2cf5b3f3003ba53f437e46fbe998fa72011495b5b752d86d6a0d",
    (7, 0, 2000, 3):
        "4942cddff3c833be01dad143babaaef0cf6113ca40ad13a0130a6bb30066ffb9",
    (7, 0, 2000, 6):
        "a6fdb84ef29a426e0d9a91245145ecbae3e8bd257534ac6396a19eed1a0919bd",
    (7, 0, 2000, 9):
        "fd2a269e99662af2b7ef931e7ee63af908ba886dd83a0024fd4887335823c9ce",
    (7, 0, 20000, 1):
        "7c2a21e9775a6431fc74be2979796467b0f7a5c19187ca75f07e04428806d2e3",
    (7, 0, 20000, 6):
        "c3377d7efdabf656ca54c6d627dd862e73d48b057c2c8352412055636c1a3571",
    (-1, 2**63 - 1000, 2000, 3):
        "afaaed798dbe3833a4c2c59d8bd41dbf7bb1d92156b34c7ee017f7c70cb7b3b7",
    (2**63 + 5, 2**64 - 2001, 2000, 6):
        "6aa8ba4a629f3a969c04176bd571b4499a821a9c9f87a0929071f34f2a2a2e1f",
}


@pytest.mark.parametrize("args", list(UNIFORM_BLOCK_SHA256))
def test_uniform_block_golden_bits(args):
    digest = hashlib.sha256(uniform_block(*args).tobytes()).hexdigest()
    assert digest == UNIFORM_BLOCK_SHA256[args]
