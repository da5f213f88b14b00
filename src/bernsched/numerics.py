"""Exact rational time arithmetic and reproducible random substreams.

Times, sizes and grid points are nonnegative ``fractions.Fraction`` values
at every public interface, so that grid membership and load-profile
equality are bit-exact.  Inside, everything from grouping and rounding
on works on integers instead: an instance's sizes in units of 1/L
(``Instance.unit``), the grid's construction over one common denominator
and its queries in ``TimeGrid.unit``, the solvers' core in the rule's
unit.  The Fraction helpers here serve input parsing and output;
``floor_div``, ``ceil_to_multiple_of`` and ``divides`` remain for the
tests' Fraction references of the rounding and the grid.  Probabilities
are ordinary floats, exact dyadic rationals that the integer view holds
as numerators over a power of two, and reported expected costs are
floats.

Random numbers come from numpy's Philox4x64-10 counter generator, one
stream per (master_seed, stream_index) key of two unsigned 64-bit words:
``SeedStream`` gives one stream as a numpy generator, and
``uniform_block`` computes the same draws for many consecutive streams
in vectorized passes.  A pass holds counter words 0 and 2 as the two
lanes of one uint64 array and words 1 and 3 as a second, so each numpy
call of a round serves both of the round's multiplications; the 128-bit
products' high words come from 32-bit halves in three carry steps, and
the first round, on the counter (b, 0, 0, 0), is computed on Python ints.
A small pass holds its round operands at the lanes' own shape, a large
one broadcasts them (``_PHILOX_SAME_SHAPE``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class NumericsError(ValueError):
    pass


def parse_rat(s) -> Fraction:
    """Parse "num/den" or "num" (also accepts ints) into a nonnegative
    Fraction; a malformed or negative value raises NumericsError."""
    try:
        f = Fraction(s if isinstance(s, (int, Fraction)) else str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise NumericsError(f"not a rational: {s!r}") from exc
    if f < 0:
        raise NumericsError(f"negative rational {s!r}")
    return f


def format_rat(f: Fraction) -> str:
    """Serialize as "num/den", or "num" when the denominator is 1."""
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def floor_div(a: Fraction, g: Fraction) -> int:
    """Largest integer k with k*g <= a."""
    if g <= 0:
        raise NumericsError("floor_div by nonpositive step")
    return (a.numerator * g.denominator) // (a.denominator * g.numerator)


def ceil_to_multiple_of(a: Fraction, g: Fraction) -> Fraction:
    """Smallest multiple of g that is >= a."""
    if g <= 0:
        raise NumericsError("ceil_to_multiple_of with nonpositive grid")
    q, r = divmod(a.numerator * g.denominator, a.denominator * g.numerator)
    if r:
        q += 1
    return q * g


def divides(g: Fraction, a: Fraction) -> bool:
    """True iff a is an integer multiple of g."""
    if g == 0:
        return a == 0
    return (a / g).denominator == 1


#: Stream keys and indices are unsigned 64-bit words.
_MASK64 = 2**64 - 1

# numpy's Philox4x64-10: the round multipliers and the Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
#: Philox output blocks per pass of ``uniform_block``: enough to amortize
#: numpy's per-call cost, few enough that the temporaries stay in cache.
_PHILOX_PASS = 1 << 14
#: Most lane elements (2 x blocks x rows; 2,048 trials of up to four
#: draws) of a pass whose round operands have the lanes' shape, so numpy
#: skips broadcasting; (2, 1, 1) operands cost less in larger passes.
_PHILOX_SAME_SHAPE = 1 << 12


def _stream_key(master_seed: int, stream_index: int):
    """The Philox key words (master_seed mod 2**64, stream_index)."""
    if not 0 <= stream_index <= _MASK64:
        raise NumericsError("stream_index must be in [0, 2**64)")
    return int(master_seed) & _MASK64, int(stream_index)


class SeedStream:
    """Deterministic pseudo-random substream.

    A (master_seed, stream_index) pair identifies an independent Philox
    counter-based stream, keyed by the two unsigned 64-bit words
    (master_seed mod 2**64, stream_index); so seed -1 is seed 2**64-1.
    Monte Carlo trial i uses stream_index i, so trials are reproducible
    and trivially parallel.  ``generator`` gives one stream for scalar
    use; ``uniform_block`` draws the same numbers for a block of
    consecutive streams at once.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        self.master_seed, self.stream_index = _stream_key(master_seed,
                                                          stream_index)

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"SeedStream({self.master_seed}, {self.stream_index})"


def _philox_draws(seed: int, first: int, rows: int, blocks: int):
    """The draws of the first ``blocks`` four-word output blocks of the
    streams first .. first+rows-1, as a (rows x 4*blocks) float64 matrix:
    word w gives the draw (w >> 11) * 2**-53.

    Words 0 and 2 are the lanes of the (2 x blocks x rows) array ``x``,
    words 1 and 3 those of ``y``.  The multipliers, the Weyl increments
    and the key words have the lanes' shape when the lanes hold at most
    ``_PHILOX_SAME_SHAPE`` elements; otherwise the multipliers and
    increments broadcast per lane, and the key, per lane and row, along
    the blocks.  The first round maps the counter (b, 0, 0, 0) to
    (k0, 0, hi(M0 b) ^ k1, lo(M0 b)).
    """
    low32, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    lanes = (2, blocks, rows)
    shape = lanes if 2 * blocks * rows <= _PHILOX_SAME_SHAPE else (2, 1, 1)
    m, weyl = (np.empty(shape, dtype=np.uint64) for _ in range(2))
    m[0], m[1] = _PHILOX_M
    weyl[0], weyl[1] = _PHILOX_W
    m_hi, m_lo = m >> shift, m & low32
    key = np.empty((2, shape[1], rows), dtype=np.uint64)
    key[0] = seed
    key[1] = np.arange(rows, dtype=np.uint64) + np.uint64(first)
    # the first round: (hi, lo) of M0 b for each block's counter b
    hi_lo = [divmod(_PHILOX_M[0] * b, 1 << 64) for b in range(1, blocks + 1)]
    hi_lo = np.array(hi_lo, dtype=np.uint64).reshape(blocks, 2)
    x = np.empty(lanes, dtype=np.uint64)
    y = np.empty_like(x)
    x[0], y[0] = seed, 0
    np.bitwise_xor(key[1], hi_lo[:, :1], out=x[1])
    y[1] = hi_lo[:, 1:]
    y_next, x_hi, t, u = (np.empty_like(x) for _ in range(4))
    for _ in range(1, _PHILOX_ROUNDS):
        key += weyl
        # the low words (lo0, lo1) are the next round's (word 3, word 1)
        np.multiply(m, x, out=y_next[::-1])
        np.right_shift(x, shift, out=x_hi)
        x &= low32
        # hi = m_hi x_hi + hi32(t) + hi32(u), where
        # t = m_lo x_hi + hi32(m_lo x_lo) and u = m_hi x_lo + lo32(t)
        np.multiply(m_lo, x_hi, out=t)
        np.multiply(m_lo, x, out=u)
        u >>= shift
        t += u
        np.bitwise_and(t, low32, out=u)
        x *= m_hi
        u += x
        x_hi *= m_hi
        t >>= shift
        x_hi += t
        u >>= shift
        x_hi += u
        # (hi1 ^ word 1 ^ k0, hi0 ^ word 3 ^ k1) are the next (word 0, word 2)
        np.bitwise_xor(x_hi[::-1], y, out=x)
        x ^= key
        y, y_next = y_next, y
    del y_next, x_hi, t, u  # free the round buffers before the output
    x >>= np.uint64(11)
    y >>= np.uint64(11)
    draws = np.empty((rows, blocks, 2, 2))
    by_lane = draws.transpose(2, 1, 0, 3)
    np.multiply(x, 2.0**-53, out=by_lane[..., 0])  # exact: x < 2**53
    np.multiply(y, 2.0**-53, out=by_lane[..., 1])
    return draws.reshape(rows, 4 * blocks)


def uniform_block(master_seed: int, first_index: int, rows: int, draws: int):
    """A (rows x draws) float64 matrix whose row r is, bit for bit,
    ``SeedStream(master_seed, first_index + r).generator().random(draws)``.

    numpy's Philox4x64-10 is computed directly, over many rows at once.
    A fresh stream has counter 0 and increments it before each block of
    four output words, so block b = 1, 2, ... encrypts the counter words
    (b, 0, 0, 0) under the key (master_seed, stream index), and a draw
    is (word >> 11) * 2**-53.
    """
    seed, first = _stream_key(master_seed, first_index)
    if rows:
        _stream_key(seed, first + rows - 1)
    blocks = -(-draws // 4)
    step = max(1, _PHILOX_PASS // max(blocks, 1))
    out = np.empty((rows, draws))
    for r in range(0, rows, step):
        n = min(step, rows - r)
        out[r:r + n] = _philox_draws(seed, first + r, n, blocks)[:, :draws]
    return out
