"""Exact rational time arithmetic and reproducible random substreams.

Times, sizes and grid points are nonnegative ``fractions.Fraction`` values
at every public interface, so that grid membership and load-profile
equality are bit-exact.  Inside, the solvers' shared core and the time
grid's queries work on integer multiples of a common unit instead (the
grid's is ``TimeGrid.unit``); the Fraction helpers here serve input
parsing, instance rounding and the grid's construction.  Probabilities
and reported expected costs are ordinary floats.

Random numbers come from numpy's Philox4x64-10 counter generator, one
stream per (master_seed, stream_index) key of two unsigned 64-bit words:
``SeedStream`` gives one stream as a numpy generator, and
``uniform_block`` computes the same draws for many consecutive streams
in one vectorized pass.
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


def _mulhilo(m: int, x):
    """(high, low) 64-bit words of the 128-bit products m * x, for a
    constant m and a uint64 array x; the high word is built from 32-bit
    halves, whose products fit in 64 bits."""
    low32 = np.uint64(0xFFFFFFFF)
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> np.uint64(32), x & low32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    mid = (lo_lo >> np.uint64(32)) + (lo_hi & low32) + (hi_lo & low32)
    hi = (m_hi * x_hi + (lo_hi >> np.uint64(32)) + (hi_lo >> np.uint64(32))
          + (mid >> np.uint64(32)))
    return hi, np.uint64(m) * x


def _philox_words(seed: int, first: int, rows: int, blocks: int):
    """The first ``blocks`` four-word output blocks of the streams
    first .. first+rows-1, as a (rows x 4*blocks) uint64 matrix."""
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), (rows, 1))
    c1 = c2 = c3 = np.zeros((rows, blocks), dtype=np.uint64)
    k0 = seed
    k1 = np.arange(rows, dtype=np.uint64)[:, None] + np.uint64(first)
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(rows, 4 * blocks)


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
        words = _philox_words(seed, first + r, min(step, rows - r), blocks)
        out[r:r + len(words)] = (words[:, :draws] >> np.uint64(11)) * 2.0**-53
    return out
