"""Exact rational time arithmetic and reproducible random substreams.

Times, sizes and grid points are nonnegative ``fractions.Fraction`` values
at every public interface, so that grid membership and load-profile
equality are bit-exact.  Inside, everything from grouping and rounding
on works on integers instead: an instance's sizes in units of 1/L
(``Instance.unit``), the grid's construction over one common denominator
and its queries in ``TimeGrid.unit``, the solvers' core in the rule's
unit.  The Fraction helpers here serve input parsing and output.
Probabilities are ordinary floats, exact dyadic rationals that the
integer view holds as numerators over a power of two, and reported
expected costs are floats.

Random numbers come from numpy's Philox4x64-10 counter generator, one
stream per (master_seed, stream_index) key of two unsigned 64-bit words;
``SeedStream`` gives one stream as a numpy generator.  Monte-Carlo takes
all the trials of one call from one stream, so numpy draws a whole block
of trials in one call.
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


#: Stream keys and indices are unsigned 64-bit words.
_MASK64 = 2**64 - 1


class SeedStream:
    """Deterministic pseudo-random substream.

    A (master_seed, stream_index) pair identifies an independent Philox
    counter-based stream, keyed by the two unsigned 64-bit words
    (master_seed mod 2**64, stream_index); so seed -1 is seed 2**64-1.
    Instance generators draw instance k from stream_index k, and one
    Monte-Carlo call draws all its trials in order from stream_index 0.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        if not 0 <= stream_index <= _MASK64:
            raise NumericsError("stream_index must be in [0, 2**64)")
        self.master_seed = int(master_seed) & _MASK64
        self.stream_index = int(stream_index)

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"SeedStream({self.master_seed}, {self.stream_index})"
