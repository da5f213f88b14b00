"""Exact rational time arithmetic and reproducible random substreams.

Times, sizes and grid points are nonnegative ``fractions.Fraction`` values
at every public interface, so that grid membership and load-profile
equality are bit-exact.  Inside, the solvers' shared core and the time
grid's queries work on integer multiples of a common unit instead (the
grid's is ``TimeGrid.unit``); the Fraction helpers here serve input
parsing, instance rounding and the grid's construction.  Probabilities
and reported expected costs are ordinary floats.
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


class SeedStream:
    """Deterministic pseudo-random substream.

    A (master_seed, stream_index) pair identifies an independent Philox
    counter-based stream; Monte Carlo trial i uses stream_index i, so
    trials are reproducible and trivially parallel.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        if stream_index < 0:
            raise NumericsError("stream_index must be nonnegative")
        self.master_seed = int(master_seed) & (2**64 - 1)
        self.stream_index = int(stream_index)

    def generator(self) -> np.random.Generator:
        bg = np.random.Philox(key=[self.master_seed, self.stream_index])
        return np.random.Generator(bg)

    def __repr__(self):
        return f"SeedStream({self.master_seed}, {self.stream_index})"
