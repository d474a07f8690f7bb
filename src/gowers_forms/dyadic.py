"""Exact dyadic rationals num / 2^log2_den, stored in canonical reduced form."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import StepFailed

_PRECISION_BITS = 24  # a log2_bracket is at most 2^-24 wide


@dataclass(frozen=True)
class Dyadic:
    num: int
    log2_den: int

    def __post_init__(self):
        if self.log2_den < 0:
            raise ValueError("log2_den must be nonnegative")
        n, d = self.num, self.log2_den
        while d > 0 and n % 2 == 0 and n != 0:
            n //= 2
            d -= 1
        if n == 0:
            d = 0
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "log2_den", d)

    @classmethod
    def zero(cls):
        return cls(0, 0)

    @classmethod
    def one(cls):
        return cls(1, 0)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.log2_den)

    def is_power_of_two(self) -> bool:
        n = abs(self.num)
        return n != 0 and (n & (n - 1)) == 0

    def scaled(self, m: int) -> int:
        """Numerator at denominator 2^m (requires m >= log2_den)."""
        if m < self.log2_den:
            raise ValueError("target denominator too small")
        return self.num << (m - self.log2_den)

    def __float__(self) -> float:
        return self.num / (1 << self.log2_den)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        d = max(self.log2_den, other.log2_den)
        return type(self)(
            (self.num << (d - self.log2_den)) + (other.num << (d - other.log2_den)), d
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + Dyadic(-other.num, other.log2_den)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.log2_den + other.log2_den)

    def __lt__(self, other):
        return self.as_fraction() < _coerce(other)

    def __le__(self, other):
        return self.as_fraction() <= _coerce(other)

    def __gt__(self, other):
        return self.as_fraction() > _coerce(other)

    def __ge__(self, other):
        return self.as_fraction() >= _coerce(other)


def _coerce(x) -> Fraction:
    if isinstance(x, Dyadic):
        return x.as_fraction()
    return Fraction(x)


def log2_bracket(x: Fraction) -> tuple[Fraction, Fraction]:
    """Dyadic bounds lo <= log2(x) <= hi with hi - lo <= 2^-24.

    Interval arithmetic on wide integer mantissas; the bracket is a single
    point exactly when x is a power of two.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log2 of a nonpositive number")
    num, den = x.numerator, x.denominator
    # write x = 2^e * m with m in [1, 2)
    e = num.bit_length() - den.bit_length()
    if num * (1 << max(0, -e)) < den * (1 << max(0, e)):
        e -= 1
    if num * (1 << max(0, -(e + 1))) >= den * (1 << max(0, e + 1)):
        e += 1
    P = 64
    scaled_num = num * (1 << (P + max(0, -e)))
    scaled_den = den * (1 << max(0, e))
    lo = scaled_num // scaled_den
    hi = lo + (0 if scaled_num % scaled_den == 0 else 1)
    one, two = 1 << P, 2 << P
    if not one <= lo <= hi <= two:
        raise StepFailed("log2_bracket", "mantissa bracket escaped [1, 2]")
    if lo == hi == one:
        return (Fraction(e), Fraction(e))
    frac_lo = Fraction(0)
    for i in range(1, _PRECISION_BITS + 1):
        lo = (lo * lo) >> P
        hi = -((-hi * hi) >> P)  # ceil division by 2^P
        if hi < two:
            continue  # digit 0 for the whole interval
        if lo >= two:
            frac_lo += Fraction(1, 1 << i)  # digit 1 for the whole interval
            lo >>= 1
            hi = -(-hi >> 1)
            continue
        # interval straddles 2: remaining fraction lies in [0, 2^-(i-1)]
        return (e + frac_lo, e + frac_lo + Fraction(1, 1 << (i - 1)))
    return (e + frac_lo, e + frac_lo + Fraction(1, 1 << _PRECISION_BITS))
