"""Torus-valued polynomials on F_2^n with exact dyadic arithmetic.

A non-classical polynomial is held in its monomial representation: a
constant plus terms bit * |x_S| / 2^{j+1} with |S| + j bounded by the
degree.  Tables (TorusFunction) hold one dyadic value per point of F_2^n
with a shared power-of-two denominator, so additive derivatives and
equality are exact integer computations throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import forms, gf2
from .errors import BudgetExceeded, DimensionMismatch, SizeGuard, SolverFailed
from .forms import MultilinearForm


@dataclass(frozen=True)
class TorusValue:
    """num / 2^log2_den mod 1, reduced so num is odd or zero."""

    num: int
    log2_den: int

    def __post_init__(self):
        if self.log2_den < 0:
            raise ValueError("log2_den must be nonnegative")
        n = self.num % (1 << self.log2_den) if self.log2_den else 0
        d = self.log2_den
        while d > 0 and n % 2 == 0 and n:
            n //= 2
            d -= 1
        if n == 0:
            d = 0
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "log2_den", d)

    @staticmethod
    def zero() -> "TorusValue":
        return TorusValue(0, 0)

    @staticmethod
    def half() -> "TorusValue":
        return TorusValue(1, 1)

    def __add__(self, other: "TorusValue") -> "TorusValue":
        d = max(self.log2_den, other.log2_den)
        return TorusValue(
            (self.num << (d - self.log2_den)) + (other.num << (d - other.log2_den)), d
        )

    def __neg__(self) -> "TorusValue":
        return TorusValue(-self.num, self.log2_den)

    def __sub__(self, other: "TorusValue") -> "TorusValue":
        return self + (-other)

    def scaled(self, m: int) -> int:
        """Numerator at denominator 2^m (requires m >= log2_den)."""
        if m < self.log2_den:
            raise ValueError("target denominator too small")
        return self.num << (m - self.log2_den)

    def __float__(self) -> float:
        return self.num / (1 << self.log2_den)


@dataclass(frozen=True)
class TorusFunction:
    """Table of 2^n torus values with a common denominator 2^log2_den."""

    n: int
    nums: np.ndarray
    log2_den: int

    def __post_init__(self):
        arr = np.asarray(self.nums, dtype=np.int64)
        if arr.shape != (1 << self.n,):
            raise DimensionMismatch("table length must be 2^n")
        arr = arr % (1 << self.log2_den)  # a copy; all zero when log2_den == 0
        arr.setflags(write=False)
        object.__setattr__(self, "nums", arr)

    @staticmethod
    def zeros(n: int) -> "TorusFunction":
        return TorusFunction(n, np.zeros(1 << n, dtype=np.int64), 0)

    @staticmethod
    def from_values(n: int, values) -> "TorusFunction":
        m = max((v.log2_den for v in values), default=0)
        nums = np.array([v.scaled(m) for v in values], dtype=np.int64)
        return TorusFunction(n, nums, m)

    def value_at(self, x) -> TorusValue:
        idx = gf2.vec_to_int(x) if not isinstance(x, (int, np.integer)) else int(x)
        return TorusValue(int(self.nums[idx]), self.log2_den)

    def values(self) -> list[TorusValue]:
        return [TorusValue(int(v), self.log2_den) for v in self.nums]

    def is_zero(self) -> bool:
        return not self.nums.any()

    def __add__(self, other: "TorusFunction") -> "TorusFunction":
        if self.n != other.n:
            raise DimensionMismatch("tables over different spaces")
        m = max(self.log2_den, other.log2_den)
        a = self.nums << (m - self.log2_den)
        b = other.nums << (m - other.log2_den)
        return TorusFunction(self.n, (a + b) % (1 << m), m)

    def __sub__(self, other: "TorusFunction") -> "TorusFunction":
        if self.n != other.n:
            raise DimensionMismatch("tables over different spaces")
        m = max(self.log2_den, other.log2_den)
        a = self.nums << (m - self.log2_den)
        b = other.nums << (m - other.log2_den)
        return TorusFunction(self.n, (a - b) % (1 << m), m)

    def __eq__(self, other):
        if not isinstance(other, TorusFunction) or self.n != other.n:
            return False
        m = max(self.log2_den, other.log2_den)
        return np.array_equal(
            self.nums << (m - self.log2_den), other.nums << (m - other.log2_den)
        )

    def __hash__(self):
        return hash((self.n, self.log2_den, self.nums.tobytes()))


def additive_derivative(f: TorusFunction, a) -> TorusFunction:
    """f(x + a) - f(x), exact, pointwise mod 1."""
    idx = gf2.vec_to_int(a) if not isinstance(a, (int, np.integer)) else int(a)
    if idx >= (1 << f.n):
        raise DimensionMismatch("shift outside the group")
    xor = np.arange(1 << f.n) ^ idx
    return TorusFunction(f.n, f.nums[xor] - f.nums, f.log2_den)


def derivative_tables(f: TorusFunction, depth: int) -> np.ndarray:
    """Numerators (mod 2^log2_den) of every depth-fold additive derivative:
    row p of the (2^{depth*n}, 2^n) result is D_{a_1} ... D_{a_depth} f, with
    p = (a_1, ..., a_depth) in row-major order."""
    size = 1 << f.n
    xor = np.arange(size)[:, None] ^ np.arange(size)  # xor[a, x] = x + a
    tables = f.nums[None, :].copy()
    for _ in range(depth):
        shifted = tables[:, xor]
        shifted -= tables[:, None, :]
        shifted %= 1 << f.log2_den
        tables = shifted.reshape(-1, size)
    return tables


def degree_check(f: TorusFunction, d: int, guard_bits: int = 26) -> bool:
    """All (d+1)-fold additive derivatives vanish, checked exhaustively.

    Zero intermediate tables prune the branch (their further derivatives
    vanish identically).
    """
    if d < 0:
        return f.is_zero()
    if (d + 2) * f.n > guard_bits:
        raise BudgetExceeded("degree check space exceeds the exhaustion guard")

    def rec(table: TorusFunction, depth: int) -> bool:
        if table.is_zero():
            return True
        if depth == 0:
            return table.is_zero()
        return all(
            rec(additive_derivative(table, a), depth - 1) for a in range(1 << f.n)
        )

    return rec(f, d + 1)


@dataclass(frozen=True)
class NonClassicalPoly:
    """Monomial representation: constant + sum c_{S,j} |x_S| / 2^{j+1}."""

    n: int
    degree_bound: int
    constant: TorusValue = field(default_factory=TorusValue.zero)
    coeffs: tuple = ()  # ((sorted S tuple, j), ...) for the terms with bit 1

    def __post_init__(self):
        seen = set()
        for s_tuple, j in self.coeffs:
            s = tuple(sorted(int(v) for v in s_tuple))
            if not s or len(set(s)) != len(s):
                raise DimensionMismatch("monomial set must be nonempty, distinct")
            if any(v < 0 or v >= self.n for v in s):
                raise DimensionMismatch("monomial index out of range")
            if j < 0 or len(s) + j > self.degree_bound:
                raise DimensionMismatch("monomial weight exceeds the degree bound")
            if (s, j) in seen:
                raise DimensionMismatch("duplicate monomial")
            seen.add((s, j))
        object.__setattr__(
            self,
            "coeffs",
            tuple(sorted((tuple(sorted(s)), int(j)) for s, j in self.coeffs)),
        )

    def monomials(self) -> tuple:
        return self.coeffs


def evaluate_poly(q: NonClassicalPoly, x) -> TorusValue:
    xv = gf2.as_gf2(x)
    if xv.shape != (q.n,):
        raise DimensionMismatch("point has wrong dimension")
    acc = q.constant
    for s, j in q.coeffs:
        if all(xv[v] for v in s):
            acc = acc + TorusValue(1, j + 1)
    return acc


def poly_to_table(q: NonClassicalPoly) -> TorusFunction:
    m = max([q.constant.log2_den] + [j + 1 for _, j in q.coeffs] + [0])
    idx = np.arange(1 << q.n, dtype=np.int64)
    acc = np.full(1 << q.n, q.constant.scaled(m), dtype=np.int64)
    for s, j in q.coeffs:
        mono = np.ones(1 << q.n, dtype=np.int64)
        for v in s:
            mono &= (idx >> v) & 1
        acc += mono << (m - (j + 1))
    return TorusFunction(q.n, acc % (1 << m), m)


def poly_from_table(f: TorusFunction, d: int) -> NonClassicalPoly:
    """Recover the monomial representation of a degree <= d table.

    Peels coefficients at set indicators in increasing set size; uniqueness
    of the representation makes the reading canonical.  Raises SolverFailed
    when the table is not a polynomial of degree at most d.
    """
    const = f.value_at(0)
    coeffs = []
    known: dict[tuple, int] = {}
    for size in range(1, min(f.n, d) + 1):
        for s in itertools.combinations(range(f.n), size):
            point = 0
            for v in s:
                point |= 1 << v
            residual = f.value_at(point) - const
            for (s2, j2) in known:
                if set(s2) <= set(s):
                    residual = residual - TorusValue(1, j2 + 1)
            scaled = residual.scaled(d + 1) if residual.log2_den <= d + 1 else None
            if scaled is None:
                raise SolverFailed("table requires depth beyond the degree bound")
            for j in range(d - size, -1, -1):
                if (scaled >> (d - j)) & 1:
                    coeffs.append((s, j))
                    known[(s, j)] = 1
                    scaled -= 1 << (d - j)
            if scaled:
                raise SolverFailed(
                    f"residual at {s} not representable within degree {d}"
                )
    q = NonClassicalPoly(f.n, d, const, tuple(coeffs))
    if poly_to_table(q) != f:
        raise SolverFailed("monomial reconstruction does not reproduce the table")
    return q


# ---------------------------------------------------------------------------
# integration of strongly symmetric forms
#
# Only monomials of full weight |S| + j = k survive k derivatives.  At basis
# shifts (e_{i_1}, ..., e_{i_k}) with support T, the k-fold alternating sum of
# |x_S| / 2^{j+1} at 0 vanishes unless T = S (a shift outside S cancels in
# pairs; if T is a proper subset, no subset of the shifts covers S), and for
# T = S it is prod_{v in S} (-1)^{m_v+1} 2^{m_v-1} / 2^{j+1} = 1/2 mod 1, with
# m_v the multiplicity of v.  So q = sum_S sigma(S) |x_S| / 2^{k-|S|+1}.
# ---------------------------------------------------------------------------


def integrate(
    sigma: MultilinearForm, verify: bool = True, guard_bits: int = 22
) -> NonClassicalPoly:
    """A polynomial q of degree <= k whose k-fold derivatives realize
    half the indicator of sigma: each derivative table equals |sigma(a)|/2.

    Closed form: q = sum over supports S (|S| <= k) of sigma(S) |x_S| /
    2^{k-|S|+1}, where sigma(S) is sigma's coefficient at any tuple with
    support S; strong symmetry makes it well defined.  Each such monomial's
    k-fold derivative at basis shifts is 1/2 exactly at the shift tuples of
    support S and 0 elsewhere, and multi-additivity of both sides in each
    shift slot extends the identity from basis tuples to all of G^k.  The
    full identity is re-verified before returning unless disabled.
    """
    if not forms.is_strongly_symmetric(sigma):
        raise DimensionMismatch("integration requires a strongly symmetric form")
    n, k = sigma.dim, sigma.arity
    classes, _ = forms._support_classes(n, k)
    coeffs = []
    for rep in classes[sigma.coeffs.reshape(-1)[classes] == 1]:
        s = tuple(sorted({int(v) for v in np.unravel_index(rep, (n,) * k)}))
        coeffs.append((s, k - len(s)))
    q = NonClassicalPoly(n, k, TorusValue.zero(), tuple(coeffs))
    if verify:
        if (k + 1) * n > guard_bits:
            raise SizeGuard("full verification grid exceeds the guard")
        ok, _ = derivative_identity_check(poly_to_table(q), sigma)
        if not ok:
            raise SolverFailed("verification of the derivative identity failed")
    return q


def derivative_identity_check(
    table: TorusFunction,
    sigma: MultilinearForm,
    sample_tuples=None,
) -> tuple[bool, int]:
    """Check k-fold derivative tables against |sigma(a)|/2 for every shift
    tuple (or the supplied sample); returns (ok, tuples_checked).

    The full grid uses g_p = D_p q over prefixes p of k - 1 shifts:
    D_{p,a} q = sigma(p, a)/2 for all (p, a) iff g_p(x) - g_p(0) = sigma(p, x)/2
    for all (p, x) (take x = 0 one way; the other uses sigma(p, x + a) =
    sigma(p, x) + sigma(p, a) and -1/2 = 1/2).  On failure it counts the
    tuples up to the first failing one in row-major order.
    """
    n, k = sigma.dim, sigma.arity
    # a table with log2_den 0 is zero, so its numerators serve at denominator 2^m
    m = max(table.log2_den, 1)
    if sample_tuples is not None:
        checked = 0
        for tup in sample_tuples:
            tab = table
            for a in tup:
                tab = additive_derivative(tab, a)
            bit = forms.evaluate(sigma, [gf2.vec_from_int(int(a), n) for a in tup])
            checked += 1
            if tab != TorusFunction(n, np.full(1 << n, bit << (m - 1), dtype=np.int64), m):
                return False, checked
        return True, checked
    g = derivative_tables(table, k - 1)
    half_sigma = forms.evaluation_table(sigma).reshape(g.shape).astype(np.int64) << (m - 1)
    defect = (g - g[:, :1] - half_sigma) % (1 << m)
    bad = np.flatnonzero(defect.any(axis=1))
    if bad.size == 0:
        return True, 1 << (k * n)
    # D_{p,a} q is constant |sigma(p,a)|/2 exactly when the defect row is a-periodic
    row = defect[bad[0]]
    xor = np.arange(1 << n)[:, None] ^ np.arange(1 << n)
    first_a = int(np.argmin((row[xor] == row).all(axis=1)))
    return False, int(bad[0]) * (1 << n) + first_a + 1
