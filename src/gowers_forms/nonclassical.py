"""Torus-valued polynomials on F_2^n with exact dyadic arithmetic.

A non-classical polynomial is held in its monomial representation: a
constant plus terms bit * |x_S| / 2^{j+1} with |S| + j bounded by the
degree.  Tables (TorusFunction) hold one dyadic value per point of F_2^n
with a shared power-of-two denominator 2^m, so additive derivatives and
equality are exact integer computations throughout.

A table has exactly one expansion f(0) + sum_{S nonempty} a_S x_S / 2^m
with a_S in Z/2^m, found by the Mobius transform over subsets,
a_S = sum over T within S of (-1)^{|S| - |T|} f(1_T).  Binary digit m - 1 - j of a_S is
the coefficient of |x_S| / 2^{j+1}, so the digits are the monomial
representation, and the degree is the largest |S| + j among them (Tao and
Ziegler, 2012).  ``degree`` and ``poly_from_table`` both read these digits
off one n * 2^n transform; ``degree`` is exact at every size, with no guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import forms, gf2
from .dyadic import Dyadic
from .errors import DimensionMismatch, SolverFailed, require_work
from .forms import MultilinearForm


class TorusValue(Dyadic):
    """A Dyadic taken mod 1: num / 2^log2_den with 0 <= num < 2^log2_den."""

    def __post_init__(self):
        if self.log2_den >= 0:
            object.__setattr__(self, "num", self.num % (1 << self.log2_den))
        super().__post_init__()


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
    def from_signs(signs) -> "TorusFunction":
        arr = np.asarray(signs, dtype=np.int64)
        n = int(arr.shape[0]).bit_length() - 1
        if arr.shape != (1 << n,) or not (np.abs(arr) == 1).all():
            raise DimensionMismatch("signs must be a +-1 table of length 2^n")
        return TorusFunction(n, (1 - arr) // 2, 1)

    @staticmethod
    def from_poly(q: "NonClassicalPoly") -> "TorusFunction":
        return poly_to_table(q)

    def value_at(self, x) -> TorusValue:
        return TorusValue(int(self.nums[gf2.point_index(x, self.n)]), self.log2_den)

    def values(self) -> list[TorusValue]:
        return [TorusValue(int(v), self.log2_den) for v in self.nums]

    def is_zero(self) -> bool:
        return not self.nums.any()

    def __eq__(self, other):
        if not isinstance(other, TorusFunction) or self.n != other.n:
            return False
        m = max(self.log2_den, other.log2_den)
        return np.array_equal(
            self.nums << (m - self.log2_den), other.nums << (m - other.log2_den)
        )

    def __hash__(self):
        # equal tables may differ in log2_den: hash at the least denominator
        low = int(np.bitwise_or.reduce(self.nums)) | (1 << self.log2_den)
        t = (low & -low).bit_length() - 1
        return hash((self.n, self.log2_den - t, (self.nums >> t).tobytes()))


def additive_derivative(f: TorusFunction, a) -> TorusFunction:
    """f(x + a) - f(x), exact, pointwise mod 1."""
    xor = np.arange(1 << f.n) ^ gf2.point_index(a, f.n)
    return TorusFunction(f.n, f.nums[xor] - f.nums, f.log2_den)


def derivative_tables(f: TorusFunction, depth: int) -> np.ndarray:
    """Numerators (mod 2^log2_den) of every depth-fold additive derivative:
    row p of the (2^{depth*n}, 2^n) result is D_{a_1} ... D_{a_depth} f, with
    p = (a_1, ..., a_depth) in row-major order.  Cost: 2^{(depth+1)n} cells."""
    require_work(1 << ((depth + 1) * f.n), "derivative tables")
    size = 1 << f.n
    tables = f.nums[None, :].copy()
    for _ in range(depth):
        shifted = tables[:, np.arange(size)[:, None] ^ np.arange(size)]  # [p, a, x]: x + a
        shifted -= tables[:, None, :]
        shifted %= 1 << f.log2_den
        tables = shifted.reshape(-1, size)
    return tables


def _monomial_digits(f: TorusFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask of S, j, |S| + j) for every monomial |x_S| / 2^{j+1}, S nonempty,
    in the representation of f: the binary digits of its Mobius transform."""
    m = f.log2_den
    a = f.nums.copy()
    for v in range(f.n):
        pairs = a.reshape(-1, 2, 1 << v)  # pairs[:, 1] holds the sets containing v
        pairs[:, 1] -= pairs[:, 0]
        pairs[:, 1] %= 1 << m
    digits = (a[1:] >> (m - 1 - np.arange(m))[:, None]) & 1  # row j: 1 / 2^{j+1}
    js, masks = np.nonzero(digits)
    masks += 1
    return masks, js, ((masks[:, None] >> np.arange(f.n)) & 1).sum(axis=1) + js


def degree(f: TorusFunction) -> int:
    """Degree of the table: the largest |S| + j over its monomials; 0 for a
    nonzero constant and -1 for the zero table."""
    _, _, weights = _monomial_digits(f)
    if weights.size:
        return int(weights.max())
    return 0 if f.nums[0] else -1


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
        if self.degree_bound < 0 and self.constant.num:
            raise DimensionMismatch("a nonzero constant exceeds a negative degree bound")
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
    """Recover the monomial representation of a degree <= d table from its
    Mobius digits.  Raises SolverFailed when degree(f) > d."""
    masks, js, weights = _monomial_digits(f)
    # with no monomial the table is the constant f(0), of degree 0 unless zero
    if (weights > d).any() or (d < 0 and f.nums[0]):
        raise SolverFailed(f"table has degree above {d}")
    coeffs = tuple(
        (tuple(v for v in range(f.n) if (mask >> v) & 1), j)
        for mask, j in zip(masks.tolist(), js.tolist())
    )
    q = NonClassicalPoly(f.n, d, f.value_at(0), coeffs)
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


def integrate(sigma: MultilinearForm, verify: bool = True) -> NonClassicalPoly:
    """A polynomial q of degree <= k whose k-fold derivatives realize
    half the indicator of sigma: each derivative table equals |sigma(a)|/2.

    Closed form: q = sum over supports S (|S| <= k) of sigma(S) |x_S| /
    2^{k-|S|+1}, where sigma(S) is sigma's coefficient at any tuple with
    support S; strong symmetry makes it well defined.  Each such monomial's
    k-fold derivative at basis shifts is 1/2 exactly at the shift tuples of
    support S and 0 elsewhere, and multi-additivity of both sides in each
    shift slot extends the identity from basis tuples to all of G^k.  The
    full identity is re-verified before returning unless disabled.
    Cost: n^k * k cells, and 2^{kn} cells to verify.
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
        ok, _ = derivative_identity_check(poly_to_table(q), sigma)
        if not ok:
            raise SolverFailed("verification of the derivative identity failed")
    return q


def derivative_identity_check(table: TorusFunction, sigma: MultilinearForm) -> tuple[bool, int]:
    """Check k-fold derivative tables against |sigma(a)|/2 for every shift
    tuple; returns (ok, tuples_checked).

    The full grid uses g_p = D_p q over prefixes p of k - 1 shifts:
    D_{p,a} q = sigma(p, a)/2 for all (p, a) iff g_p(x) - g_p(0) = sigma(p, x)/2
    for all (p, x) (take x = 0 one way; the other uses sigma(p, x + a) =
    sigma(p, x) + sigma(p, a) and -1/2 = 1/2).  On failure it counts the
    tuples up to the first failing one in row-major order.  Cost: 2^{kn} cells.
    """
    n, k = sigma.dim, sigma.arity
    # a table with log2_den 0 is zero, so its numerators serve at denominator 2^m
    m = max(table.log2_den, 1)
    g = derivative_tables(table, k - 1)
    half_sigma = forms.truth_table(sigma).reshape(g.shape).astype(np.int64) << (m - 1)
    defect = (g - g[:, :1] - half_sigma) % (1 << m)
    bad = np.flatnonzero(defect.any(axis=1))
    if bad.size == 0:
        return True, 1 << (k * n)
    # D_{p,a} q is constant |sigma(p,a)|/2 exactly when the defect row is
    # a-periodic.  Its periods form a subspace, which holds every a < 2^i
    # when it holds e_0 .. e_{i-1}, so the first failing a is a unit vector.
    row = defect[bad[0]]
    x = np.arange(1 << n)
    first_a = next(1 << i for i in range(n) if (row[x ^ (1 << i)] != row).any())
    return False, int(bad[0]) * (1 << n) + first_a + 1
