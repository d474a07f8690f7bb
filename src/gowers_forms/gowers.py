"""Phase functions on F_2^n, box and uniformity norms, and correlation
functionals against multilinear forms.

Phases are exact dyadic angles (a TorusFunction t encodes x -> e^{2*pi*i*t}).
Correlation, the U^k norms and the form spectrum run on one engine: the
batched tables g_p = Delta_p f over every prefix p of shifts, read through
sum_a (-1)^{l.a} sum_x g_p(x + a) conj g_p(x) = |g_p^(l)|^2.  A phase with
denominator 2^m takes values in Z[zeta], zeta = e^{2*pi*i/2^m}; every sum is
held exactly as int64 coefficients over the basis 1, zeta, ..., zeta^{L-1}
(L = 2^{m-1}, zeta^L = -1; L = 1 for +-1).  A value is rational exactly when
its coefficients past the first vanish, and is then reported as a Fraction.
Floats come from one final dot product, whose error bound is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import forms, gf2
from .dyadic import Dyadic
from .errors import BudgetExceeded, DimensionMismatch, StepFailed, require_work
from .forms import MultilinearForm
from .nonclassical import TorusFunction, derivative_tables
from .rankbias import PrankCertificate, bias, require_valid

_EPS = float(np.finfo(np.float64).eps)

_INT64_BITS = 62  # exact sums whose l1 norm stays below 2^62 fit in int64


# phases are torus-valued tables; the name is kept for callers of this module
PhaseFunction = TorusFunction


def restrict_phase(f: TorusFunction, u: gf2.Subspace, shift=None) -> TorusFunction:
    """The function c -> f(from_coords(c) + shift) on U's coordinates."""
    if u.ambient_dim != f.n:
        raise DimensionMismatch("subspace ambient mismatch")
    if u.dim == 0:
        raise DimensionMismatch("cannot restrict to the zero subspace")
    w = 0 if shift is None else gf2.point_index(shift, f.n)
    idx = (u.members().astype(np.int64) @ (1 << np.arange(f.n))) ^ w
    return TorusFunction(u.dim, f.nums[idx], f.log2_den)


# ---------------------------------------------------------------------------
# exact character sums over Z[zeta]
# ---------------------------------------------------------------------------


def _zeta_level(f: TorusFunction) -> int:
    """L = 2^{m-1} for the phase's 2^m-th roots of unity (L = 1 for +-1)."""
    return 1 << (max(f.log2_den, 1) - 1)


def _require_int64(bits: int, what: str) -> None:
    if bits > _INT64_BITS:
        raise BudgetExceeded(f"{what}: exact sums reach 2^{bits}, beyond int64")


def _char_sums(exponents: np.ndarray, level: int) -> np.ndarray:
    """Row sums of zeta^exponents, read off an exponent histogram."""
    rows = exponents.shape[0]
    keys = exponents % (2 * level)
    keys += np.arange(rows)[:, None] * (2 * level)
    hist = np.bincount(keys.ravel(), minlength=rows * 2 * level).reshape(rows, 2 * level)
    return hist[:, :level] - hist[:, level:]  # zeta^{j+L} = -zeta^j


def _zeta_powers(exponents: np.ndarray, level: int) -> np.ndarray:
    """zeta^exponents as one-hot +-1 coefficient vectors (trailing axis L)."""
    e = exponents % (2 * level)
    return (e[..., None] % level == np.arange(level)) * np.where(e < level, 1, -1)[..., None]


def _conj(c: np.ndarray) -> np.ndarray:
    """Complex conjugate: zeta^{-j} = -zeta^{L-j} for 0 < j < L."""
    out = -np.roll(c[..., ::-1], 1, axis=-1)
    out[..., 0] = c[..., 0]
    return out


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product in Z[zeta]: a negacyclic convolution of the coefficients."""
    level = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    for j in range(level):
        # zeta^j * b: coefficients move up by j, those passing zeta^L flip sign
        out[..., j:] += a[..., j : j + 1] * b[..., : level - j]
        out[..., :j] -= a[..., j : j + 1] * b[..., level - j :]
    return out


def _real_values(s: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Floats of the real numbers s / 2^bits (s: coefficients on the last
    axis), their error bounds, and which are rational.  cos(pi j / L) is
    within (pi + 1) eps (its argument carries pi's rounding), s_j and each
    product round by eps / 2 and the L-term sum adds (L - 1) eps / 2 of
    sum |terms|, so (L + 6) eps ||s||_1 bounds the error."""
    level = s.shape[-1]
    scale = 2.0**-bits
    rational = ~s[..., 1:].any(axis=-1)
    value = (s @ np.cos(np.pi * np.arange(level) / level)) * scale
    bound = (level + 6) * _EPS * np.abs(s).sum(axis=-1) * scale
    return value, np.where(rational, 0.0, bound), rational


def _real_value(total: np.ndarray, bits: int) -> tuple[float, float, Fraction | None]:
    """(float, error bound, Fraction or None) of one real number total / 2^bits."""
    value, err, rational = _real_values(total, bits)
    if rational:
        exact = Fraction(int(total[0]), 1 << bits)
        return float(exact), 0.0, exact
    return float(value), float(err), None


@dataclass(frozen=True)
class NormResult:
    """The U^k norm and its 2^k-th power.  ``power_exact`` is a Fraction
    whenever the exact power in Z[zeta] is rational (always for +-1 phases,
    and e.g. bias(sigma) for an integral of sigma), else None; ``err`` bounds
    the error of ``power`` and is 0 when it is exact."""

    value: float  # the norm (2^k-th root)
    err: float
    power: float  # the 2^k-th power of the norm
    power_exact: Fraction | None = None

    def exact_one(self) -> bool:
        return self.power_exact == 1


def gowers_norm(f: TorusFunction, k: int) -> NormResult:
    """Uniformity norm of order k >= 1: with g_p over prefixes p of k - 2
    shifts, ||f||_{U^k}^{2^k} = 2^{-(k+2)n} sum_p sum_l |g_p^(l)|^4 for k >= 2,
    and |f^(0)|^2 / 4^n for k = 1.  Cost: 2^{(k-1)n} * L^2 coefficient products."""
    if k < 1:
        raise DimensionMismatch("norm order must be >= 1")
    n = f.n
    _require_int64((k + 3) * n, "U^k power")
    level = _zeta_level(f)
    require_work((1 << (k - 1) * n) * level * level, "U^k power")
    if k == 1:
        fhat = _char_sums(f.nums[None, :], level)[0]
        total, bits = _mul(fhat, _conj(fhat)), 2 * n
    else:
        g = derivative_tables(f, k - 2)
        ghat = walsh_hadamard(_zeta_powers(g.T, level))
        square = _mul(ghat, _conj(ghat))
        total, bits = _mul(square, square).sum(axis=(0, 1)), (k + 2) * n
    power, err, exact = _real_value(total, bits)
    return NormResult(max(power, 0.0) ** (1.0 / (1 << k)), err, power, exact)


def walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along axis 0 (length 2^n);
    trailing axes are transformed independently."""
    v = np.array(vec, dtype=np.complex128 if np.iscomplexobj(vec) else np.int64)
    size = v.shape[0]
    h = 1
    while h < size:
        w = v.reshape(size // (2 * h), 2, h, *v.shape[1:])
        w[:, 0], w[:, 1] = w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]
        h *= 2
    return v


# ---------------------------------------------------------------------------
# box norms
# ---------------------------------------------------------------------------


def box_norm(table: np.ndarray) -> float:
    """Box norm of a complex table on X_1 x ... x X_k (2^k-th root)."""
    power = box_power(table)
    return max(power, 0.0) ** (1.0 / (1 << table.ndim))


def box_power(table: np.ndarray) -> float:
    """The 2^k-th power of the box norm, by the pair recursion
    ||T||^{2^k} = E_{x_1, y_1} ||T(x_1, .) conj T(y_1, .)||^{2^{k-1}}, down to
    ||g||^2 = |E g|^2 on the last axis.  Cost: (|X_1| ... |X_{k-1}|)^2 * |X_k|
    values."""
    shape = np.shape(table)
    if not shape:
        raise DimensionMismatch("a box table needs at least one axis")
    require_work(math.prod(shape[:-1]) ** 2 * shape[-1], "box power")
    t = np.asarray(table, dtype=np.complex128)[None]  # axis 0: the pairs so far
    while t.ndim > 2:
        t = (t[:, :, None] * t[:, None].conj()).reshape(-1, *t.shape[2:])
    means = t.mean(axis=1)
    return float((means.real**2 + means.imag**2).mean())


# ---------------------------------------------------------------------------
# correlation with multilinear forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationReport:
    """E over x and k shifts of the k-fold derivative of f times
    (-1)^{alpha(shifts)}, a real number >= 0.  ``exact`` is a Fraction whenever
    the exact value in Z[zeta] is rational (always for +-1 phases, and 1 for an
    integral of alpha), else None; ``err`` bounds the error of ``value``."""

    value: complex
    err: float
    exact: Fraction | None
    arity: int
    dim: int

    def magnitude(self) -> float:
        return abs(self.value)


def _correlation_cost(n: int, k: int, level: int) -> int:
    """The 2^{kn} cells of the derivative tables, or the 2^{(k-1)n} * L^2
    coefficient products of the sums, whichever is larger."""
    return max(1 << k * n, (1 << (k - 1) * n) * level * level)


def correlation(f: TorusFunction, alpha: MultilinearForm) -> CorrelationReport:
    """2^{-(k+1)n} sum_p |g_p^(l_p)|^2 over prefixes p of k - 1 shifts, with
    l_p = alpha(p, .) read from a histogram of the exponents of g_p(x) (-1)^{l_p.x}.
    Cost: max(2^{kn}, 2^{(k-1)n} * L^2)."""
    if alpha.dim != f.n:
        raise DimensionMismatch("form and function dimensions differ")
    k, n = alpha.arity, f.n
    bits = (k + 1) * n
    _require_int64(bits, "correlation")
    level = _zeta_level(f)
    require_work(_correlation_cost(n, k, level), "correlation")
    exponents = derivative_tables(f, k - 1)
    table = forms.truth_table(alpha).reshape(exponents.shape)
    exponents += np.multiply(table, level, dtype=np.int64)  # (-1)^{l_p.x} = zeta^{L alpha(p, x)}
    ghat = _char_sums(exponents, level)
    value, err, exact = _real_value(_mul(ghat, _conj(ghat)).sum(axis=0), bits)
    return CorrelationReport(complex(value), err, exact, k, n)


def _monomial_codes(n: int, k: int) -> np.ndarray:
    """Bits of a_1 (x) ... (x) a_k over the row-major monomials, per shift
    tuple: the form with coefficient bits lambda takes lambda . code there."""
    ev = gf2.all_vectors(n).astype(np.int64)
    bits = ev
    for _ in range(k - 1):
        bits = np.einsum("ai,bj->abij", bits, ev).reshape(bits.shape[0] << n, -1)
    return bits @ (1 << np.arange(n**k))


def spectrum_search(
    f: TorusFunction, k: int, threshold: float, candidates=None
) -> list[tuple[MultilinearForm, CorrelationReport]]:
    """All forms whose correlation magnitude reaches the threshold, sorted
    descending, over the candidates or else over the full form space.  The
    full enumeration transforms |g_p^|^2 back to 2^n sum_x Delta_{p,a} f(x),
    pushes these along the monomial map and transforms over the form space.
    Cost: 2^{kn} * L^2, then n^k * 2^{n^k} * L for the form-space transform."""
    n = f.n
    if candidates is not None:
        out = []
        for alpha in candidates:
            rep = correlation(f, alpha)
            if rep.magnitude() >= threshold - rep.err:
                out.append((alpha, rep))
        out.sort(key=lambda p: (-p[1].magnitude(), p[0].support()))
        return out
    bits = (k + 2) * n
    _require_int64(bits, "spectrum")
    level = _zeta_level(f)
    require_work((1 << k * n) * level * level, "spectrum sums")
    # the check above bounds kn by 26, so n^k is small enough to shift by
    require_work((n**k << n**k) * level, "form space (supply candidates)")
    ghat = walsh_hadamard(_zeta_powers(derivative_tables(f, k - 1).T, level))
    sums = walsh_hadamard(_mul(ghat, _conj(ghat)))  # axes (a, p, L)
    sums = sums.transpose(1, 0, 2).reshape(-1, level)  # row-major (p, a)
    pushed = np.zeros((1 << n**k, level), dtype=np.int64)
    np.add.at(pushed, _monomial_codes(n, k), sums)
    spectrum = walsh_hadamard(pushed)
    values, errs, rational = _real_values(spectrum, bits)
    out = []
    for lam in np.flatnonzero(np.abs(values) >= threshold - errs):
        tensor = np.array([(lam >> p) & 1 for p in range(n**k)], dtype=np.uint8)
        alpha = MultilinearForm(n, k, tensor.reshape((n,) * k))
        exact = Fraction(int(spectrum[lam, 0]), 1 << bits) if rational[lam] else None
        out.append((alpha, CorrelationReport(complex(values[lam]), float(errs[lam]), exact, k, n)))
    out.sort(key=lambda p: (-p[1].magnitude(), p[0].support()))
    return out


def lowrank_replace_check(
    f: TorusFunction,
    alpha: MultilinearForm,
    beta: MultilinearForm,
    diff_cert: PrankCertificate,
) -> dict:
    """Replacing a form by a certified-close one keeps correlation up to the
    factor 2^{-2^{k+1} r}; both sides are computed and reported."""
    require_valid(diff_cert, "difference certificate")
    if diff_cert.target != alpha + beta:
        raise DimensionMismatch("certificate target must be alpha + beta")
    k = alpha.arity
    ca = correlation(f, alpha)
    cb = correlation(f, beta)
    r = diff_cert.size
    factor = 2.0 ** (-(2 ** (k + 1)) * r)
    lhs = cb.magnitude()
    rhs = factor * ca.magnitude()
    return {
        "corr_alpha": ca,
        "corr_beta": cb,
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs >= rhs - (cb.err + factor * ca.err),
        "certificate_terms": r,
    }


@dataclass
class RestrictReport:
    corr_before: float
    corr_after: float
    shift: np.ndarray
    per_shift: list
    tolerance: float


def subspace_restrict(
    f: TorusFunction, alpha: MultilinearForm, u: gf2.Subspace
) -> tuple[TorusFunction, RestrictReport]:
    """A translate of f restricted to U preserving the derivative correlation.

    The averaging argument guarantees some coset shift works; all shifts from
    the complement are tried and the best is returned, so the contract
    corr_after >= corr_before - tolerance holds, with tolerance 0 when both
    correlations are exact.  Cost: 2^codim(U) times one correlation on U.
    """
    k = alpha.arity
    p = gf2.complement_projection(u)
    d = p.complement_basis.shape[0]
    require_work(_correlation_cost(u.dim, k, _zeta_level(f)) << d, "subspace_restrict")
    before = correlation(f, alpha)
    alpha_u = forms.restrict_to_subspace(alpha, u)
    best = None
    per_shift = []
    for mask in range(1 << d):
        w = gf2.zeros(f.n)
        for i in range(d):
            if (mask >> i) & 1:
                w ^= p.complement_basis[i]
        fu = restrict_phase(f, u, w)
        rep = correlation(fu, alpha_u)
        per_shift.append((mask, rep.magnitude()))
        if best is None or rep.magnitude() > best[1].magnitude():
            best = (w, rep, fu)
    tol = before.err + best[1].err
    report = RestrictReport(
        before.magnitude(), best[1].magnitude(), best[0], per_shift, tol
    )
    return best[2], report


def symmetry_argument_check(
    f: TorusFunction, alpha: MultilinearForm, pi: forms.Permutation
) -> dict:
    """Correlation magnitude against the bias of alpha + alpha∘pi."""
    rep = correlation(f, alpha)
    diff = alpha + forms.permute(alpha, pi)
    b = bias(diff)
    return {
        "correlation": rep,
        "c": rep.magnitude(),
        "bias_diff": b,
        "diff_is_zero": diff.is_zero(),
    }


# ---------------------------------------------------------------------------
# sumsets
# ---------------------------------------------------------------------------


def sumset4_verify(points, v: gf2.Subspace, n: int | None = None) -> bool:
    """Exact membership of every element of V in A+A+A+A via two squaring
    passes of the indicator under the Walsh transform.  Cost: n * 2^n."""
    pts = list(points)
    if n is None:
        n = v.ambient_dim
    require_work(n << n, "sumset4_verify")
    ind = np.zeros(1 << n, dtype=np.int64)
    for x in pts:
        ind[gf2.point_index(x, n)] = 1
    if not ind.any():
        return False
    spec = walsh_hadamard(ind)
    two = walsh_hadamard(spec * spec)
    if (two % (1 << n)).any():
        raise StepFailed("sumset4_verify", "A + A counts are not integers")
    two_support = (two // (1 << n)) > 0
    spec2 = walsh_hadamard(two_support.astype(np.int64))
    four = walsh_hadamard(spec2 * spec2)
    if (four % (1 << n)).any():
        raise StepFailed("sumset4_verify", "A + A + A + A counts are not integers")
    members = v.members().astype(np.int64) @ (1 << np.arange(v.ambient_dim))
    return bool((four[members] > 0).all())


def step3_zero_on_subspace_check(rho: MultilinearForm, u: gf2.Subspace) -> dict:
    """For a form vanishing on U^k, the box-norm chain forces
    density(U)^k <= bias(rho)^{1/2^k}; both sides exact."""
    k = rho.arity
    restricted = forms.restrict_to_subspace(rho, u)
    if not restricted.is_zero():
        raise DimensionMismatch("form does not vanish on the subspace")
    b = bias(rho)
    # compare 2^{-codim*k} <= bias^{1/2^k}  <=>  bias >= 2^{-codim*k*2^k}
    lhs_exponent = u.codim * k * (1 << k)
    holds = b >= Dyadic(1, lhs_exponent)
    return {
        "bias": b,
        "density_pow_k_log2": -u.codim * k,
        "required_bias_log2": -lhs_exponent,
        "holds": bool(holds),
    }
