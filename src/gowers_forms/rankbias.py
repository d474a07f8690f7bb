"""Bias, analytic rank, partition-rank certificates and bounds.

The bias of a multilinear form is always an exact dyadic rational
m / 2^{(k-1)n}: averaging over the last variable leaves the probability
that the contracted linear form vanishes.  Partition-rank upper bounds are
always carried by explicit certificates (sums of products of forms on
complementary variable sets) that re-verify by symbolic expansion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import forms, gf2
from .dyadic import Dyadic, log2_bracket
from .errors import (
    BudgetExceeded,
    CertificateInvalid,
    DimensionMismatch,
    SizeGuard,
    StepFailed,
    require_work,
)
from .forms import MultilinearForm

_AXIS_LETTERS = "abcdefghij"


# ---------------------------------------------------------------------------
# bias and analytic rank
# ---------------------------------------------------------------------------


def bias(f: MultilinearForm) -> Dyadic:
    """Average of (-1)^f over all inputs, exactly.

    Averaging out the last variable shows bias = Pr over the other variables
    that the contracted linear form is zero.  One step contracts the first
    k - 2 variables with every vector at once (k - 2 matrix products against
    ``all_vectors``), leaving the 2^{(k-2)n} n x n matrices of the last two;
    each matrix m leaves 2^{n - rank m} zero forms.  Cost: 2^{(k-2)n} * n^2
    matrix cells, the size of that stack.
    """
    n, k = f.dim, f.arity
    if k == 1:
        return Dyadic(1, 0) if f.is_zero() else Dyadic.zero()
    require_work((1 << (k - 2) * n) * n * n, "bias")
    mats = f.coeffs.reshape(1, n, -1)
    vectors = gf2.all_vectors(n) if k > 2 else None
    for _ in range(k - 2):
        # (a, i, rest) -> (a, v, rest) -> (a * 2^n + v, next axis, rest / n)
        mats = gf2.matmul(vectors, mats).reshape(-1, n, mats.shape[2] // n)
    numerator = sum(1 << (n - gf2.rank(m)) for m in mats)
    return Dyadic(numerator, (k - 1) * n)


@dataclass(frozen=True)
class AnalyticRank:
    """-log2(bias): exact when the bias is a power of two, else a bracket."""

    lower: Fraction
    upper: Fraction
    exact: Fraction | None = None

    def ceiling_of_lower(self) -> int:
        return int(math.ceil(self.lower))


def arank(f: MultilinearForm) -> AnalyticRank:
    b = bias(f)
    if not b > 0:
        raise StepFailed("arank", f"bias {b.as_fraction()} is not positive")
    if b.is_power_of_two():
        value = Fraction(b.log2_den - (abs(b.num).bit_length() - 1))
        return AnalyticRank(value, value, value)
    lo, hi = log2_bracket(b.as_fraction())
    return AnalyticRank(-hi, -lo, None)


def prank_lower_bound(f: MultilinearForm) -> int:
    """prank >= arank (analytic rank is at most the partition rank)."""
    return arank(f).ceiling_of_lower()


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    kind: str = "free"  # "free" | "slice"
    source_id: str = ""
    assignment: tuple = ()  # ((slot_in_source, bits_tuple), ...)

    @staticmethod
    def free() -> "Provenance":
        return Provenance("free")

    @staticmethod
    def slice_of(source_id: str, assignment: dict) -> "Provenance":
        items = tuple(
            sorted((int(s), tuple(int(b) for b in v)) for s, v in assignment.items())
        )
        return Provenance("slice", source_id, items)


@dataclass(frozen=True)
class Factor:
    vars: tuple[int, ...]  # sorted global variable slots
    form: MultilinearForm
    provenance: Provenance = field(default_factory=Provenance.free)

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(sorted(int(v) for v in self.vars)))
        if len(self.vars) != self.form.arity:
            raise DimensionMismatch("factor variable count != form arity")


@dataclass(frozen=True)
class PrankCertificate:
    target: MultilinearForm
    terms: tuple[tuple[Factor, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple(tuple(term) for term in self.terms)
        )

    @property
    def size(self) -> int:
        return len(self.terms)


def certificate(target: MultilinearForm, terms) -> PrankCertificate:
    return PrankCertificate(target, tuple(tuple(t) for t in terms))


def empty_certificate(target: MultilinearForm) -> PrankCertificate:
    return PrankCertificate(target, ())


def expand_term(term, n: int, k: int) -> np.ndarray:
    """Outer product of a term's factors, placed on their variable axes."""
    out_letters = _AXIS_LETTERS[:k]
    subs = []
    ops = []
    for fac in term:
        subs.append("".join(_AXIS_LETTERS[v] for v in fac.vars))
        ops.append(fac.form.coeffs.astype(np.int64))
    expr = ",".join(subs) + "->" + out_letters
    return (np.einsum(expr, *ops) % 2).astype(np.uint8)


def expand_terms(terms, n: int, k: int) -> np.ndarray:
    acc = np.zeros((n,) * k, dtype=np.uint8)
    for term in terms:
        acc ^= expand_term(term, n, k)
    return acc


def check_structure(cert: PrankCertificate) -> str | None:
    """Structural invariants; returns a reason string when violated."""
    n, k = cert.target.dim, cert.target.arity
    for ti, term in enumerate(cert.terms):
        if len(term) < 2:
            return f"term {ti} has fewer than 2 factors"
        covered = []
        for fac in term:
            if fac.form.dim != n:
                return f"term {ti} factor dim mismatch"
            if not fac.vars:
                return f"term {ti} has an empty factor"
            if len(fac.vars) >= k:
                return f"term {ti} factor covers all variables"
            covered.extend(fac.vars)
        if sorted(covered) != list(range(k)):
            return f"term {ti} factors do not partition the variable set"
    return None


def _invalid_reason(cert: PrankCertificate) -> str | None:
    """Why the certificate fails (structure, then the symbolic expansion
    against the target), or None when it is valid."""
    reason = check_structure(cert)
    if reason is None:
        n, k = cert.target.dim, cert.target.arity
        if not np.array_equal(expand_terms(cert.terms, n, k), cert.target.coeffs):
            reason = "expansion does not match target"
    return reason


def verify_certificate(cert: PrankCertificate) -> bool:
    """True iff structure holds and the symbolic expansion equals the target."""
    return _invalid_reason(cert) is None


def require_valid(cert: PrankCertificate, what: str = "certificate"):
    reason = _invalid_reason(cert)
    if reason is not None:
        raise CertificateInvalid(f"{what}: {reason}")


def verify_provenance(cert: PrankCertificate, sources: dict[str, MultilinearForm]) -> bool:
    """Re-evaluate every slice-tagged factor against its recorded source."""
    for term in cert.terms:
        for fac in term:
            if fac.provenance.kind != "slice":
                continue
            src = sources.get(fac.provenance.source_id)
            if src is None:
                return False
            assignment = {
                slot: np.array(bits, dtype=np.uint8)
                for slot, bits in fac.provenance.assignment
            }
            if forms.slice_form(src, assignment) != fac.form:
                return False
    return True


def permute_certificate(
    cert: PrankCertificate, p: forms.Permutation
) -> PrankCertificate:
    """Certificate for target∘p obtained by permuting every factor's slots."""
    k = cert.target.arity
    inv = p.inverse()
    new_target = forms.permute(cert.target, p)
    new_terms = []
    for term in cert.terms:
        new_term = []
        for fac in term:
            moved = [inv(v) for v in fac.vars]
            order = np.argsort(moved)
            # reorder the factor form's own slots to match the sorted new vars:
            # slot m' of the new form binds to what slot order[m'] bound before
            g = forms.permute(
                fac.form, forms.Permutation(len(moved), tuple(int(o) for o in order))
            )
            new_term.append(Factor(tuple(sorted(moved)), g, Provenance.free()))
        new_terms.append(tuple(new_term))
    out = PrankCertificate(new_target, tuple(new_terms))
    return out


# ---------------------------------------------------------------------------
# exact partition ranks
# ---------------------------------------------------------------------------


def prank_exact_bilinear(f: MultilinearForm) -> tuple[int, PrankCertificate]:
    """For bilinear forms the partition rank is the matrix rank; the
    certificate is read off the row reduction."""
    if f.arity != 2:
        raise DimensionMismatch("exact bilinear rank needs arity 2")
    m = f.coeffs
    r, basis, transform = gf2.rref(m)
    tinv = gf2.invert(transform)
    terms = []
    for i in range(r):
        left = MultilinearForm(f.dim, 1, tinv[:, i].copy())
        right = MultilinearForm(f.dim, 1, basis[i].copy())
        terms.append((Factor((0,), left), Factor((1,), right)))
    cert = PrankCertificate(f, tuple(terms))
    return r, cert


_TINY_PRODUCT_CACHE: dict[tuple[int, int], dict] = {}


def _tiny_products(n: int, k: int) -> dict:
    """All product tensors beta(x_I) * gamma(x_Ic) at tiny size, keyed by the
    flattened bit pattern; values hold one generating decomposition."""
    key = (n, k)
    if key in _TINY_PRODUCT_CACHE:
        return _TINY_PRODUCT_CACHE[key]
    table: dict[bytes, tuple] = {}
    slots = list(range(k))
    for size in range(1, k // 2 + 1):
        for left in itertools.combinations(slots, size):
            right = tuple(s for s in slots if s not in left)
            if len(left) == len(right) and left > right:
                continue  # unordered bipartition
            for lbits in range(1 << (n ** len(left))):
                lt = np.array(
                    [(lbits >> i) & 1 for i in range(n ** len(left))], dtype=np.uint8
                ).reshape((n,) * len(left))
                if not lt.any():
                    continue
                lform = MultilinearForm(n, len(left), lt)
                for rbits in range(1 << (n ** len(right))):
                    rt = np.array(
                        [(rbits >> i) & 1 for i in range(n ** len(right))],
                        dtype=np.uint8,
                    ).reshape((n,) * len(right))
                    if not rt.any():
                        continue
                    rform = MultilinearForm(n, len(right), rt)
                    term = (Factor(left, lform), Factor(right, rform))
                    tensor = expand_term(term, n, k)
                    table.setdefault(tensor.tobytes(), term)
    _TINY_PRODUCT_CACHE[key] = table
    return table


def prank_exact_tiny(f: MultilinearForm) -> tuple[int, PrankCertificate]:
    """Exact partition rank by exhaustive product classification at n = 2.

    At n = 2 slicing the first variable over the two coordinates shows every
    form has partition rank at most 2, so the breadth-first closure stops at
    the product layer: rank 0 = zero form, rank 1 = the product tensors,
    rank 2 = everything else (certificate from coordinate slicing).
    """
    n, k = f.dim, f.arity
    if n != 2 or k > 4 or k < 2:
        raise SizeGuard("exact tiny prank supports n = 2, 2 <= k <= 4")
    if f.is_zero():
        return 0, empty_certificate(f)
    products = _tiny_products(n, k)
    term = products.get(f.coeffs.tobytes())
    if term is not None:
        return 1, PrankCertificate(f, (term,))
    terms = []
    for i in range(n):
        rest = forms.slice_form(f, {0: gf2.unit(n, i)})
        if rest.is_zero():
            continue
        left = MultilinearForm(n, 1, gf2.unit(n, i))
        terms.append((Factor((0,), left), Factor(tuple(range(1, k)), rest)))
    cert = PrankCertificate(f, tuple(terms))
    if not verify_certificate(cert):
        raise CertificateInvalid("prank_exact_tiny: slice decomposition does not reconstruct f")
    return 2, cert


# ---------------------------------------------------------------------------
# rank-proxy policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankDecision:
    is_low: bool | None  # None = undecided under this policy
    method: str
    bound: int
    certificate: PrankCertificate | None = None
    bias_value: Dyadic | None = None

    def brief(self) -> dict:
        out = {"is_low": self.is_low, "method": self.method, "bound": self.bound}
        if self.bias_value is not None:
            out["bias"] = [self.bias_value.num, self.bias_value.log2_den]
        if self.certificate is not None:
            out["certificate_terms"] = self.certificate.size
        return out


@dataclass(frozen=True)
class RankProxyPolicy:
    """Explicit stand-in for high partition rank hypotheses.

    ``decide_low_rank(f, bound)`` answers "prank(f) <= bound?".  Modes:
    exact-bilinear (matrix rank, certificate), exhaustive-tiny (n = 2
    classification, certificate), bias-threshold (low iff bias >= 2^-bound,
    no certificate; undecided when ``bias`` refuses the form), and auto =
    first applicable of the three in that order.
    """

    mode: str = "auto"

    def __post_init__(self):
        if self.mode not in ("auto", "exact-bilinear", "exhaustive-tiny", "bias-threshold"):
            raise ValueError(f"unknown policy mode {self.mode!r}")

    def decide_low_rank(self, f: MultilinearForm, bound: int) -> RankDecision:
        if f.is_zero():
            return RankDecision(True, "zero", bound, empty_certificate(f))
        if bound <= 0:
            return RankDecision(False, "zero", bound)
        if self.mode in ("auto", "exact-bilinear") and f.arity == 2:
            r, cert = prank_exact_bilinear(f)
            return RankDecision(r <= bound, "exact-bilinear", bound, cert if r <= bound else None)
        if self.mode in ("auto", "exhaustive-tiny") and f.dim == 2 and 2 <= f.arity <= 4:
            r, cert = prank_exact_tiny(f)
            return RankDecision(r <= bound, "exhaustive-tiny", bound, cert if r <= bound else None)
        if self.mode in ("auto", "bias-threshold"):
            try:
                b = bias(f)
            except BudgetExceeded:
                return RankDecision(None, "none", bound)
            return RankDecision(bool(b >= Dyadic(1, bound)), "bias-threshold", bound, None, b)
        return RankDecision(None, "none", bound)


# ---------------------------------------------------------------------------
# quadratic varieties
# ---------------------------------------------------------------------------


def _common_bilinear_dim(rhos) -> int:
    """The dimension shared by a nonempty list of bilinear forms."""
    if not rhos or any(r.arity != 2 or r.dim != rhos[0].dim for r in rhos):
        raise DimensionMismatch("need one or more bilinear forms on a common space")
    return rhos[0].dim


def quadratic_variety_fraction(rhos) -> Dyadic:
    """Exact fraction of u with rho_i(u, u) = 0 for every i, by enumeration."""
    if not rhos:
        return Dyadic.one()
    n = _common_bilinear_dim(rhos)
    e = gf2.all_vectors(n).astype(np.int64)
    good = np.ones(1 << n, dtype=bool)
    for r in rhos:
        vals = ((e @ r.coeffs.astype(np.int64)) * e).sum(axis=1) % 2
        good &= vals == 0
    return Dyadic(int(good.sum()), n)


def quadratic_rank_hypothesis(rhos) -> int:
    """Minimum rank over nonzero combinations of rho_i and rho_i∘(swap).

    Cost: 2^{2m} * max(n^2, 2m) cells, the combinations and their
    ``all_vectors`` coefficient table.
    """
    n = _common_bilinear_dim(rhos)
    mats = [r.coeffs.reshape(-1) for r in rhos] + [r.coeffs.T.reshape(-1) for r in rhos]
    require_work((1 << len(mats)) * max(n * n, len(mats)), "quadratic_rank_hypothesis")
    combos = gf2.matmul(gf2.all_vectors(len(mats))[1:], np.stack(mats))
    return min(gf2.rank(c.reshape(n, n)) for c in combos)


# ---------------------------------------------------------------------------
# restriction / extension across subspaces
# ---------------------------------------------------------------------------


def _apply_linear_axes(f: MultilinearForm, m: np.ndarray, axes) -> MultilinearForm:
    """Apply a dim-preserving linear map to selected axes only."""
    t = f.coeffs.astype(np.int64)
    mm = gf2.as_gf2(m).astype(np.int64)
    for ax in axes:
        t = np.moveaxis(np.tensordot(t, mm, axes=([ax], [0])) % 2, -1, ax)
    return MultilinearForm(f.dim, f.arity, t.astype(np.uint8))


def projection_matrix(p: gf2.ProjectionData) -> np.ndarray:
    """The ambient n x n matrix of x -> project(x)."""
    n = p.subspace.ambient_dim
    if p.subspace.dim == 0:
        return np.zeros((n, n), dtype=np.uint8)
    return gf2.matmul(p.subspace.basis.T, p.coord_map)


def projection_decomposition(
    f: MultilinearForm, p: gf2.ProjectionData
) -> tuple[PrankCertificate, MultilinearForm]:
    """Split f into a projected residual plus at most k*d certified products.

    residual(x) = f(project(x_1), ..., project(x_k)); the certificate terms
    telescope the difference, one product per (variable, complement vector):
    phi_i(x_c) * f(project(x_1), .., w_i, x_{c+1}, .., x_k).
    """
    n, k = f.dim, f.arity
    if p.subspace.ambient_dim != n:
        raise DimensionMismatch("projection ambient dim mismatch")
    d = p.complement_basis.shape[0]
    mpi = projection_matrix(p)
    terms = []
    for c in range(k):
        for i in range(d):
            partial = forms.slice_form(f, {c: p.complement_basis[i]}) if k > 1 else None
            if k == 1:
                raise DimensionMismatch("projection decomposition needs arity >= 2")
            # axes 0..c-1 of the slice correspond to original slots 0..c-1
            mapped = _apply_linear_axes(partial, mpi, range(c))
            if mapped.is_zero():
                continue
            phi_form = MultilinearForm(n, 1, p.functionals[i].copy())
            rest_vars = tuple(v for v in range(k) if v != c)
            terms.append((Factor((c,), phi_form), Factor(rest_vars, mapped)))
    if p.subspace.dim == 0:
        residual = forms.zero_form(n, k)
    else:
        residual = forms.apply_linear(
            forms.restrict_to_subspace(f, p.subspace), p.coord_map
        )
    diff = MultilinearForm(n, k, f.coeffs ^ residual.coeffs)
    cert = PrankCertificate(diff, tuple(terms))
    if not verify_certificate(cert):
        raise CertificateInvalid("projection decomposition does not reconstruct f")
    return cert, residual


def extend_form_via_projection(
    g: MultilinearForm, p: gf2.ProjectionData
) -> MultilinearForm:
    """Extend a form on U (in U coordinates) to G by precomposing with the
    projection; restriction back to U recovers g, and any symmetry of g
    (including strong symmetry) is preserved."""
    if g.dim != p.subspace.dim:
        raise DimensionMismatch("form does not live on the projection's subspace")
    return forms.apply_linear(g, p.coord_map)
