"""Partition lattice bookkeeping and the constructive decomposition lemmas:
point finding under form constraints, coefficient extraction at witnesses,
change of basis for product sums, and rewriting certificates so that every
factor is a recorded slice of the target form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import forms, gf2
from .errors import WORK_LIMIT, CertificateInvalid, DimensionMismatch, StepFailed, require_work
from .forms import MultilinearForm
from .rankbias import (
    Factor,
    PrankCertificate,
    Provenance,
    bias,
    expand_terms,
    verify_certificate,
)

# ---------------------------------------------------------------------------
# partitions of [k] and down-sets
# ---------------------------------------------------------------------------


def canon_partition(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(int(v) for v in b)) for b in blocks))


def all_partitions(k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of {0..k-1} in canonical form."""
    parts: list[list[list[int]]] = [[[0]]]
    for v in range(1, k):
        new = []
        for p in parts:
            for i in range(len(p)):
                q = [list(b) for b in p]
                q[i].append(v)
                new.append(q)
            new.append([list(b) for b in p] + [[v]])
        parts = new
    return sorted({canon_partition(p) for p in parts})


def refines(a, b) -> bool:
    """True iff every block of b is a union of blocks of a."""
    a = canon_partition(a)
    b = canon_partition(b)
    if sorted(v for blk in a for v in blk) != sorted(v for blk in b for v in blk):
        raise DimensionMismatch("partitions are over different ground sets")
    lookup = {}
    for blk in b:
        for v in blk:
            lookup[v] = blk
    for blk in a:
        target = lookup[blk[0]]
        if any(lookup[v] is not target for v in blk):
            return False
    return True


def term_partition(term) -> tuple[tuple[int, ...], ...]:
    return canon_partition([f.vars for f in term])


@dataclass(frozen=True)
class DownSet:
    """An explicit refinement-closed set of partitions of {0..k-1}."""

    arity: int
    members: frozenset

    @staticmethod
    def closure(k: int, seeds) -> "DownSet":
        seeds = {canon_partition(s) for s in seeds}
        closed = {
            p for p in all_partitions(k) if any(refines(p, s) for s in seeds)
        }
        return DownSet(k, frozenset(closed))

    @staticmethod
    def all_nontrivial(k: int) -> "DownSet":
        trivial = canon_partition([range(k)])
        return DownSet(
            k, frozenset(p for p in all_partitions(k) if p != trivial)
        )

    def __contains__(self, partition) -> bool:
        return canon_partition(partition) in self.members

    def insert(self, partition) -> "DownSet":
        extra = {
            p
            for p in all_partitions(self.arity)
            if refines(p, partition)
        }
        return DownSet(self.arity, self.members | extra)


# ---------------------------------------------------------------------------
# point finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointConstraints:
    """Conjunction of form constraints on a tuple x_0..x_{k-1}.

    ``want_one`` entries are (vars, form) pairs that must evaluate to 1;
    ``want_zero`` pairs must evaluate to 0.  Full-arity constraints use
    vars = (0..k-1).
    """

    dim: int
    arity: int
    want_one: tuple = ()
    want_zero: tuple = ()

    @staticmethod
    def build(dim, arity, want_one=None, want_zero_full=(), want_zero_partial=()):
        ones = ()
        if want_one is not None:
            ones = ((tuple(range(arity)), want_one),)
        zeros = tuple(
            (tuple(range(arity)), f) for f in want_zero_full
        ) + tuple((tuple(sorted(v)), f) for v, f in want_zero_partial)
        return PointConstraints(dim, arity, ones, zeros)


@dataclass
class SearchReport:
    exhaustive: bool
    trials: int
    found: bool
    hypothesis_bias_ok: bool | None = None


def _constraint_table(vars_, form, n, k):
    """Constraint values broadcast over the full tuple space (2^n,)*k.

    truth_table axes follow the form's own slot order, which equals the
    sorted variable tuple, so a reshape with singleton axes suffices.
    """
    t = forms.truth_table(form)
    return t.reshape([(1 << n) if v in vars_ else 1 for v in range(k)])


_RANDOM_TRIALS = 1 << 20
_RANDOM_SEED = 0


def find_point(c: PointConstraints) -> tuple[list[np.ndarray] | None, SearchReport]:
    """First tuple (lexicographic over integer-encoded vectors) meeting the
    constraints while the 2^{nk} tuples are within WORK_LIMIT; beyond it,
    2^20 seeded random trials."""
    n, k = c.dim, c.arity
    space = 1 << (n * k)
    if space <= WORK_LIMIT:
        ok = np.ones((1 << n,) * k, dtype=bool)
        for vars_, form in c.want_one:
            ok &= _constraint_table(vars_, form, n, k) == 1
        for vars_, form in c.want_zero:
            ok &= _constraint_table(vars_, form, n, k) == 0
        flat = np.argmax(ok.reshape(-1))
        if not ok.reshape(-1)[flat]:
            return None, SearchReport(True, space, False, _hypothesis_check(c))
        ints = np.unravel_index(flat, ok.shape)
        return [gf2.vec_from_int(int(i), n) for i in ints], SearchReport(
            True, int(flat) + 1, True
        )
    rng = np.random.default_rng(_RANDOM_SEED)
    for trial in range(_RANDOM_TRIALS):
        xs = [rng.integers(0, 2, size=n, dtype=np.uint8) for _ in range(k)]
        good = True
        for vars_, form in c.want_one:
            if forms.evaluate(form, [xs[v] for v in vars_]) != 1:
                good = False
                break
        if good:
            for vars_, form in c.want_zero:
                if forms.evaluate(form, [xs[v] for v in vars_]) != 0:
                    good = False
                    break
        if good:
            return xs, SearchReport(False, trial + 1, True)
    return None, SearchReport(False, _RANDOM_TRIALS, False, _hypothesis_check(c))


def _hypothesis_check(c: PointConstraints) -> bool | None:
    """Bias hypothesis of the point-finding lemma, when cheap to evaluate:
    every combination of the want-one form with full-arity zero constraints
    must have bias below 2^{-k(r+m)}."""
    full = tuple(range(c.arity))
    ones = [f for v, f in c.want_one if v == full]
    zeros = [f for v, f in c.want_zero if v == full]
    if len(ones) != 1 or (1 << (c.dim * c.arity)) > 1 << 16 or len(zeros) > 6:
        return None
    rho = ones[0]
    r = len(zeros)
    m = len(c.want_zero) - r
    from .dyadic import Dyadic

    thresh = Dyadic(1, min(c.arity * (r + m), 60))
    for mask in range(1 << r):
        combo = rho
        for i in range(r):
            if (mask >> i) & 1:
                combo = combo + zeros[i]
        if not bias(combo) < thresh:
            return False
    return True


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientGroup:
    vars: tuple[int, ...]
    members: tuple[MultilinearForm, ...]


def extract_coefficients(
    groups, spurious, target: MultilinearForm
) -> dict[tuple[int, ...], int | None]:
    """Determine the scalars of a sum of cross-group products by evaluation.

    The structured sum is sum over index tuples of
    lambda_idx * prod_j groups[j].members[idx_j](x_{groups[j].vars}) plus the
    ``spurious`` products (tuples of Factors), each of which must contain a
    factor whose variable set fully contains none of the group blocks.  Each
    coefficient is read off the target at a witness where its own product is
    1, all other group members vanish, and every spurious product is killed
    through such a factor; coefficients whose witness search fails are
    reported as None (unknown).
    """
    blocks = [tuple(sorted(g.vars)) for g in groups]
    if sorted(v for b in blocks for v in b) != list(range(target.arity)):
        raise DimensionMismatch("group blocks must partition the variable set")
    kill_factors = []
    for prod in spurious:
        chosen = None
        for fac in prod:
            if not any(set(b) <= set(fac.vars) for b in blocks):
                chosen = fac
                break
        if chosen is None:
            raise DimensionMismatch(
                "spurious product has no factor avoiding all blocks"
            )
        kill_factors.append(chosen)
    out: dict[tuple[int, ...], int | None] = {}
    for idx in itertools.product(*(range(len(g.members)) for g in groups)):
        want_one = []
        want_zero = [(f.vars, f.form) for f in kill_factors]
        for j, g in enumerate(groups):
            for m, form in enumerate(g.members):
                (want_one if m == idx[j] else want_zero).append((g.vars, form))
        constraints = PointConstraints(
            target.dim, target.arity, tuple(want_one), tuple(want_zero)
        )
        point, _ = find_point(constraints)
        out[idx] = None if point is None else forms.evaluate(target, point)
    return out


# ---------------------------------------------------------------------------
# change of basis for sums of two-block products
# ---------------------------------------------------------------------------


@dataclass
class ChangeBasisResult:
    s: int
    tilde_betas: list[MultilinearForm]
    tilde_gammas: list  # entries mirror the gamma representation passed in
    witnesses: list  # witnesses[i]: gamma slot assignment with delta pattern
    beta_combos: np.ndarray  # rows: coefficients over the input betas
    gamma_combos: np.ndarray  # columns: coefficients over the input gammas


def _combine(combos: np.ndarray, fs) -> np.ndarray:
    """Row i: the flat coefficient tensor of sum_j combos[i, j] * fs[j]."""
    return gf2.matmul(combos, np.stack([f.coeffs.reshape(-1) for f in fs]))


def _as_forms(rows: np.ndarray, like: MultilinearForm) -> list[MultilinearForm]:
    shape = (like.dim,) * like.arity
    return [MultilinearForm(like.dim, like.arity, row.reshape(shape)) for row in rows]


def change_basis(betas, gamma_tables: np.ndarray) -> ChangeBasisResult:
    """Rewrite sum_i beta_i * gamma_i with s <= r independent gamma values.

    ``gamma_tables`` holds the gamma evaluations, one row per input, over an
    enumeration of the complementary block; the witnesses are indices into
    that enumeration.  Every output is an explicit linear combination of the
    inputs, the product sum is preserved exactly, and gamma witnesses hit
    the delta pattern.  Cost: r * columns table entries.
    """
    r = len(betas)
    if gamma_tables.shape[0] != r:
        raise DimensionMismatch("need one gamma table per beta")
    require_work(r * gamma_tables.shape[1], "change_basis")
    # maximal independent set of value-columns, greedy in enumeration order
    s, reduced, _ = gf2.rref(gamma_tables)
    chosen = gf2.pivot_columns(reduced[:s])
    columns = gf2.as_gf2(gamma_tables[:, chosen])
    # complete to a basis of F_2^r with the first unit vectors outside the span
    eye = np.eye(r, dtype=np.uint8)
    _, reduced, _ = gf2.rref(np.concatenate([columns, eye], axis=1))
    units = [c - s for c in gf2.pivot_columns(reduced)[s:]]
    v_mat = np.concatenate([columns.T, eye[units]])
    tilde_betas = _as_forms(_combine(v_mat[:s], betas), betas[0]) if s else []
    # column i of the inverse gives tilde_gamma_i over the inputs
    return ChangeBasisResult(
        s, tilde_betas, None, chosen, v_mat[:s].copy(), gf2.invert(v_mat)
    )


def change_basis_forms(betas, gammas) -> ChangeBasisResult:
    """Change of basis for sum_i beta_i(x_I) gamma_i(x_J) with explicit forms.

    Returns combinations such that the product sum is preserved exactly
    (checked at the coefficient-tensor level; a failure raises
    CertificateInvalid) and each surviving tilde_gamma has a witness point
    hitting the delta pattern.  Witnesses are reported as lists of vectors
    over the gamma block in enumeration order.
    """
    if len(betas) != len(gammas):
        raise DimensionMismatch("need equally many betas and gammas")
    r = len(betas)
    if r == 0:
        return ChangeBasisResult(0, [], [], [], np.zeros((0, 0), np.uint8), np.zeros((0, 0), np.uint8))
    n = gammas[0].dim
    kj = gammas[0].arity
    tables = np.stack([forms.truth_table(g).reshape(-1) for g in gammas])
    cb = change_basis(betas, tables)
    combos = _combine(cb.gamma_combos.T, gammas)
    # discarded combinations must vanish identically
    if combos[cb.s:].any():
        raise CertificateInvalid("change of basis: a discarded gamma combination is nonzero")
    tilde_gammas = _as_forms(combos[: cb.s], gammas[0])
    # exact product-sum equality
    k = betas[0].arity + kj
    left = _product_sum(betas, gammas, n, k)
    right = _product_sum(cb.tilde_betas, tilde_gammas, n, k)
    if not np.array_equal(left, right):
        raise CertificateInvalid("change of basis does not preserve the product sum")
    witnesses = []
    for col in cb.witnesses:
        ints = np.unravel_index(col, (1 << n,) * kj)
        witnesses.append([gf2.vec_from_int(int(b), n) for b in ints])
    cb.tilde_gammas = tilde_gammas
    cb.witnesses = witnesses
    return cb


def _product_sum(lefts, rights, n, k):
    """Coefficient tensor of sum_i lefts[i](x_0..) * rights[i](..x_{k-1})."""
    return expand_terms(
        [
            (Factor(tuple(range(b.arity)), b), Factor(tuple(range(b.arity, k)), g))
            for b, g in zip(lefts, rights)
        ],
        n,
        k,
    )


# ---------------------------------------------------------------------------
# slice rewriting of certificates
# ---------------------------------------------------------------------------


def _slice_provenance_compose(fac: Factor, fixing: dict) -> Provenance:
    """Slicing a recorded slice fixes additional source slots."""
    merged = {
        slot: np.array(bits, dtype=np.uint8)
        for slot, bits in fac.provenance.assignment
    }
    merged.update(fixing)
    return Provenance.slice_of(fac.provenance.source_id, merged)


def _product_eval_tables(term_factors, n, rest_vars):
    """Evaluation table of a product of factors over the rest-variable grid."""
    k_rest = len(rest_vars)
    pos = {v: i for i, v in enumerate(rest_vars)}
    acc = np.ones((1 << n,) * k_rest, dtype=np.uint8)
    for fac in term_factors:
        t = forms.truth_table(fac.form)
        reshaped = t.reshape(
            [(1 << n) if rest_vars[i] in fac.vars else 1 for i in range(k_rest)]
        )
        acc = acc * reshaped
    return acc


def slice_rewrite(
    phi: MultilinearForm,
    cert: PrankCertificate,
    p: DownSet,
    phi_id: str = "phi",
) -> PrankCertificate:
    """Rewrite a certificate so every factor is a recorded slice of ``phi``.

    Processes variable subsets from largest to smallest; at each step the
    factors living on the current subset are replaced, via a change of basis
    and witness evaluations, by slices of ``phi`` plus strictly finer
    products.  The output re-verifies and every partition stays inside the
    down-set ``p``.  Cost per subset I: r * 2^{n * (k - |I|)} gamma table
    entries, r the number of terms with a factor on I that is not a slice.
    """
    n, k = phi.dim, phi.arity
    if cert.target != phi or not verify_certificate(cert):
        raise CertificateInvalid("slice_rewrite needs a verifying certificate for phi")
    for term in cert.terms:
        if term_partition(term) not in p:
            raise CertificateInvalid("certificate term partition outside the down-set")
    terms: list[tuple[Factor, ...]] = [tuple(t) for t in cert.terms]
    subsets = sorted(
        (frozenset(s) for size in range(1, k) for s in itertools.combinations(range(k), size)),
        key=lambda s: (-len(s), sorted(s)),
    )
    for I in subsets:
        I_t = tuple(sorted(I))
        rest = tuple(v for v in range(k) if v not in I)
        r1, others = [], []
        for term in terms:
            on_I = [f for f in term if f.vars == I_t]
            if on_I and on_I[0].provenance.kind != "slice":
                r1.append(term)
            else:
                others.append(term)
        if not r1:
            continue
        require_work(len(r1) << (n * len(rest)), "slice_rewrite")
        betas = []
        gamma_parts = []
        for term in r1:
            beta = next(f for f in term if f.vars == I_t)
            rest_factors = tuple(f for f in term if f is not beta)
            betas.append(beta.form)
            gamma_parts.append(rest_factors)
        tables = np.stack(
            [_product_eval_tables(g, n, rest).reshape(-1) for g in gamma_parts]
        )
        cb = change_basis(betas, tables)
        new_terms: list[tuple[Factor, ...]] = list(others)
        for i in range(cb.s):
            widx = cb.witnesses[i]
            ints = np.unravel_index(widx, (1 << n,) * len(rest))
            y = {v: gf2.vec_from_int(int(b), n) for v, b in zip(rest, ints)}
            # pieces of the replacement for tilde_beta_i, each a factor list on I
            pieces: list[tuple[Factor, ...]] = []
            phi_slice = forms.slice_form(phi, y)
            if not phi_slice.is_zero():
                pieces.append(
                    (Factor(I_t, phi_slice, Provenance.slice_of(phi_id, y)),)
                )
            for term in others:
                scalar = 1
                partials: list[Factor] = []
                for fac in term:
                    overlap = tuple(v for v in fac.vars if v in I)
                    fixing = {v: y[v] for v in fac.vars if v not in I}
                    if not overlap:
                        scalar &= forms.evaluate(fac.form, [y[v] for v in fac.vars])
                        if not scalar:
                            break
                        continue
                    local_fix = {fac.vars.index(v): fixing[v] for v in fixing}
                    sliced = (
                        forms.slice_form(fac.form, local_fix) if local_fix else fac.form
                    )
                    partials.append(
                        Factor(
                            overlap,
                            sliced,
                            _slice_provenance_compose(fac, fixing)
                            if fac.provenance.kind == "slice"
                            else Provenance.free(),
                        )
                    )
                if not scalar:
                    continue
                if any(f.form.is_zero() for f in partials):
                    continue
                pieces.append(tuple(partials))
            # expansion of tilde_gamma_i over the original products
            for piece in pieces:
                for j in range(len(r1)):
                    if cb.gamma_combos[j, i]:
                        cand = piece + gamma_parts[j]
                        if any(f.form.is_zero() for f in cand):
                            continue
                        new_terms.append(cand)
        terms = new_terms
        if not np.array_equal(expand_terms(terms, n, k), phi.coeffs):
            raise StepFailed(
                "slice_rewrite",
                f"exact reconstruction lost while removing {I_t}",
                diagnostics={"subset": I_t, "terms": len(terms)},
            )
    out = PrankCertificate(phi, tuple(terms))
    for term in out.terms:
        if term_partition(term) not in p:
            raise StepFailed(
                "slice_rewrite", "output partition escaped the down-set",
                diagnostics={"partition": term_partition(term)},
            )
    if not verify_certificate(out):
        raise CertificateInvalid("slice_rewrite output does not verify")
    return out
