import itertools
import tracemalloc

import numpy as np
import pytest

from gowers_forms import forms, gf2, rankbias
from gowers_forms.dyadic import Dyadic
from gowers_forms.errors import DimensionMismatch
from gowers_forms.forms import MultilinearForm, dot_form, random_form, zero_form
from gowers_forms.rankbias import (
    Factor,
    PrankCertificate,
    RankProxyPolicy,
    arank,
    bias,
    empty_certificate,
    expand_terms,
    extend_form_via_projection,
    permute_certificate,
    prank_exact_bilinear,
    prank_exact_tiny,
    prank_lower_bound,
    projection_decomposition,
    quadratic_rank_hypothesis,
    quadratic_variety_fraction,
    verify_certificate,
)


def bias_naive(f):
    """Direct 2^{kn} enumeration; the independent oracle for the fast path."""
    table = forms.truth_table(f)
    plus = int((table == 0).sum())
    minus = int((table == 1).sum())
    return Dyadic(plus - minus, f.dim * f.arity)


def random_certificate(n, k, rng, r):
    """Generator oracle: an r-term certificate built from random products;
    its target is defined as the expansion, so it verifies by construction."""
    terms = []
    slots = list(range(k))
    for _ in range(r):
        size = int(rng.integers(1, k))
        left = tuple(sorted(rng.choice(slots, size=size, replace=False).tolist()))
        right = tuple(s for s in slots if s not in left)
        terms.append(
            (
                Factor(left, random_form(n, len(left), rng)),
                Factor(right, random_form(n, len(right), rng)),
            )
        )
    target = MultilinearForm(n, k, expand_terms(terms, n, k))
    return PrankCertificate(target, tuple(terms))


class TestBias:
    def test_zero_form(self):
        assert bias(zero_form(3, 3)) == Dyadic.one()

    def test_dot_form_kernel_counting(self):
        for n in range(1, 6):
            assert bias(dot_form(n)) == Dyadic(1, n)

    def test_fast_equals_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            f = random_form(3, 3, rng)
            assert bias(f) == bias_naive(f)

    def test_fast_equals_naive_k4(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = random_form(2, 4, rng)
            assert bias(f) == bias_naive(f)

    @pytest.mark.parametrize("n, k", [(1, 2), (4, 2), (6, 2), (1, 5), (2, 5), (3, 5)])
    def test_fast_equals_naive_k2_k5(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        for _ in range(8):
            f = random_form(n, k, rng)
            assert bias(f) == bias_naive(f)

    def test_bilinear_is_one_rank(self):
        # k = 2 costs n^2: bias = 2^{-rank} with no table of the 2^n vectors.
        # n = 16 is checked first, so a 2^n table fails the memory bound
        # (4 MB) before n = 40 could ask for terabytes
        rng = np.random.default_rng(3)
        for n in (16, 40):
            f = random_form(n, 2, rng)
            tracemalloc.start()
            try:
                b = bias(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16
            assert b == Dyadic(1, gf2.rank(f.coeffs))

    def test_bias_positive_and_dyadic(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            f = random_form(3, k, rng)
            b = bias(f)
            assert b > 0
            assert b.log2_den <= (k - 1) * 3


class TestArank:
    def test_zero(self):
        a = arank(zero_form(2, 2))
        assert a.exact == 0

    def test_dot(self):
        for n in (1, 3, 5):
            a = arank(dot_form(n))
            assert a.exact == n

    def test_bracket_contains_value(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_form(3, 3, rng)
            a = arank(f)
            b = float(bias(f))
            import math

            true = -math.log2(b)
            assert float(a.lower) <= true + 1e-9
            assert true <= float(a.upper) + 1e-9


class TestCertificates:
    def test_empty_vs_zero(self):
        assert verify_certificate(empty_certificate(zero_form(3, 3)))

    def test_rank_one_bilinear(self):
        beta = np.array([1, 0, 1], dtype=np.uint8)
        gamma = np.array([0, 1, 1], dtype=np.uint8)
        target = MultilinearForm(3, 2, np.outer(beta, gamma) % 2)
        cert = PrankCertificate(
            target,
            ((Factor((0,), MultilinearForm(3, 1, beta)),
              Factor((1,), MultilinearForm(3, 1, gamma))),),
        )
        assert verify_certificate(cert)

    def test_constructed_certificates_verify(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            cert = random_certificate(3, 4, rng, int(rng.integers(1, 4)))
            assert verify_certificate(cert)

    def test_structure_rejects_overlap(self):
        n, k = 2, 3
        f = zero_form(n, k)
        bad = PrankCertificate(
            f,
            ((Factor((0, 1), zero_form(n, 2)), Factor((1, 2), zero_form(n, 2))),),
        )
        assert not verify_certificate(bad)

    def test_bias_lower_bound_from_certificates(self):
        # arank <= prank: every r-term certificate forces bias >= 2^-r
        rng = np.random.default_rng(5)
        for _ in range(60):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            r = int(rng.integers(0, 5))
            cert = random_certificate(n, k, rng, r)
            assert bias(cert.target) >= Dyadic(1, cert.size)

    def test_permute_certificate(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            cert = random_certificate(3, 4, rng, 2)
            p = forms.Permutation(4, tuple(rng.permutation(4).tolist()))
            moved = permute_certificate(cert, p)
            assert moved.target == forms.permute(cert.target, p)
            assert verify_certificate(moved)


def bilinear_prank_bfs_oracle(n):
    """Independent oracle: minimal decomposition length for every bilinear
    form at dim n, by breadth-first closure over rank-one products."""
    size = n * n
    products = []
    for lb in range(1, 1 << n):
        for rb in range(1, 1 << n):
            left = gf2.vec_from_int(lb, n).astype(np.int64)
            right = gf2.vec_from_int(rb, n).astype(np.int64)
            products.append(int_from_mat(np.outer(left, right) % 2))
    dist = {0: 0}
    frontier = {0}
    r = 0
    while len(dist) < 1 << size:
        r += 1
        new = set()
        for x in frontier:
            for p in products:
                y = x ^ p
                if y not in dist:
                    dist[y] = r
                    new.add(y)
        frontier = new
    return dist


def int_from_mat(m):
    out = 0
    for i, b in enumerate(np.asarray(m, dtype=np.uint8).ravel()):
        if b:
            out |= 1 << i
    return out


class TestPrankBilinear:
    def test_zero(self):
        r, cert = prank_exact_bilinear(zero_form(4, 2))
        assert r == 0 and verify_certificate(cert)

    def test_dot(self):
        r, cert = prank_exact_bilinear(dot_form(5))
        assert r == 5 and cert.size == 5 and verify_certificate(cert)

    def test_matches_exhaustive_decomposition_search(self):
        dist = bilinear_prank_bfs_oracle(3)
        rng = np.random.default_rng(7)
        for _ in range(40):
            f = random_form(3, 2, rng)
            r, cert = prank_exact_bilinear(f)
            assert verify_certificate(cert)
            assert cert.size == r
            assert dist[int_from_mat(f.coeffs)] == r


class TestPrankTiny:
    def test_zero(self):
        r, cert = prank_exact_tiny(zero_form(2, 3))
        assert r == 0 and verify_certificate(cert)

    def test_single_product(self):
        rng = np.random.default_rng(8)
        cert = random_certificate(2, 3, rng, 1)
        if cert.target.is_zero():
            pytest.skip("degenerate product")
        r, c2 = prank_exact_tiny(cert.target)
        assert r == 1 and verify_certificate(c2)

    def test_all_trilinear_classified(self):
        counts = {0: 0, 1: 0, 2: 0}
        for bits in range(1 << 8):
            coeffs = np.array(
                [(bits >> i) & 1 for i in range(8)], dtype=np.uint8
            ).reshape(2, 2, 2)
            f = MultilinearForm(2, 3, coeffs)
            r, cert = prank_exact_tiny(f)
            counts[r] += 1
            assert verify_certificate(cert)
            assert cert.size == r
        assert counts[0] == 1
        assert sum(counts.values()) == 256
        # monotonicity spot check
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = random_form(2, 3, rng)
            g = random_form(2, 3, rng)
            rf, _ = prank_exact_tiny(f)
            rg, _ = prank_exact_tiny(g)
            rs, _ = prank_exact_tiny(f + g)
            assert rs <= rf + rg

    def test_agrees_with_bilinear_on_common_domain(self):
        for bits in range(1 << 4):
            coeffs = np.array(
                [(bits >> i) & 1 for i in range(4)], dtype=np.uint8
            ).reshape(2, 2)
            f = MultilinearForm(2, 2, coeffs)
            r1, _ = prank_exact_bilinear(f)
            r2, _ = prank_exact_tiny(f)
            assert r1 == r2


class TestPrankLowerBound:
    def test_zero(self):
        assert prank_lower_bound(zero_form(3, 3)) == 0

    def test_dot(self):
        assert prank_lower_bound(dot_form(5)) == 5

    def test_lower_bound_below_certificate_size(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            r = int(rng.integers(0, 5))
            cert = random_certificate(n, k, rng, r)
            assert prank_lower_bound(cert.target) <= cert.size


def quadratic_rank_oracle(rhos):
    """Minimum rank over the nonzero combinations, one mask at a time."""
    mats = [r.coeffs for r in rhos] + [r.coeffs.T for r in rhos]
    best = None
    for mask in range(1, 1 << len(mats)):
        acc = np.zeros(mats[0].shape, dtype=np.uint8)
        for i in range(len(mats)):
            if (mask >> i) & 1:
                acc ^= mats[i]
        r = gf2.rank(acc)
        best = r if best is None else min(best, r)
    return best


class TestQuadraticVariety:
    def test_rank_hypothesis_matches_mask_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            rhos = [random_form(n, 2, rng) for _ in range(m)]
            if rng.random() < 0.3:
                rhos.append(MultilinearForm(n, 2, rhos[0].coeffs.T))
            assert quadratic_rank_hypothesis(rhos) == quadratic_rank_oracle(rhos)

    def test_no_constraints(self):
        assert quadratic_variety_fraction([]) == Dyadic.one()

    def test_rejects_what_is_not_a_family_of_bilinear_forms(self):
        rng = np.random.default_rng(13)
        mixed = [random_form(3, 2, rng), random_form(4, 2, rng)]
        trilinear = [random_form(2, 3, rng)]
        with pytest.raises(DimensionMismatch):
            quadratic_rank_hypothesis([])
        for rhos in (mixed, trilinear):
            for engine in (quadratic_rank_hypothesis, quadratic_variety_fraction):
                with pytest.raises(DimensionMismatch):
                    engine(rhos)

    def test_alternating_form(self):
        m = np.zeros((4, 4), dtype=np.uint8)
        m[0, 1] = m[1, 0] = 1  # symmetric with zero diagonal: rho(u,u) == 0
        rho = MultilinearForm(4, 2, m)
        assert quadratic_variety_fraction([rho]) == Dyadic.one()

    def test_high_rank_bound_paper(self):
        # with the rank hypothesis certified exactly, fraction >= 2^{-k-1}
        rng = np.random.default_rng(11)
        tried = 0
        while tried < 5:
            rhos = [random_form(10, 2, rng) for _ in range(2)]
            if quadratic_rank_hypothesis(rhos) < 3:
                continue
            tried += 1
            frac = quadratic_variety_fraction(rhos)
            assert frac >= Dyadic(1, 3)


class TestProjectionDecomposition:
    def test_full_space(self):
        rng = np.random.default_rng(12)
        f = random_form(3, 3, rng)
        p = gf2.complement_projection(gf2.Subspace.full(3))
        cert, residual = projection_decomposition(f, p)
        assert cert.size == 0
        assert residual == f

    def test_bilinear_codim1_exhaustive(self):
        rng = np.random.default_rng(13)
        u = gf2.Subspace.from_spanning([[1, 0, 1], [0, 1, 1]], 3)
        p = gf2.complement_projection(u)
        f = random_form(3, 2, rng)
        cert, residual = projection_decomposition(f, p)
        assert cert.size <= 2
        recon = residual.coeffs ^ expand_terms(cert.terms, 3, 2)
        assert np.array_equal(recon, f.coeffs)
        for x in gf2.all_vectors(3):
            for y in gf2.all_vectors(3):
                assert forms.evaluate(residual, [x, y]) == forms.evaluate(
                    f, [p.project(x), p.project(y)]
                )

    def test_k4_codim2_and_restriction_bound(self):
        rng = np.random.default_rng(14)
        n, k = 4, 4
        u = gf2.Subspace.from_spanning(
            rng.integers(0, 2, size=(2, n), dtype=np.uint8), n
        )
        while u.codim != 2:
            u = gf2.Subspace.from_spanning(
                rng.integers(0, 2, size=(2, n), dtype=np.uint8), n
            )
        p = gf2.complement_projection(u)
        f = random_form(n, k, rng)
        cert, residual = projection_decomposition(f, p)
        assert cert.size <= k * u.codim
        assert np.array_equal(
            residual.coeffs ^ expand_terms(cert.terms, n, k), f.coeffs
        )
        # witness prank(f) <= prank(f|_U) + k*d by concatenating certificates:
        # slice the restriction along its first variable for a crude certificate
        fu = forms.restrict_to_subspace(f, u)
        slicing_terms = []
        for i in range(u.dim):
            rest = forms.slice_form(fu, {0: gf2.unit(u.dim, i)})
            if rest.is_zero():
                continue
            slicing_terms.append(
                (
                    Factor((0,), MultilinearForm(u.dim, 1, gf2.unit(u.dim, i))),
                    Factor(tuple(range(1, k)), rest),
                )
            )
        restricted_cert = PrankCertificate(fu, tuple(slicing_terms))
        assert verify_certificate(restricted_cert)
        # extend the restricted certificate through the projection and concatenate
        ext_terms = [
            tuple(
                Factor(fac.vars, extend_form_via_projection(fac.form, p))
                for fac in term
            )
            for term in restricted_cert.terms
        ]
        total = PrankCertificate(f, tuple(ext_terms) + cert.terms)
        assert verify_certificate(total)
        assert total.size <= restricted_cert.size + k * u.codim


class TestExtendForm:
    def test_full_space_identity(self):
        rng = np.random.default_rng(15)
        g = random_form(4, 3, rng)
        p = gf2.complement_projection(gf2.Subspace.full(4))
        assert extend_form_via_projection(g, p) == g

    def test_zero(self):
        u = gf2.Subspace.from_spanning([[1, 0, 0], [0, 1, 1]], 3)
        p = gf2.complement_projection(u)
        assert extend_form_via_projection(zero_form(u.dim, 2), p).is_zero()

    def test_symmetry_and_restriction_identity(self):
        rng = np.random.default_rng(16)
        n = 5
        u = gf2.Subspace.from_spanning(
            rng.integers(0, 2, size=(3, n), dtype=np.uint8), n
        )
        p = gf2.complement_projection(u)
        g = forms.symmetrize(random_form(u.dim, 3, rng))
        ext = extend_form_via_projection(g, p)
        assert forms.is_symmetric(ext)
        assert forms.restrict_to_subspace(ext, u) == g
        # strong symmetry is preserved too
        g2 = forms.random_strongly_symmetric(u.dim, 3, rng)
        ext2 = extend_form_via_projection(g2, p)
        assert forms.is_strongly_symmetric(ext2)
        assert forms.restrict_to_subspace(ext2, u) == g2


class TestPolicy:
    def test_exact_bilinear_decision(self):
        pol = RankProxyPolicy()
        d = pol.decide_low_rank(dot_form(4), 3)
        assert d.is_low is False and d.method == "exact-bilinear"
        d2 = pol.decide_low_rank(dot_form(4), 4)
        assert d2.is_low is True and verify_certificate(d2.certificate)

    def test_tiny_decision(self):
        rng = np.random.default_rng(17)
        f = random_form(2, 3, rng)
        d = RankProxyPolicy().decide_low_rank(f, 2)
        assert d.is_low is True and d.method in ("exhaustive-tiny", "zero")

    def test_bias_threshold(self):
        pol = RankProxyPolicy(mode="bias-threshold")
        d = pol.decide_low_rank(dot_form(5), 3)
        # bias 2^-5 < 2^-3: attested high rank, no certificate
        assert d.is_low is False and d.certificate is None
        d2 = pol.decide_low_rank(dot_form(2), 3)
        assert d2.is_low is True
