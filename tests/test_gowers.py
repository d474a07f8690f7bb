import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gowers_forms import forms, gf2, gowers, nonclassical
from gowers_forms.errors import BudgetExceeded, DimensionMismatch, SizeGuard
from gowers_forms.forms import MultilinearForm, diagonal_form, dot_form, random_form
from gowers_forms.gowers import (
    box_norm,
    correlation,
    gowers_norm,
    lowrank_replace_check,
    restrict_phase,
    spectrum_search,
    step3_zero_on_subspace_check,
    subspace_restrict,
    sumset4_verify,
    symmetry_argument_check,
    walsh_hadamard,
)
from gowers_forms.nonclassical import NonClassicalPoly, TorusFunction, additive_derivative, integrate
from gowers_forms.rankbias import Factor, PrankCertificate, bias, empty_certificate, expand_terms


def random_pm1(n, rng):
    return TorusFunction.from_signs(rng.choice([-1, 1], size=1 << n))


def random_dyadic_phase(n, depth, rng):
    return TorusFunction(n, rng.integers(0, 1 << depth, size=1 << n), depth)


def _cyclotomic_value(hist, bits):
    """sum_j hist[j] zeta^j / 2^bits with zeta = e^{2 pi i / len(hist)}: a
    Fraction when the value is rational, otherwise a complex float."""
    level = len(hist) // 2
    coeffs = hist[:level] - hist[level:]  # zeta^{j + level} = -zeta^j
    if not coeffs[1:].any():
        return Fraction(int(coeffs[0]), 1 << bits)
    roots = np.exp(2j * np.pi * np.arange(len(hist)) / len(hist))
    return complex(hist @ roots) / (1 << bits)


def correlation_oracle(f, alpha):
    """Independent oracle: literal summation over all (x, shifts) tuples,
    counting the exponents of the derivative values times the form's sign."""
    n, k = f.n, alpha.arity
    m = max(f.log2_den, 1)
    nums = [int(v) for v in f.nums]
    hist = np.zeros(1 << m, dtype=np.int64)
    for tup in itertools.product(range(1 << n), repeat=k):
        sign = forms.evaluate(alpha, [gf2.vec_from_int(a, n) for a in tup])
        for x in range(1 << n):
            e = sign << (m - 1)
            for mask in range(1 << k):
                y = x
                bits = 0
                for t in range(k):
                    if (mask >> t) & 1:
                        y ^= tup[t]
                        bits += 1
                e += nums[y] if (k - bits) % 2 == 0 else -nums[y]
            hist[e % (1 << m)] += 1
    return _cyclotomic_value(hist, (k + 1) * n)


def gowers_power_oracle(f, k):
    """Independent oracle: the exponent histogram of every k-fold derivative
    table, built one shift at a time over all 2^{kn} shift tuples."""
    m = max(f.log2_den, 1)
    mod = 1 << m
    hist = np.zeros(mod, dtype=np.int64)
    idx = np.arange(1 << f.n)

    def rec(nums, depth):
        if depth == 0:
            hist[:] += np.bincount(nums, minlength=mod)
            return
        for a in range(nums.size):
            rec((nums[idx ^ a] - nums) % mod, depth - 1)

    rec(f.nums.astype(np.int64), k)
    return _cyclotomic_value(hist, (k + 1) * f.n)


def assert_matches(exact, value, err, oracle):
    """An engine result against an oracle value: equal Fractions when the
    oracle is exact, otherwise within the engine's reported error (the
    oracle's own float sum is off by under 1e-14 at these sizes)."""
    if isinstance(oracle, Fraction):
        assert exact == oracle
        assert value == float(oracle)
    else:
        assert exact is None and err > 0
        assert abs(value - oracle) <= err + 1e-14


@st.composite
def phase_and_order(draw, max_bits=12):
    """A +-1 or dyadic phase (depth 0-3) and an order k with (k+1)n <= max_bits."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_bits // (k + 1)))
    depth = draw(st.integers(0, 3))
    nums = draw(st.lists(st.integers(0, (1 << depth) - 1), min_size=1 << n, max_size=1 << n))
    return TorusFunction(n, np.array(nums, dtype=np.int64), depth), k


def form_bits(n, k):
    return st.lists(st.integers(0, 1), min_size=n**k, max_size=n**k).map(
        lambda bits: MultilinearForm(n, k, np.array(bits, dtype=np.uint8).reshape((n,) * k))
    )


class TestMder:
    """e(f)(x + a) conj e(f)(x) = e(D_a f): the additive derivative of the phase."""

    def test_constant(self):
        f = TorusFunction.zeros(3)
        for a in range(8):
            assert additive_derivative(f, a).is_zero()

    def test_zero_shift(self):
        rng = np.random.default_rng(0)
        f = random_dyadic_phase(4, 3, rng)
        assert additive_derivative(f, 0).is_zero()

    def test_commute(self):
        rng = np.random.default_rng(1)
        f = random_dyadic_phase(4, 4, rng)
        d = additive_derivative
        for _ in range(10):
            a, b = int(rng.integers(0, 16)), int(rng.integers(0, 16))
            assert d(d(f, a), b) == d(d(f, b), a)


class TestGowersNorm:
    def test_constant_norm_one(self):
        f = TorusFunction.zeros(3)
        for k in (1, 2, 3):
            r = gowers_norm(f, k)
            assert r.power_exact == 1 and r.exact_one()

    def test_classical_phase_norm_one(self):
        # phase of a classical degree-(k-1) polynomial has U^k norm exactly 1
        rng = np.random.default_rng(2)
        n, k = 3, 3
        coeffs = []
        for size in range(1, k):  # classical monomials: depth j = 0 only
            for s in itertools.combinations(range(n), size):
                if rng.integers(0, 2):
                    coeffs.append((s, 0))
        q = NonClassicalPoly(n, k - 1, coeffs=tuple(coeffs))
        f = TorusFunction.from_poly(q)
        assert f.log2_den <= 1
        r = gowers_norm(f, k)
        assert r.power_exact == 1

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            f = random_pm1(4, rng)
            norms = [gowers_norm(f, k).value for k in (1, 2, 3, 4)]
            for a, b in zip(norms, norms[1:]):
                assert a <= b + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(phase_and_order())
    def test_matches_oracle(self, fk):
        f, k = fk
        r = gowers_norm(f, k)
        assert_matches(r.power_exact, r.power, r.err, gowers_power_oracle(f, k))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_planted_integral_exact(self, k, seed):
        # the k-fold derivatives of an integral q of sigma are (-1)^{sigma(a)}
        # at every x: corr(e(q), sigma) = 1 and ||e(q)||_{U^k}^{2^k} = bias(sigma)
        n = int(np.random.default_rng(seed).integers(1, 12 // (k + 1) + 1))
        sigma = forms.random_strongly_symmetric(n, k, np.random.default_rng(seed))
        f = TorusFunction.from_poly(integrate(sigma))
        assert correlation(f, sigma).exact == 1
        assert gowers_norm(f, k).power_exact == bias(sigma).as_fraction()


def box_mixed_average(tables, shape):
    """Literal oracle: the Gowers-Cauchy-Schwarz mixed average, one table per
    subset of axes, summed over every (x, y) pair and all 2^k corners.  Corner
    ``bits`` reads axis i at x_i if bit i is set, else at y_i, and is
    conjugated when it has an odd number of set bits."""
    k = len(shape)
    total = 0j
    for xs in itertools.product(*(range(s) for s in shape)):
        for ys in itertools.product(*(range(s) for s in shape)):
            prod = 1 + 0j
            for bits in range(1 << k):
                point = tuple(xs[i] if (bits >> i) & 1 else ys[i] for i in range(k))
                value = complex(tables[bits][point])
                prod *= value.conjugate() if bin(bits).count("1") % 2 else value
            total += prod
    return total / np.prod(shape, dtype=np.int64) ** 2


class TestBoxNorm:
    def test_constant_one(self):
        t = np.ones((3, 4), dtype=np.complex128)
        assert abs(box_norm(t) - 1.0) < 1e-12

    def test_rank_one_factorizes(self):
        # each slot pairs with cancelling conjugations, so a rank-one table
        # factorizes through second moments: ||g x h|| = sqrt(E|g|^2 E|h|^2);
        # for unimodular factors that is exactly 1, and the mean-product
        # |Eg||Eh| is the Cauchy-Schwarz lower bound, attained by constants
        rng = np.random.default_rng(7)
        g = np.exp(2j * np.pi * rng.random(4))
        h = np.exp(2j * np.pi * rng.random(3))
        t = np.outer(g, h)
        assert abs(box_norm(t) - 1.0) < 1e-9
        assert abs(g.mean()) * abs(h.mean()) <= box_norm(t) + 1e-9
        g2 = g * np.array([1, 0, 1, 0])  # non-unimodular factor
        t2 = np.outer(g2, h)
        expected = (np.mean(np.abs(g2) ** 2) * np.mean(np.abs(h) ** 2)) ** 0.5
        assert abs(box_norm(t2) - expected) < 1e-9

    def test_gowers_cauchy_schwarz(self):
        rng = np.random.default_rng(8)
        shape = (3, 3)
        for _ in range(5):
            tables = {
                bits: np.exp(2j * np.pi * rng.random(shape)) for bits in range(4)
            }
            mixed = abs(box_mixed_average(tables, shape))
            bound = 1.0
            for bits in range(4):
                bound *= box_norm(tables[bits])
            assert mixed <= bound + 1e-9

    def test_box_power_recovers_gowers(self):
        # the k-fold sum-evaluation of f has box power equal to the U^k power
        rng = np.random.default_rng(9)
        f = random_pm1(2, rng)
        table = np.exp(2j * np.pi * f.nums / (1 << f.log2_den))
        k = 2
        grid = np.zeros((4, 4), dtype=np.complex128)
        for x in range(4):
            for y in range(4):
                grid[x, y] = table[x ^ y]
        assert abs(gowers.box_power(grid) - gowers_norm(f, k).power) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_box_power_matches_oracle(self, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        oracle = box_mixed_average({bits: table for bits in range(1 << len(shape))}, shape)
        assert abs(gowers.box_power(table) - oracle.real) <= 1e-9 * max(1.0, abs(oracle))
        assert abs(oracle.imag) <= 1e-9 * max(1.0, abs(oracle))

    def test_box_power_needs_an_axis(self):
        with pytest.raises(DimensionMismatch):
            gowers.box_power(np.array(1.0))


class TestCorrelation:
    def test_constant_with_zero_form(self):
        f = TorusFunction.zeros(3)
        rep = correlation(f, forms.zero_form(3, 2))
        assert rep.exact == 1

    def test_constructed_phase_correlates_exactly(self):
        # the derivative phases realize sigma exactly, so the correlation is 1,
        # exact although the phase table is deeper than +-1
        sigma = diagonal_form(3, 3)
        q = integrate(sigma)
        f = TorusFunction.from_poly(q)
        assert f.log2_den > 1
        rep = correlation(f, sigma)
        assert rep.exact == 1 and rep.err == 0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(10)
        f = random_pm1(2, rng)
        alpha = random_form(2, 4, rng)
        rep = correlation(f, alpha)
        oracle = correlation_oracle(f, alpha)
        assert abs(rep.value - oracle) < 1e-9

    def test_matches_naive_oracle_dyadic(self):
        rng = np.random.default_rng(11)
        f = random_dyadic_phase(2, 3, rng)
        alpha = random_form(2, 3, rng)
        rep = correlation(f, alpha)
        oracle = correlation_oracle(f, alpha)
        assert abs(rep.value - oracle) < 1e-7

    def test_deep_phase_matches_oracle(self):
        # level = 2^9: the form's exponent shift no longer fits the uint8 table
        rng = np.random.default_rng(13)
        f = random_dyadic_phase(2, 10, rng)
        alpha = random_form(2, 2, rng)
        rep = correlation(f, alpha)
        assert_matches(rep.exact, rep.value.real, rep.err, correlation_oracle(f, alpha))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_random(self, data):
        f, k = data.draw(phase_and_order())
        alpha = data.draw(form_bits(f.n, k))
        rep = correlation(f, alpha)
        assert_matches(rep.exact, rep.value.real, rep.err, correlation_oracle(f, alpha))

    def test_invariance_under_matched_permutation(self):
        # renaming summation variables: correlation(f, alpha∘pi) == correlation(f, alpha)
        rng = np.random.default_rng(12)
        f = random_pm1(2, rng)
        alpha = random_form(2, 3, rng)
        for img in itertools.permutations(range(3)):
            pi = forms.Permutation(3, img)
            a = correlation(f, alpha)
            b = correlation(f, forms.permute(alpha, pi))
            assert a.exact == b.exact


class TestSpectrum:
    def test_constant_function(self):
        f = TorusFunction.zeros(2)
        found = spectrum_search(f, 2, 0.99)
        assert any(alpha.is_zero() and rep.magnitude() > 0.99 for alpha, rep in found)

    def test_constructed_sigma_found(self):
        sigma = dot_form(2)
        q = integrate(sigma)
        f = TorusFunction.from_poly(q)
        found = spectrum_search(f, 2, 0.9)
        tops = [alpha for alpha, rep in found if rep.magnitude() > 0.99]
        assert sigma in tops

    def test_threshold_above_one_empty(self):
        f = TorusFunction.zeros(2)
        assert spectrum_search(f, 2, 1.1) == []

    def test_size_guard(self):
        f = TorusFunction.zeros(4)
        with pytest.raises(SizeGuard):
            spectrum_search(f, 3, 0.5)

    def test_bit_budget(self):
        # 2^{kn} derivative-table cells past the work limit, in both engines
        with pytest.raises(BudgetExceeded):
            spectrum_search(TorusFunction.zeros(1), 27, 0.5)
        with pytest.raises(BudgetExceeded):
            correlation(TorusFunction.zeros(1), forms.zero_form(1, 27))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_hits_match_correlation(self, data):
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, {1: 6, 2: 3, 3: 2, 4: 1}[k]))  # n^k <= 9: few hits
        depth = data.draw(st.integers(0, 3))
        nums = data.draw(st.lists(st.integers(0, (1 << depth) - 1), min_size=1 << n, max_size=1 << n))
        f = TorusFunction(n, np.array(nums, dtype=np.int64), depth)
        threshold = data.draw(st.floats(0.0, 1.0))
        found = spectrum_search(f, k, threshold)
        for alpha, rep in found:
            direct = correlation(f, alpha)
            assert rep.exact == direct.exact
            assert abs(rep.value - direct.value) <= rep.err + direct.err + 1e-12
            assert rep.magnitude() >= threshold - rep.err
        hits = {alpha for alpha, _ in found}
        for alpha in data.draw(st.lists(form_bits(n, k), max_size=8)):
            if correlation(f, alpha).magnitude() >= threshold + 1e-9:
                assert alpha in hits

    def test_candidate_list_path(self):
        rng = np.random.default_rng(13)
        sigma = diagonal_form(3, 3)
        f = TorusFunction.from_poly(integrate(sigma))
        candidates = [sigma, forms.zero_form(3, 3), random_form(3, 3, rng)]
        found = spectrum_search(f, 3, 0.9, candidates=candidates)
        assert found and found[0][0] == sigma


class TestLowrankReplace:
    def test_identical_forms(self):
        rng = np.random.default_rng(14)
        f = random_pm1(3, rng)
        alpha = random_form(3, 3, rng)
        rep = lowrank_replace_check(
            f, alpha, alpha, empty_certificate(forms.zero_form(3, 3))
        )
        assert rep["holds"]
        assert rep["corr_alpha"].exact == rep["corr_beta"].exact

    def test_planted_and_random_instances(self):
        rng = np.random.default_rng(15)
        sigma = diagonal_form(3, 4)
        f = TorusFunction.from_poly(integrate(sigma))
        for _ in range(12):
            term = (
                Factor((0,), random_form(3, 1, rng)),
                Factor((1, 2, 3), random_form(3, 3, rng)),
            )
            diff = MultilinearForm(3, 4, expand_terms([term], 3, 4))
            beta = sigma + diff
            cert = PrankCertificate(diff, (term,)) if not diff.is_zero() else empty_certificate(diff)
            rep = lowrank_replace_check(f, sigma, beta, cert)
            assert rep["holds"]


class TestRestrictPhase:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_pointwise_definition(self, data):
        n = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n))
        u = gf2.Subspace.from_spanning([gf2.vec_from_int(r, n) for r in rows], n)
        assume(u.dim > 0)
        w = data.draw(st.integers(0, (1 << n) - 1))
        f = random_dyadic_phase(n, 3, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        got = restrict_phase(f, u, gf2.vec_from_int(w, n))
        assert got.n == u.dim
        for c in range(1 << u.dim):
            x = gf2.vec_to_int(u.from_coords(gf2.vec_from_int(c, u.dim))) ^ w
            assert got.value_at(c) == f.value_at(x)


    def test_shift_outside_the_group_is_refused(self):
        f = random_dyadic_phase(2, 3, np.random.default_rng(0))
        u = gf2.Subspace.full(2)
        for bad in (5, -1, [1], [1, 0, 0]):
            with pytest.raises(DimensionMismatch):
                restrict_phase(f, u, bad)


class TestSubspaceRestrict:
    def test_full_space_identity(self):
        rng = np.random.default_rng(16)
        f = random_pm1(3, rng)
        alpha = random_form(3, 3, rng)
        fu, report = subspace_restrict(f, alpha, gf2.Subspace.full(3))
        assert fu == f
        assert report.corr_after == report.corr_before

    def test_codim_one_planted(self):
        # planted correlating f at n=4, k=4: restriction keeps correlation
        sigma = diagonal_form(4, 4)
        f = TorusFunction.from_poly(integrate(sigma))
        u = gf2.Subspace.from_kernel_of([gf2.unit(4, 3)], 4)
        fu, report = subspace_restrict(f, sigma, u)
        assert report.corr_after >= report.corr_before - report.tolerance

    def test_adversarial_offcoset(self):
        # correlation concentrated off the subspace itself: contract still met
        rng = np.random.default_rng(17)
        n = 3
        u = gf2.Subspace.from_kernel_of([gf2.unit(n, 2)], n)
        alpha = dot_form(n)
        q = integrate(alpha)
        base = TorusFunction.from_poly(q)
        noise = gf2.unit(n, 2)
        # translate so the clean page sits off the subspace
        f = TorusFunction(n, base.nums[np.arange(1 << n) ^ gf2.vec_to_int(noise)], base.log2_den)
        fu, report = subspace_restrict(f, alpha, u)
        assert report.corr_after >= report.corr_before - report.tolerance


class TestSymmetryArgument:
    def test_symmetric_form(self):
        rng = np.random.default_rng(18)
        f = random_pm1(3, rng)
        alpha = forms.symmetrize(random_form(3, 3, rng))
        rep = symmetry_argument_check(f, alpha, forms.Permutation.transposition(3, 0, 2))
        assert rep["diff_is_zero"]
        assert rep["bias_diff"] == gowers.Dyadic(1, 0)

    def test_correlating_instance_reports_pair(self):
        sigma = diagonal_form(3, 3)
        f = TorusFunction.from_poly(integrate(sigma))
        perturbed = sigma + forms.from_entries(3, 3, [(0, 1, 2)])
        rep = symmetry_argument_check(f, perturbed, forms.Permutation.transposition(3, 0, 1))
        assert 0 <= rep["c"] <= 1
        assert rep["bias_diff"] > 0


class TestSumset4:
    def test_full_set(self):
        n = 4
        pts = list(range(1 << n))
        assert sumset4_verify(pts, gf2.Subspace.full(n), n)

    def test_origin_only(self):
        n = 3
        assert sumset4_verify([0], gf2.Subspace.zero(n), n)
        assert not sumset4_verify([0], gf2.Subspace.full(n), n)

    def test_points_outside_the_group_are_refused(self):
        for bad in (5, -1, [1], [1, 0, 1]):
            with pytest.raises(DimensionMismatch):
                sumset4_verify([0, bad], gf2.Subspace.full(2), 2)

    def test_planted_bset(self):
        # dense random set at n=6 nearly always 4-covers the whole space
        rng = np.random.default_rng(19)
        n = 6
        pts = [int(x) for x in rng.choice(1 << n, size=40, replace=False)]
        v = gf2.Subspace.from_spanning([gf2.vec_from_int(p, n) for p in pts[:6]], n)
        got = sumset4_verify(pts, v, n)
        # verify against a direct enumeration oracle
        sums2 = {a ^ b for a in pts for b in pts}
        sums4 = {a ^ b for a in sums2 for b in sums2}
        member_ints = {gf2.vec_to_int(m) for m in v.members()}
        assert got == member_ints.issubset(sums4)


class TestStep3Check:
    def test_vanishing_on_codim_one(self):
        rng = np.random.default_rng(20)
        n, k = 4, 3
        u = gf2.Subspace.from_kernel_of([gf2.unit(n, 0)], n)
        # build rho = ell(x_0) * g(x_1, x_2) with ell killing U: vanishes on U^k
        ell = MultilinearForm(n, 1, gf2.unit(n, 0))
        g = random_form(n, 2, rng)
        term = (Factor((0,), ell), Factor((1, 2), g))
        rho = MultilinearForm(n, k, expand_terms([term], n, k))
        if rho.is_zero():
            pytest.skip("degenerate")
        rep = step3_zero_on_subspace_check(rho, u)
        assert rep["holds"]
