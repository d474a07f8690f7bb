import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowers_forms import forms, gf2, nonclassical
from gowers_forms.dyadic import Dyadic
from gowers_forms.errors import DimensionMismatch, SolverFailed
from gowers_forms.forms import diagonal_form, dot_form
from gowers_forms.nonclassical import (
    NonClassicalPoly,
    TorusFunction,
    TorusValue,
    additive_derivative,
    degree,
    derivative_tables,
    derivative_identity_check,
    evaluate_poly,
    integrate,
    poly_from_table,
    poly_to_table,
)


def eval_poly_oracle(q, x):
    """Oracle: direct Fraction summation over the monomial representation."""
    total = Fraction(q.constant.num, 1 << q.constant.log2_den)
    for s, j in q.coeffs:
        if all(x[v] for v in s):
            total += Fraction(1, 1 << (j + 1))
    total -= int(total)
    return total


def derivative_identity_oracle(table, sigma):
    """Oracle: every k-fold derivative table, one shift tuple at a time in
    row-major order, against |sigma(a)|/2; returns (ok, tuples_checked)."""
    n, k = sigma.dim, sigma.arity
    checked = 0

    def rec(tab, tensor, depth):
        nonlocal checked
        if depth == k:
            checked += 1
            m = max(tab.log2_den, 1)
            half = TorusValue(1, 1).scaled(m) * int(tensor)
            return tab == TorusFunction(n, np.full(1 << n, half, dtype=np.int64), m)
        for a in range(1 << n):
            v = gf2.vec_from_int(a, n).astype(np.int64)
            sub = np.tensordot(v, tensor, axes=([0], [0])) % 2
            if not rec(additive_derivative(tab, a), sub, depth + 1):
                return False
        return True

    return rec(table, sigma.coeffs.astype(np.int64), 0), checked


def degree_check_oracle(f, d):
    """Oracle: every (d+1)-fold additive derivative of f vanishes, by applying
    every shift one level at a time.  Equal tables are kept once and zero
    tables dropped, since all their further derivatives vanish."""
    tables = set() if f.is_zero() else {f}
    for _ in range(d + 1):
        tables = {
            g
            for t in tables
            for a in range(1 << f.n)
            if not (g := additive_derivative(t, a)).is_zero()
        }
    return not tables


def _alternating_sum(s_mask, shifts):
    """sum over T of (-1)^{k-|T|} m_S(xor of shifts in T) at the zero point."""
    k = len(shifts)
    total = 0
    for t_mask in range(1 << k):
        x = 0
        bits = 0
        for t in range(k):
            if (t_mask >> t) & 1:
                x ^= shifts[t]
                bits += 1
        if x & s_mask == s_mask:
            total += 1 if (k - bits) % 2 == 0 else -1
    return total


def integrate_oracle(sigma):
    """Oracle: the derivative identity at every basis shift tuple as one GF(2)
    system on the full-weight monomial bits, solved by elimination."""
    n, k = sigma.dim, sigma.arity
    subsets = []
    for size in range(1, min(n, k) + 1):
        subsets.extend(itertools.combinations(range(n), size))
    rows = []
    rhs = []
    for tup in itertools.product(range(n), repeat=k):
        shifts = [1 << i for i in tup]
        row = np.zeros(len(subsets), dtype=np.uint8)
        for col, s in enumerate(subsets):
            s_mask = 0
            for v in s:
                s_mask |= 1 << v
            dval = _alternating_sum(s_mask, shifts)
            assert dval % (1 << (k - len(s))) == 0
            row[col] = (dval >> (k - len(s))) & 1
        rows.append(row)
        rhs.append(int(sigma.coeffs[tup]))
    solution = gf2.solve(np.stack(rows), np.array(rhs, dtype=np.uint8))
    assert solution is not None
    coeffs = tuple(
        (subsets[i], k - len(subsets[i])) for i in range(len(subsets)) if solution[i]
    )
    return NonClassicalPoly(n, k, TorusValue.zero(), coeffs)


def random_poly(n, d, rng):
    coeffs = []
    for size in range(1, min(n, d) + 1):
        for s in itertools.combinations(range(n), size):
            for j in range(0, d - size + 1):
                if rng.integers(0, 2):
                    coeffs.append((s, j))
    const = TorusValue(int(rng.integers(0, 1 << (d + 1))), d + 1)
    return NonClassicalPoly(n, d, const, tuple(coeffs))


class TestTorusValue:
    def test_canonical_reduction(self):
        assert TorusValue(4, 3) == TorusValue(1, 1)
        assert TorusValue(8, 3) == TorusValue(0, 0)
        assert TorusValue(-1, 2) == TorusValue(3, 2)

    def test_arithmetic(self):
        assert TorusValue(1, 1) + TorusValue(1, 1) == TorusValue.zero()
        assert TorusValue(1, 2) + TorusValue(1, 2) == TorusValue(1, 1)
        assert TorusValue(1, 2) - TorusValue(3, 2) == TorusValue(1, 1)

    def test_is_a_dyadic_reduced_mod_one(self):
        assert isinstance(TorusValue(1, 2), Dyadic)
        assert isinstance(TorusValue(1, 2) - TorusValue(3, 2), TorusValue)
        assert isinstance(TorusValue.zero(), TorusValue)
        assert TorusValue.one() == TorusValue.zero()
        assert Dyadic(1, 2) - Dyadic(3, 2) == Dyadic(-1, 1)
        assert TorusValue(3, 2).scaled(4) == 12

    def test_negative_denominator_raises(self):
        with pytest.raises(ValueError):
            TorusValue(1, -1)


class TestTorusFunction:
    def test_rejects_wrong_length(self):
        for log2_den in (0, 2):
            with pytest.raises(DimensionMismatch):
                TorusFunction(3, [1, 2], log2_den)

    def test_zero_denominator_is_zero(self):
        assert TorusFunction(2, [1, 2, 3, 4], 0) == TorusFunction.zeros(2)

    def test_equal_tables_hash_alike(self):
        # equal at different denominators; log2_den itself stays as given
        for a, b in [
            (TorusFunction(1, [0, 2], 2), TorusFunction(1, [0, 1], 1)),
            (TorusFunction(2, [0, 4, 8, 12], 4), TorusFunction(2, [0, 1, 2, 3], 2)),
            (TorusFunction(2, [0, 0, 0, 0], 3), TorusFunction.zeros(2)),
        ]:
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert TorusFunction(1, [0, 2], 2).log2_den == 2
        assert hash(TorusFunction(1, [0, 1], 2)) != hash(TorusFunction(1, [0, 1], 1))

    def test_points_outside_the_group_are_refused(self):
        t = TorusFunction(2, [0, 1, 2, 3], 2)
        assert t.value_at([1, 0]) == t.value_at(1) == TorusValue(1, 2)
        for bad in ([1], [1, 0, 0], [2, 0], 4, -1):
            with pytest.raises(DimensionMismatch):
                t.value_at(bad)
            with pytest.raises(DimensionMismatch):
                additive_derivative(t, bad)


class TestEvaluatePoly:
    def test_zero(self):
        q = NonClassicalPoly(3, 2)
        for x in gf2.all_vectors(3):
            assert evaluate_poly(q, x) == TorusValue.zero()

    def test_single_monomial(self):
        q = NonClassicalPoly(2, 1, coeffs=(((0,), 0),))
        assert evaluate_poly(q, gf2.unit(2, 0)) == TorusValue(1, 1)
        assert evaluate_poly(q, gf2.zeros(2)) == TorusValue.zero()

    def test_against_direct_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = random_poly(3, 4, rng)
            for x in gf2.all_vectors(3):
                got = evaluate_poly(q, x)
                want = eval_poly_oracle(q, x)
                assert Fraction(got.num, 1 << got.log2_den) == want

    def test_table_matches_pointwise(self):
        rng = np.random.default_rng(1)
        q = random_poly(3, 3, rng)
        tab = poly_to_table(q)
        for i, x in enumerate(gf2.all_vectors(3)):
            assert tab.value_at(i) == evaluate_poly(q, x)


class TestAdditiveDerivative:
    def test_constant_function(self):
        f = TorusFunction(3, np.full(8, 5, dtype=np.int64), 3)
        for a in range(8):
            assert additive_derivative(f, a).is_zero()

    def test_zero_shift(self):
        rng = np.random.default_rng(2)
        f = TorusFunction(4, rng.integers(0, 16, size=16), 4)
        assert additive_derivative(f, 0).is_zero()

    def test_derivatives_commute(self):
        rng = np.random.default_rng(3)
        f = TorusFunction(4, rng.integers(0, 32, size=16), 5)
        for _ in range(20):
            a, b = rng.integers(0, 16, size=2)
            ab = additive_derivative(additive_derivative(f, int(a)), int(b))
            ba = additive_derivative(additive_derivative(f, int(b)), int(a))
            assert ab == ba


def sample_table(n, log2_den, seed, kind):
    """A random table, the table of a random polynomial, or an integral."""
    rng = np.random.default_rng(seed)
    if kind == "table":
        return TorusFunction(n, rng.integers(0, 1 << log2_den, size=1 << n), log2_den)
    if kind == "poly":
        return poly_to_table(random_poly(n, log2_den - 1, rng))
    k = max(log2_den - 1, 1)
    return poly_to_table(integrate(forms.random_strongly_symmetric(n, k, rng), verify=False))


class TestDegreeCheck:
    def test_constant(self):
        f = TorusFunction(2, np.full(4, 3, dtype=np.int64), 2)
        assert degree(f) == 0

    def test_zero_table(self):
        assert degree(TorusFunction.zeros(3)) == -1
        assert degree(TorusFunction(2, [4, 8, 0, 12], 2)) == -1

    def test_half_monomial_degree_one(self):
        q = NonClassicalPoly(2, 1, coeffs=(((0,), 0),))
        tab = poly_to_table(q)
        assert degree(tab) == 1

    def test_representation_degree_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            d = int(rng.integers(1, 4))
            q = random_poly(3, d, rng)
            assert degree(poly_to_table(q)) <= d

    def test_deep_monomial_needs_depth(self):
        # |x_0| / 4 has degree exactly 2
        q = NonClassicalPoly(2, 2, coeffs=(((0,), 1),))
        tab = poly_to_table(q)
        assert degree(tab) == 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["table", "poly", "integral"]),
        st.integers(-1, 5),
    )
    def test_matches_oracle(self, n, log2_den, seed, kind, d):
        f = sample_table(n, log2_den, seed, kind)
        assert (degree(f) <= d) == degree_check_oracle(f, d)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_integral_has_degree_k(self, k, seed, data):
        n = data.draw(st.integers(1, 6).filter(lambda n: n ** (k + 1) <= 4096))
        sigma = forms.random_strongly_symmetric(n, k, np.random.default_rng(seed))
        if sigma.is_zero():
            sigma = forms.diagonal_form(n, k)
        assert degree(poly_to_table(integrate(sigma, verify=False))) == k


class TestPolyFromTable:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            q = random_poly(3, d, rng)
            back = poly_from_table(poly_to_table(q), d)
            assert back == q

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_roundtrip_random(self, n, d, seed):
        q = random_poly(n, d, np.random.default_rng(seed))
        assert poly_from_table(poly_to_table(q), d) == q

    def test_rejects_wrong_degree(self):
        q = NonClassicalPoly(2, 2, coeffs=(((0,), 1),))
        with pytest.raises(SolverFailed):
            poly_from_table(poly_to_table(q), 1)

    def test_nonzero_constant_needs_degree_zero(self):
        with pytest.raises(SolverFailed):
            poly_from_table(TorusFunction(2, [1, 1, 1, 1], 1), -1)
        assert poly_from_table(TorusFunction.zeros(2), -1).constant == TorusValue.zero()
        with pytest.raises(DimensionMismatch):
            NonClassicalPoly(2, -1, TorusValue(1, 1))


class TestIntegrate:
    def test_zero_form(self):
        q = integrate(forms.zero_form(2, 2))
        assert not q.coeffs

    def test_linear_form(self):
        ell = forms.MultilinearForm(3, 1, np.array([1, 0, 1], dtype=np.uint8))
        q = integrate(ell)
        tab = poly_to_table(q)
        for a in range(8):
            d = additive_derivative(tab, a)
            bit = forms.evaluate(ell, [gf2.vec_from_int(a, 3)])
            expected = TorusValue(bit, 1)
            assert all(v == expected for v in d.values())

    def test_dot_form_n3_exhaustive(self):
        sigma = dot_form(3)
        q = integrate(sigma)
        ok, checked = derivative_identity_check(poly_to_table(q), sigma)
        assert ok
        assert checked == 64  # all 2^{2n} shift tuples

    def test_diagonal_forms(self):
        for n, k in [(2, 2), (2, 3), (3, 3), (2, 4)]:
            sigma = diagonal_form(n, k)
            q = integrate(sigma)
            ok, _ = derivative_identity_check(poly_to_table(q), sigma)
            assert ok

    def test_random_strongly_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            sigma = forms.random_strongly_symmetric(3, 3, rng)
            q = integrate(sigma)
            assert q.degree_bound == 3
            ok, _ = derivative_identity_check(poly_to_table(q), sigma)
            assert ok

    def test_rejects_not_strongly_symmetric(self):
        f = forms.from_entries(2, 2, [(0, 1)])
        with pytest.raises(DimensionMismatch):
            integrate(f)

    def test_integration_lift_consistency(self):
        # derivatives of the lifted integral with a repeated shift reproduce
        # the base identity: D_a D_a D_rest q~ = |sigma(a, rest)| / 2
        rng = np.random.default_rng(7)
        for n in (2, 3):
            sigma = forms.random_strongly_symmetric(n, 2, rng)
            lifted = forms.lift_strongly_symmetric(sigma)
            q2 = integrate(lifted)
            tab = poly_to_table(q2)
            for a in range(1 << n):
                for rest in range(1 << n):
                    d = additive_derivative(
                        additive_derivative(additive_derivative(tab, a), a), rest
                    )
                    bit = forms.evaluate(
                        sigma, [gf2.vec_from_int(a, n), gf2.vec_from_int(rest, n)]
                    )
                    expected = TorusValue(bit, 1)
                    assert all(v == expected for v in d.values())


class TestIntegrateDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_system_oracle(self, data):
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 6).filter(lambda n: n ** (k + 1) <= 4096))
        count = len(forms._support_classes(n, k)[0])
        bits = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
        sigma = forms.strongly_symmetric_from_bits(n, k, bits)
        assert integrate(sigma, verify=False) == integrate_oracle(sigma)


class TestDerivativeTables:
    def test_rows_are_iterated_derivatives(self):
        rng = np.random.default_rng(8)
        f = TorusFunction(3, rng.integers(0, 8, size=8), 3)
        tables = derivative_tables(f, 2)
        assert tables.shape == (64, 8)
        for a, b in itertools.product(range(8), repeat=2):
            want = additive_derivative(additive_derivative(f, a), b)
            assert np.array_equal(tables[a * 8 + b], want.nums)

    def test_depth_zero_is_a_copy(self):
        f = TorusFunction(2, np.array([0, 1, 2, 3]), 2)
        tables = derivative_tables(f, 0)
        tables[0, 0] = 5
        assert f.nums[0] == 0


class TestIdentityCheckDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, k, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12 // (k + 1) + 1))
        sigma = forms.random_strongly_symmetric(n, k, rng)
        tab = poly_to_table(integrate(sigma, verify=False))
        m = max(tab.log2_den, 1)
        perturbed = tab.nums.copy()
        perturbed[int(rng.integers(0, 1 << n))] += 1 << int(rng.integers(0, m))
        wrong = forms.random_form(n, k, rng)
        assert derivative_identity_check(tab, sigma) == (True, 1 << (k * n))
        for table in (tab, TorusFunction(n, perturbed, m)):
            for form in (sigma, wrong):
                got = derivative_identity_check(table, form)
                assert got == derivative_identity_oracle(table, form)
