import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowers_forms import forms, gf2
from gowers_forms.errors import DimensionMismatch, NotStronglySymmetric, NotSymmetric
from gowers_forms.forms import (
    MultilinearForm,
    Permutation,
    diagonal_contract,
    diagonal_form,
    dot_form,
    evaluate,
    is_strongly_symmetric,
    is_symmetric,
    lift_strongly_symmetric,
    permute,
    permute_transposition,
    random_form,
    slice_form,
    symmetrize,
    zero_form,
)


def eval_monomial_oracle(f, xs):
    """Oracle: the raw monomial sum, one term per coefficient index."""
    total = 0
    for idx in itertools.product(range(f.dim), repeat=f.arity):
        if f.coeffs[idx]:
            term = 1
            for slot, i in enumerate(idx):
                term &= int(xs[slot][i])
            total ^= term
    return total


def coefficient_classes_oracle(n, k):
    """Oracle: orbit classes of coefficient tuples under strong symmetry, by
    union-find.  Classes join two size-k multisets when both arise from a
    common (k+1)-multiset by deleting one copy of a repeated element."""
    multisets = [tuple(sorted(t)) for t in itertools.combinations_with_replacement(range(n), k)]
    parent = {m: m for m in multisets}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for big in itertools.combinations_with_replacement(range(n), k + 1):
        counts = {}
        for v in big:
            counts[v] = counts.get(v, 0) + 1
        children = []
        for v, c in counts.items():
            if c >= 2:
                reduced = list(big)
                reduced.remove(v)
                children.append(tuple(sorted(reduced)))
        for a, b in zip(children, children[1:]):
            union(a, b)

    groups = {}
    for m in multisets:
        groups.setdefault(find(m), []).append(m)

    classes = []
    for members in groups.values():
        tuples = []
        for m in members:
            tuples.extend(set(itertools.permutations(m)))
        classes.append(sorted(tuples))
    return sorted(classes)


def from_bits_oracle(n, k, bits):
    """Oracle: one bit per union-find class, set on every tuple of the class."""
    t = np.zeros((n,) * k, dtype=np.uint8)
    for b, cls in zip(bits, coefficient_classes_oracle(n, k)):
        if b:
            for idx in cls:
                t[idx] = 1
    return MultilinearForm(n, k, t)


def lift_oracle(f):
    """Oracle: the lift's coefficient rule, one (k+1)-tuple at a time."""
    n, k = f.dim, f.arity
    out = np.zeros((n,) * (k + 1), dtype=np.uint8)
    for idx in np.ndindex(*(n,) * (k + 1)):
        seen = {}
        repeated = None
        for v in idx:
            if v in seen:
                repeated = v
                break
            seen[v] = 1
        if repeated is None:
            continue
        reduced = list(idx)
        reduced.remove(repeated)
        out[idx] = f.coeffs[tuple(reduced)]
    return MultilinearForm(n, k + 1, out)


@st.composite
def sizes(draw, max_lifted=4096):
    """n <= 6 and k <= 4 with n^(k+1) <= max_lifted."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6).filter(lambda n: n ** (k + 1) <= max_lifted))
    return n, k


def all_input_tuples(n, k):
    vs = gf2.all_vectors(n)
    return itertools.product(vs, repeat=k)


class TestEvaluate:
    def test_zero_form(self):
        f = zero_form(3, 2)
        for xs in all_input_tuples(3, 2):
            assert evaluate(f, xs) == 0

    def test_dot_form(self):
        f = dot_form(3)
        e1, e2 = gf2.unit(3, 0), gf2.unit(3, 1)
        assert evaluate(f, [e1, e1]) == 1
        assert evaluate(f, [e1, e2]) == 0

    def test_against_monomial_oracle(self):
        rng = np.random.default_rng(0)
        f = random_form(3, 3, rng)
        for _ in range(50):
            xs = [rng.integers(0, 2, size=3, dtype=np.uint8) for _ in range(3)]
            assert evaluate(f, xs) == eval_monomial_oracle(f, xs)

    def test_dim_mismatch(self):
        f = dot_form(3)
        with pytest.raises(DimensionMismatch):
            evaluate(f, [gf2.unit(4, 0), gf2.unit(4, 1)])


class TestSlice:
    def test_zero(self):
        f = zero_form(2, 3)
        s = slice_form(f, {0: gf2.unit(2, 0)})
        assert s.is_zero() and s.arity == 2

    def test_dot_slice(self):
        f = dot_form(3)
        s = slice_form(f, {0: gf2.unit(3, 2)})
        assert s.support() == [(2,)]

    def test_exhaustive_merge_oracle(self):
        rng = np.random.default_rng(1)
        n, k = 3, 4
        f = random_form(n, k, rng)
        fixed = {1: rng.integers(0, 2, size=n, dtype=np.uint8),
                 3: rng.integers(0, 2, size=n, dtype=np.uint8)}
        s = slice_form(f, fixed)
        for y0 in gf2.all_vectors(n):
            for y2 in gf2.all_vectors(n):
                merged = [y0, fixed[1], y2, fixed[3]]
                assert evaluate(s, [y0, y2]) == evaluate(f, merged)

    def test_rejects_fixing_all(self):
        f = dot_form(2)
        with pytest.raises(DimensionMismatch):
            slice_form(f, {0: gf2.unit(2, 0), 1: gf2.unit(2, 1)})


class TestPermute:
    def test_identity(self):
        rng = np.random.default_rng(2)
        f = random_form(3, 3, rng)
        assert permute(f, Permutation.identity(3)) == f

    def test_involution(self):
        rng = np.random.default_rng(3)
        f = random_form(3, 4, rng)
        p = Permutation.transposition(4, 1, 3)
        assert permute(permute(f, p), p) == f

    def test_equivariance_exhaustive(self):
        rng = np.random.default_rng(4)
        f = random_form(2, 3, rng)
        p = Permutation.from_cycle(3, (0, 1, 2))
        for xs in all_input_tuples(2, 3):
            xs = list(xs)
            assert evaluate(permute(f, p), xs) == evaluate(f, p.apply_to_inputs(xs))

    @given(st.integers(0, 2**16 - 1), st.permutations(range(3)), st.permutations(range(3)))
    @settings(max_examples=60, deadline=None)
    def test_group_action(self, bits, img_p, img_q):
        coeffs = np.array([(bits >> i) & 1 for i in range(8)], dtype=np.uint8).reshape(2, 2, 2)
        f = MultilinearForm(2, 3, coeffs)
        p = Permutation(3, tuple(img_p))
        q = Permutation(3, tuple(img_q))
        # composing coordinate actions: permute twice == permute by p.compose(q)
        assert permute(permute(f, p), q) == permute(f, p.compose(q))

    def test_slice_commutes_with_permute_disjoint(self):
        # exhaustive at n=2, k=4: fixing slots {2,3}, permuting slots {0,1}
        rng = np.random.default_rng(5)
        f = random_form(2, 4, rng)
        p01 = Permutation.transposition(4, 0, 1)
        for v2 in gf2.all_vectors(2):
            for v3 in gf2.all_vectors(2):
                s_then_p = permute(
                    slice_form(f, {2: v2, 3: v3}), Permutation.transposition(2, 0, 1)
                )
                p_then_s = slice_form(permute(f, p01), {2: v2, 3: v3})
                assert s_then_p == p_then_s


class TestSymmetry:
    def test_zero_symmetric(self):
        assert is_symmetric(zero_form(2, 3), (0, 1, 2))

    def test_single_off_diagonal_not_symmetric(self):
        f = forms.from_entries(2, 2, [(0, 1)])
        assert not is_symmetric(f, (0, 1))

    def test_symmetrized_random_is_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = random_form(3, 3, rng)
            s = symmetrize(f, (0, 1, 2))
            assert is_symmetric(s, (0, 1, 2))
            # also check partial symmetrization
            s2 = symmetrize(f, (1, 2))
            assert is_symmetric(s2, (1, 2))


class TestDiagonalContract:
    def test_dot_form(self):
        g = diagonal_contract(dot_form(4))
        assert np.array_equal(g.coeffs, np.ones(4, dtype=np.uint8))

    def test_single_supported(self):
        f = forms.from_entries(3, 3, [(0, 0, j) for j in range(3)])
        g = diagonal_contract(f)
        assert g.support() == [(0, j) for j in range(3)]

    def test_requires_symmetry(self):
        f = forms.from_entries(2, 2, [(0, 1)])
        with pytest.raises(NotSymmetric):
            diagonal_contract(f)

    def test_exhaustive_identity(self):
        rng = np.random.default_rng(7)
        n, k = 4, 4
        f = random_form(n, k, rng)
        f = f + permute_transposition(f, 0, 1)  # symmetric part vanishes; add sym piece
        f = f + diagonal_form(n, k)
        assert is_symmetric(f, (0, 1))
        g = diagonal_contract(f)
        vs = gf2.all_vectors(n)
        for d in vs:
            for y2_int in range(1 << n):
                for y3_int in range(1 << n):
                    y2, y3 = vs[y2_int], vs[y3_int]
                    assert evaluate(g, [d, y2, y3]) == evaluate(f, [d, d, y2, y3])

    def test_contraction_linear_in_d(self):
        # for f symmetric in {0,1}, d -> f(d,d,y) is linear (char 2)
        rng = np.random.default_rng(8)
        n, k = 3, 3
        f = random_form(n, k, rng)
        f = f + permute_transposition(f, 0, 1)
        g = diagonal_contract(f)
        vs = gf2.all_vectors(n)
        for y in vs:
            for d1 in vs:
                for d2 in vs:
                    lhs = evaluate(f, [d1 ^ d2, d1 ^ d2, y])
                    rhs = evaluate(f, [d1, d1, y]) ^ evaluate(f, [d2, d2, y])
                    assert lhs == rhs
                    assert lhs == evaluate(g, [d1 ^ d2, y])


class TestStrongSymmetry:
    def test_zero(self):
        assert is_strongly_symmetric(zero_form(3, 3))

    def test_diagonal_form(self):
        assert is_strongly_symmetric(diagonal_form(4, 3))

    def test_symmetric_but_not_strongly(self):
        # exhaustive search over all 2^8 tensors at n=2, k=3 finds a witness
        found = None
        for bits in range(1 << 8):
            coeffs = np.array([(bits >> i) & 1 for i in range(8)], dtype=np.uint8).reshape(2, 2, 2)
            f = MultilinearForm(2, 3, coeffs)
            if is_symmetric(f) and not is_strongly_symmetric(f):
                found = f
                break
        assert found is not None
        assert is_symmetric(found)
        assert not is_symmetric(diagonal_contract(found))


class TestLift:
    def test_zero(self):
        assert lift_strongly_symmetric(zero_form(2, 2)).is_zero()

    def test_dot_form_lift(self):
        # coefficient rule applied by hand: mu[iii] = 1, mu[iij] = 0 for i != j
        lifted = lift_strongly_symmetric(dot_form(3))
        expected = diagonal_form(3, 3)
        assert lifted == expected
        # round-trip verified exhaustively at n <= 5
        for n in range(1, 6):
            lf = lift_strongly_symmetric(dot_form(n))
            assert diagonal_contract(lf) == dot_form(n)

    def test_rejects_non_strongly_symmetric(self):
        f = forms.from_entries(2, 2, [(0, 1)])
        with pytest.raises(NotStronglySymmetric):
            lift_strongly_symmetric(f)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            f = forms.random_strongly_symmetric(3, 3, rng)
            lifted = lift_strongly_symmetric(f)
            assert is_strongly_symmetric(lifted)
            assert diagonal_contract(lifted) == f

    def test_roundtrip_exhaustive_tiny(self):
        for k in (2, 3):
            for f in forms.all_strongly_symmetric(2, k):
                lifted = lift_strongly_symmetric(f)
                assert is_strongly_symmetric(lifted)
                assert diagonal_contract(lifted) == f

    def test_class_generator_matches_predicate(self):
        # the class-based enumeration yields exactly the strongly symmetric forms
        ss = {f.coeffs.tobytes() for f in forms.all_strongly_symmetric(2, 3)}
        brute = set()
        for bits in range(1 << 8):
            coeffs = np.array([(bits >> i) & 1 for i in range(8)], dtype=np.uint8).reshape(2, 2, 2)
            f = MultilinearForm(2, 3, coeffs)
            if is_strongly_symmetric(f):
                brute.add(f.coeffs.tobytes())
        assert ss == brute


class TestSupportClassesDifferential:
    @given(sizes())
    @settings(max_examples=40, deadline=None)
    def test_class_order_matches_oracle(self, size):
        n, k = size
        classes, canon = forms._support_classes(n, k)
        oracle = coefficient_classes_oracle(n, k)
        assert [np.unravel_index(c, (n,) * k) for c in classes] == [cls[0] for cls in oracle]
        for rep, cls in zip(classes, oracle):
            assert all(canon[idx] == rep for idx in cls)

    @given(sizes(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_from_bits_matches_oracle(self, size, data):
        n, k = size
        count = len(forms._support_classes(n, k)[0])
        bits = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
        assert forms.strongly_symmetric_from_bits(n, k, bits) == from_bits_oracle(n, k, bits)

    @given(sizes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lift_matches_oracle(self, size, seed):
        n, k = size
        f = forms.random_strongly_symmetric(n, k, np.random.default_rng(seed))
        assert lift_strongly_symmetric(f) == lift_oracle(f)


class TestApplyLinear:
    def test_restrict_extend_roundtrip(self):
        rng = np.random.default_rng(10)
        n = 5
        u = gf2.Subspace.from_spanning(rng.integers(0, 2, size=(3, n), dtype=np.uint8), n)
        p = gf2.complement_projection(u)
        g = random_form(u.dim, 3, rng)
        extended = forms.apply_linear(g, p.coord_map)
        restricted = forms.restrict_to_subspace(extended, u)
        assert restricted == g

    def test_truth_table_matches_evaluate(self):
        rng = np.random.default_rng(11)
        f = random_form(3, 2, rng)
        tab = forms.truth_table(f)
        for xi in range(8):
            for yi in range(8):
                assert tab[xi, yi] == evaluate(
                    f, [gf2.vec_from_int(xi, 3), gf2.vec_from_int(yi, 3)]
                )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_table_matches_evaluate(self, data):
        k = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 12 // k))
        f = data.draw(st.lists(st.integers(0, 1), min_size=n**k, max_size=n**k).map(
            lambda bits: MultilinearForm(n, k, np.array(bits, dtype=np.uint8).reshape((n,) * k))
        ))
        tab = forms.truth_table(f)
        assert tab.shape == (1 << n,) * k
        for _ in range(8):
            point = data.draw(st.tuples(*[st.integers(0, (1 << n) - 1)] * k))
            assert tab[point] == evaluate(f, [gf2.vec_from_int(v, n) for v in point])
