import itertools

import numpy as np
import pytest

from gowers_forms import gf2
from gowers_forms.errors import DimensionMismatch


def span_of(rows, n):
    """Oracle: the full span, by enumerating all 2^r combinations."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
    vs = set()
    for mask in range(1 << rows.shape[0]):
        acc = np.zeros(n, dtype=np.uint8)
        for i in range(rows.shape[0]):
            if (mask >> i) & 1:
                acc ^= rows[i]
        vs.add(acc.tobytes())
    return vs


def test_point_index():
    assert gf2.point_index(5, 3) == gf2.point_index(np.int64(5), 3) == 5
    assert gf2.point_index([1, 0, 1], 3) == gf2.point_index(np.array([1, 0, 1], np.uint8), 3) == 5
    for bad in (-1, 8, [1, 0], [1, 0, 1, 0], [2, 0, 0], [[1, 0, 1]], 1.0):
        with pytest.raises(DimensionMismatch):
            gf2.point_index(bad, 3)


class TestRref:
    def test_identity(self):
        r, basis, t = gf2.rref(np.eye(3, dtype=np.uint8))
        assert r == 3
        assert np.array_equal(basis, np.eye(3, dtype=np.uint8))

    def test_zero(self):
        r, basis, _ = gf2.rref(np.zeros((4, 4), dtype=np.uint8))
        assert r == 0
        assert not basis.any()

    def test_random_rank_matches_span_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.integers(0, 2, size=(6, 6), dtype=np.uint8)
            r, basis, t = gf2.rref(m)
            # transform property
            assert np.array_equal(gf2.matmul(t, m), basis)
            # rank equals log2 of span size computed exhaustively
            span = span_of(m, 6)
            assert len(span) == 1 << r
            # rref of the basis is the basis again (idempotence)
            r2, basis2, _ = gf2.rref(basis)
            assert r2 == r
            assert np.array_equal(basis2, basis)


class TestSolve:
    def test_identity(self):
        x = gf2.solve(np.eye(3, dtype=np.uint8), gf2.unit(3, 0))
        assert np.array_equal(x, gf2.unit(3, 0))

    def test_zero_matrix_infeasible(self):
        assert gf2.solve(np.zeros((3, 3), dtype=np.uint8), gf2.unit(3, 1)) is None

    def test_consistent_by_substitution(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = rng.integers(0, 2, size=(5, 7), dtype=np.uint8)
            x0 = rng.integers(0, 2, size=7, dtype=np.uint8)
            rhs = gf2.matmul(m, x0)
            x = gf2.solve(m, rhs)
            assert x is not None
            assert np.array_equal(gf2.matmul(m, x), rhs)

    def test_infeasible_iff_outside_span(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            m = rng.integers(0, 2, size=(5, 3), dtype=np.uint8)
            cols = span_of(m.T, 5)
            for v_int in range(1 << 5):
                v = gf2.vec_from_int(v_int, 5)
                got = gf2.solve(m, v)
                if v.tobytes() in cols:
                    assert got is not None and np.array_equal(gf2.matmul(m, got), v)
                else:
                    assert got is None


class TestKernel:
    def test_kernel_vectors_annihilate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
            ker = gf2.kernel_basis(m)
            assert gf2.rank(ker) == ker.shape[0]
            for row in ker:
                assert not gf2.matmul(m, row).any()
            assert ker.shape[0] == 6 - gf2.rank(m)


class TestSubspace:
    def test_canonical_equality(self):
        rng = np.random.default_rng(5)
        vs = rng.integers(0, 2, size=(3, 5), dtype=np.uint8)
        u1 = gf2.Subspace.from_spanning(vs, 5)
        # shuffled/extended spanning set gives the same canonical object
        vs2 = np.array([vs[2], vs[0] ^ vs[1], vs[1], vs[0]])
        u2 = gf2.Subspace.from_spanning(vs2, 5)
        assert u1 == u2
        assert hash(u1) == hash(u2)

    def test_membership_matches_span_oracle(self):
        rng = np.random.default_rng(17)
        vs = rng.integers(0, 2, size=(3, 6), dtype=np.uint8)
        u = gf2.Subspace.from_spanning(vs, 6)
        span = span_of(vs, 6)
        for x_int in range(1 << 6):
            x = gf2.vec_from_int(x_int, 6)
            assert u.contains(x) == (x.tobytes() in span)

    def test_membership_rejects_wrong_length(self):
        u = gf2.Subspace.from_spanning([gf2.unit(4, 0)], 4)
        for v in ([1, 0, 0], [1, 0, 0, 0, 0]):
            with pytest.raises(DimensionMismatch):
                u.contains(v)

    def test_members_enumeration(self):
        u = gf2.Subspace.from_spanning([[1, 0, 1], [0, 1, 0]], 3)
        mem = u.members()
        assert mem.shape == (4, 3)
        assert len({m.tobytes() for m in mem}) == 4
        for m in mem:
            assert u.contains(m)


class TestComplementProjection:
    def test_full_space(self):
        u = gf2.Subspace.full(4)
        p = gf2.complement_projection(u)
        assert p.complement_basis.shape[0] == 0
        for x_int in range(16):
            x = gf2.vec_from_int(x_int, 4)
            assert np.array_equal(p.project(x), x)

    def test_zero_space(self):
        u = gf2.Subspace.zero(2)
        p = gf2.complement_projection(u)
        assert p.complement_basis.shape[0] == 2
        for x_int in range(4):
            x = gf2.vec_from_int(x_int, 2)
            assert not p.project(x).any()
            # reconstruction x = project(x) + sum phi_i(x) w_i
            rec = p.project(x).copy()
            for i in range(2):
                if p.phi(x)[i]:
                    rec ^= p.complement_basis[i]
            assert np.array_equal(rec, x)

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction_identity_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        vs = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
        u = gf2.Subspace.from_spanning(vs, 6)
        p = gf2.complement_projection(u)
        assert p.complement_basis.shape[0] == u.codim
        for x_int in range(1 << 6):
            x = gf2.vec_from_int(x_int, 6)
            pr = p.project(x)
            assert u.contains(pr)
            # idempotence
            assert np.array_equal(p.project(pr), pr)
            rec = pr.copy()
            phis = p.phi(x)
            for i in range(u.codim):
                if phis[i]:
                    rec ^= p.complement_basis[i]
            assert np.array_equal(rec, x)

    def test_projection_fixes_subspace_pointwise(self):
        u = gf2.Subspace.from_spanning([[1, 1, 0, 0], [0, 0, 1, 1]], 4)
        p = gf2.complement_projection(u)
        for m in u.members():
            assert np.array_equal(p.project(m), m)


class TestInvert:
    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        found = 0
        while found < 10:
            m = rng.integers(0, 2, size=(5, 5), dtype=np.uint8)
            if gf2.rank(m) < 5:
                continue
            found += 1
            inv = gf2.invert(m)
            assert np.array_equal(gf2.matmul(inv, m), np.eye(5, dtype=np.uint8))
