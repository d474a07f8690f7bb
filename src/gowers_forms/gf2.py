"""Exact linear algebra over GF(2).

Vectors are 1-D ``numpy`` arrays of dtype ``uint8`` with entries in {0, 1};
matrices are 2-D arrays of the same kind.  Every operation is exact.  All
returned arrays are fresh copies owned by the caller; subspaces and
projection data are immutable after construction.

``rref`` is the only elimination in the package: rank, solving, kernels,
membership, projections and ``decomp.change_basis`` all read its output.
Its contract is that the pivot columns of the reduced matrix are the greedy
independent columns of the input: column c is a pivot exactly when it is
not in the span of columns 0..c-1.  ``change_basis`` relies on that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


def as_gf2(a) -> np.ndarray:
    """Coerce an array-like to a uint8 array reduced mod 2."""
    return (np.asarray(a, dtype=np.uint8) & 1).astype(np.uint8)


def zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.uint8)


def unit(n: int, i: int) -> np.ndarray:
    v = zeros(n)
    v[i] = 1
    return v


def vec_from_int(x: int, n: int) -> np.ndarray:
    """Bits of ``x``, least significant bit = coordinate 0."""
    return np.array([(x >> i) & 1 for i in range(n)], dtype=np.uint8)


def vec_to_int(v) -> int:
    out = 0
    for i, b in enumerate(np.asarray(v, dtype=np.uint8)):
        if b:
            out |= 1 << i
    return out


def point_index(x, n: int) -> int:
    """The index in [0, 2^n) of a point of F_2^n given as that index or as a
    0/1 vector of length n."""
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < 1 << n:
            raise DimensionMismatch(f"point {x} outside F_2^{n}")
        return int(x)
    v = np.asarray(x)
    if v.shape != (n,) or not ((v == 0) | (v == 1)).all():
        raise DimensionMismatch(f"a point of F_2^{n} needs {n} entries in {{0, 1}}")
    return vec_to_int(v)


def all_vectors(n: int) -> np.ndarray:
    """All 2^n vectors as a (2^n, n) matrix, row i = vec_from_int(i, n)."""
    idx = np.arange(1 << n, dtype=np.uint32)
    return ((idx[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(
        np.uint8
    )


def matmul(a, b) -> np.ndarray:
    """Matrix product mod 2 (also handles matrix @ vector and stacks).

    The product runs in uint8: its sums wrap mod 256, which keeps their parity.
    """
    out = np.asarray(a, dtype=np.uint8) @ np.asarray(b, dtype=np.uint8)
    out &= 1
    return out


def rref(m) -> tuple[int, np.ndarray, np.ndarray]:
    """Row-reduce ``m`` over GF(2).

    Returns ``(rank, basis, transform)`` with ``transform @ m == basis``
    (mod 2), ``basis`` in reduced row-echelon form with zero rows trailing,
    and ``rank`` the number of nonzero rows.  ``transform`` is square and
    invertible (a product of elementary row operations).
    """
    a = as_gf2(m).copy()
    if a.ndim != 2:
        raise DimensionMismatch("rref expects a matrix")
    rows, cols = a.shape
    t = np.eye(rows, dtype=np.uint8)
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
            t[[r, pivot]] = t[[pivot, r]]
        hits = np.nonzero(a[:, c])[0]
        for i in hits:
            if i != r:
                a[i, :] ^= a[r, :]
                t[i, :] ^= t[r, :]
        r += 1
        if r == rows:
            break
    return r, a, t


def rank(m) -> int:
    return rref(m)[0]


def pivot_columns(basis: np.ndarray) -> list[int]:
    """Pivot column of each nonzero row of an RREF matrix."""
    return [int(np.argmax(row)) for row in basis if row.any()]


def solve(m, rhs) -> np.ndarray | None:
    """Solve ``m @ x == rhs`` mod 2; ``None`` when the system is infeasible.

    Infeasibility is an expected outcome (the right-hand side lies outside
    the column span), not a fault.
    """
    a = as_gf2(m)
    b = as_gf2(rhs)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch("solve expects matrix and rhs of matching rows")
    cols = a.shape[1]
    r, red, _ = rref(np.concatenate([a, b[:, None]], axis=1))
    pivots = pivot_columns(red[:r])
    if pivots and pivots[-1] == cols:
        return None
    # RREF rows have disjoint pivots, so each pivot variable is read off
    x = zeros(cols)
    x[pivots] = red[:r, cols]
    # verify (cheap, keeps the contract airtight against degenerate input)
    if not np.array_equal(matmul(a, x), b):
        return None
    return x


def _nonpivots(pivots: list[int], n: int) -> np.ndarray:
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def kernel_basis(m) -> np.ndarray:
    """Basis (rows) of the null space {x : m @ x == 0}: for each free column
    c, 1 at c and column c of the RREF at the pivot positions."""
    a = as_gf2(m)
    cols = a.shape[1]
    r, red, _ = rref(a)
    pivots = pivot_columns(red[:r])
    free = _nonpivots(pivots, cols)
    out = np.eye(cols, dtype=np.uint8)[free]
    out[:, pivots] = red[:r, free].T
    return out


def invert(m) -> np.ndarray:
    """Inverse of a square matrix over GF(2); raises when singular."""
    a = as_gf2(m)
    n = a.shape[0]
    r, red, t = rref(a)
    if r < n or not np.array_equal(red, np.eye(n, dtype=np.uint8)):
        raise DimensionMismatch("matrix is singular over GF(2)")
    return t


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^n held as an RREF basis (pivot-sorted rows).

    The canonical representation makes equality of subspaces a plain array
    comparison.
    """

    ambient_dim: int
    basis: np.ndarray  # shape (dim, ambient_dim), RREF, no zero rows

    def __post_init__(self):
        b = as_gf2(self.basis)
        if b.ndim != 2 or b.shape[1] != self.ambient_dim:
            raise DimensionMismatch("basis shape does not match ambient dim")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @staticmethod
    def from_spanning(vectors, ambient_dim: int) -> "Subspace":
        arr = as_gf2(np.atleast_2d(vectors)) if len(vectors) else np.zeros(
            (0, ambient_dim), dtype=np.uint8
        )
        if arr.size == 0:
            return Subspace(ambient_dim, np.zeros((0, ambient_dim), dtype=np.uint8))
        r, red, _ = rref(arr)
        return Subspace(ambient_dim, red[:r].copy())

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, np.eye(n, dtype=np.uint8))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, np.zeros((0, n), dtype=np.uint8))

    @staticmethod
    def from_kernel_of(functionals, ambient_dim: int) -> "Subspace":
        """Joint kernel of the given linear functionals (rows)."""
        arr = np.atleast_2d(as_gf2(functionals)) if len(functionals) else None
        if arr is None or arr.size == 0:
            return Subspace.full(ambient_dim)
        ker = kernel_basis(arr)
        return Subspace.from_spanning(ker, ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def contains(self, v) -> bool:
        v = as_gf2(v)
        if v.shape != (self.ambient_dim,):
            raise DimensionMismatch("vector length does not match ambient dim")
        return np.array_equal(self.from_coords(v[pivot_columns(self.basis)]), v)

    def from_coords(self, c) -> np.ndarray:
        c = as_gf2(c)
        if self.dim == 0:
            return zeros(self.ambient_dim)
        return matmul(c, self.basis)

    def members(self) -> np.ndarray:
        """All 2^dim member vectors, one per row (enumeration order fixed)."""
        if self.dim == 0:
            return np.zeros((1, self.ambient_dim), dtype=np.uint8)
        return matmul(all_vectors(self.dim), self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis.tobytes()))


@dataclass(frozen=True)
class ProjectionData:
    """Splitting x = project(x) + sum_i functionals[i](x) * complement_basis[i].

    ``project`` maps onto the subspace, is idempotent, and fixes the subspace
    pointwise.  The complement basis consists of the standard unit vectors at
    the non-pivot coordinates of the RREF basis; the functionals are read off
    the same RREF data, so the whole structure is reproducible from the
    subspace alone.
    """

    subspace: Subspace
    complement_basis: np.ndarray  # shape (codim, n)
    functionals: np.ndarray  # shape (codim, n), row i is the linear form phi_i
    coord_map: np.ndarray = field(repr=False, default=None)  # (dim, n): U-coords of project(x)

    def project(self, x) -> np.ndarray:
        x = as_gf2(x)
        if self.subspace.dim == 0:
            return zeros(self.subspace.ambient_dim)
        return matmul(matmul(self.coord_map, x), self.subspace.basis)

    def phi(self, x) -> np.ndarray:
        """Values of all functionals at x (length codim)."""
        if self.functionals.shape[0] == 0:
            return zeros(0)
        return matmul(self.functionals, as_gf2(x))


def complement_projection(u: Subspace) -> ProjectionData:
    """Projection data for ``u`` with unit-vector complement basis."""
    n = u.ambient_dim
    pivots = pivot_columns(u.basis)
    nonpivots = _nonpivots(pivots, n)
    eye = np.eye(n, dtype=np.uint8)
    w = eye[nonpivots]
    # phi_i(x) = coordinate of x - project(x) at the i-th non-pivot position:
    # phi_i(x) = x[q_i] - sum_j x[p_j] * basis[j, q_i]
    coord = eye[pivots]
    phi = w ^ matmul(u.basis[:, nonpivots].T, coord)
    w.setflags(write=False)
    phi.setflags(write=False)
    coord.setflags(write=False)
    return ProjectionData(u, w, phi, coord)
