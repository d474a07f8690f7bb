"""Multilinear forms on (F_2^n)^k as dense bit coefficient tensors.

A form is stored as its full coefficient tensor of shape ``(n,) * k``:
``f(x_1, ..., x_k) = sum over (i_1..i_k) of coeffs[i] * x_1[i_1] * ... *
x_k[i_k]`` mod 2.  Variables are indexed 0..k-1 throughout.  Forms are
immutable; every operation returns a new form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import DimensionMismatch, NotStronglySymmetric, NotSymmetric, require_work


@dataclass(frozen=True)
class MultilinearForm:
    """A k-linear form on F_2^n as its coefficient tensor.  Cost: n^k cells."""

    dim: int
    arity: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.arity < 1 or self.dim < 1:
            raise DimensionMismatch("arity and dim must be positive")
        require_work(self.dim**self.arity, "coefficient tensor")
        c = gf2.as_gf2(self.coeffs)
        if c.shape != (self.dim,) * self.arity:
            raise DimensionMismatch(
                f"coeff tensor shape {c.shape} != {(self.dim,) * self.arity}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "MultilinearForm") -> "MultilinearForm":
        if (self.dim, self.arity) != (other.dim, other.arity):
            raise DimensionMismatch("form shapes differ")
        return MultilinearForm(self.dim, self.arity, self.coeffs ^ other.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, MultilinearForm)
            and self.dim == other.dim
            and self.arity == other.arity
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.dim, self.arity, self.coeffs.tobytes()))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def support(self) -> list[tuple[int, ...]]:
        """Nonzero coefficient index tuples in lexicographic order."""
        return [tuple(int(v) for v in idx) for idx in np.argwhere(self.coeffs)]


def zero_form(n: int, k: int) -> MultilinearForm:
    return MultilinearForm(n, k, np.zeros((n,) * k, dtype=np.uint8))


def from_entries(n: int, k: int, entries) -> MultilinearForm:
    t = np.zeros((n,) * k, dtype=np.uint8)
    for idx in entries:
        t[tuple(idx)] ^= 1
    return MultilinearForm(n, k, t)


def dot_form(n: int) -> MultilinearForm:
    """The bilinear form sum_i x[i] y[i]."""
    return MultilinearForm(n, 2, np.eye(n, dtype=np.uint8))


def diagonal_form(n: int, k: int, weights=None) -> MultilinearForm:
    """sum_i w_i * x_1[i] * ... * x_k[i]; fully strongly symmetric."""
    t = np.zeros((n,) * k, dtype=np.uint8)
    w = np.ones(n, dtype=np.uint8) if weights is None else gf2.as_gf2(weights)
    for i in range(n):
        if w[i]:
            t[(i,) * k] = 1
    return MultilinearForm(n, k, t)


def random_form(n: int, k: int, rng: np.random.Generator) -> MultilinearForm:
    return MultilinearForm(n, k, rng.integers(0, 2, size=(n,) * k, dtype=np.uint8))


@dataclass(frozen=True)
class Permutation:
    """Bijection on variable slots 0..k-1, stored as its image array."""

    arity: int
    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(self.arity)):
            raise DimensionMismatch("image is not a bijection")

    @staticmethod
    def identity(k: int) -> "Permutation":
        return Permutation(k, tuple(range(k)))

    @staticmethod
    def transposition(k: int, a: int, b: int) -> "Permutation":
        img = list(range(k))
        img[a], img[b] = img[b], img[a]
        return Permutation(k, tuple(img))

    @staticmethod
    def from_cycle(k: int, cycle) -> "Permutation":
        img = list(range(k))
        cyc = list(cycle)
        for i, c in enumerate(cyc):
            img[c] = cyc[(i + 1) % len(cyc)]
        return Permutation(k, tuple(img))

    def __call__(self, i: int) -> int:
        return self.image[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.arity
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(self.arity, tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(
            self.arity, tuple(self.image[other.image[i]] for i in range(self.arity))
        )

    def apply_to_inputs(self, xs):
        """The coordinate action: output slot i receives xs[inverse(i)]."""
        inv = self.inverse()
        return [xs[inv(i)] for i in range(self.arity)]


def evaluate(f: MultilinearForm, xs) -> int:
    """Evaluate by successive contraction of the last axis."""
    if len(xs) != f.arity:
        raise DimensionMismatch(f"expected {f.arity} vectors")
    t = f.coeffs.astype(np.int64)
    for x in reversed(list(xs)):
        x = gf2.as_gf2(x)
        if x.shape != (f.dim,):
            raise DimensionMismatch("input vector has wrong dim")
        t = t @ x.astype(np.int64) % 2
    return int(t)


def slice_form(f: MultilinearForm, assignment: dict) -> MultilinearForm:
    """Fix the variables in ``assignment`` (slot -> vector); arity drops.

    Fixing every slot is rejected; use :func:`evaluate` for that.
    """
    fixed = sorted(assignment)
    if any(v < 0 or v >= f.arity for v in fixed):
        raise DimensionMismatch("slot out of range")
    if len(fixed) >= f.arity:
        raise DimensionMismatch("cannot fix all variables; use evaluate")
    t = f.coeffs.astype(np.int64)
    for slot in reversed(fixed):
        x = gf2.as_gf2(assignment[slot]).astype(np.int64)
        if x.shape != (f.dim,):
            raise DimensionMismatch("assigned vector has wrong dim")
        t = np.tensordot(t, x, axes=([slot], [0])) % 2
    return MultilinearForm(f.dim, f.arity - len(fixed), t.astype(np.uint8))


def permute(f: MultilinearForm, p: Permutation) -> MultilinearForm:
    """The composition f∘p, defined by evaluation equivariance:
    evaluate(permute(f, p), xs) == evaluate(f, p.apply_to_inputs(xs)).

    Permuting twice composes as permute(permute(f, p), q) ==
    permute(f, p.compose(q)).
    """
    if p.arity != f.arity:
        raise DimensionMismatch("permutation arity mismatch")
    return MultilinearForm(f.dim, f.arity, np.transpose(f.coeffs, axes=p.image))


def permute_transposition(f: MultilinearForm, a: int, b: int) -> MultilinearForm:
    return permute(f, Permutation.transposition(f.arity, a, b))


def is_symmetric(f: MultilinearForm, var_subset=None) -> bool:
    """Coefficient-tensor invariance under permutations of the given slots.

    Checked via adjacent transpositions of the sorted subset, which generate
    the full symmetric group on it.
    """
    s = sorted(range(f.arity) if var_subset is None else var_subset)
    for a, b in zip(s, s[1:]):
        if not np.array_equal(f.coeffs, np.swapaxes(f.coeffs, a, b)):
            return False
    return True


def symmetrize(f: MultilinearForm, var_subset=None) -> MultilinearForm:
    """XOR of f∘p over all permutations p of the subset."""
    s = sorted(range(f.arity) if var_subset is None else var_subset)
    acc = np.zeros_like(f.coeffs)
    for perm in itertools.permutations(s):
        img = list(range(f.arity))
        for slot, tgt in zip(s, perm):
            img[slot] = tgt
        acc ^= np.transpose(f.coeffs, axes=img)
    return MultilinearForm(f.dim, f.arity, acc)


def diagonal_contract(f: MultilinearForm) -> MultilinearForm:
    """Identify the first two variables: d -> f(d, d, y...).

    Requires symmetry in slots {0, 1}; in characteristic 2 that is exactly
    what makes the contraction multilinear again.
    """
    if f.arity < 2:
        raise DimensionMismatch("arity must be at least 2")
    if not is_symmetric(f, (0, 1)):
        raise NotSymmetric("form is not symmetric in its first two variables")
    t = np.einsum("ii...->i...", f.coeffs)
    return MultilinearForm(f.dim, f.arity - 1, t)


def is_strongly_symmetric(f: MultilinearForm) -> bool:
    if f.arity < 2:
        return True
    if not is_symmetric(f):
        return False
    d = diagonal_contract(f)
    return True if d.arity == 1 else is_symmetric(d)


def _support_classes(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Strong-symmetry classes of the index tuples in (n,) * k.

    A form is strongly symmetric exactly when its coefficient at a tuple
    depends only on the tuple's support S = {s_0 < s_1 < ...}, its set of
    distinct indices.  Each support is named by its least tuple, the
    canonical (s_0,) * (k - |S| + 1) + (s_1, ...).  Returns the flat indices
    of the canonical tuples in increasing order (one per class) and, with
    shape (n,) * k, the flat index of the canonical tuple of every tuple.
    Cost: n^k * k cells.
    """
    require_work(n**k * k, "support classes")
    rows = np.sort(np.indices((n,) * k).reshape(k, -1).T, axis=1)
    # a repeated index becomes one more copy of the least one
    rows[:, 1:] = np.where(rows[:, 1:] == rows[:, :-1], rows[:, :1], rows[:, 1:])
    canon = np.sort(rows, axis=1) @ (n ** np.arange(k - 1, -1, -1))
    # the canonical tuples are the fixed points of the class map
    return np.flatnonzero(canon == np.arange(canon.size)), canon.reshape((n,) * k)


def lift_strongly_symmetric(f: MultilinearForm) -> MultilinearForm:
    """The (k+1)-linear form whose first-two-variable contraction is ``f``.

    Coefficient rule: tuples with all indices distinct get 0; otherwise the
    value of ``f`` at any tuple obtained by deleting one copy of a repeated
    index, which is ``f`` at the canonical k-tuple of the same support.
    Well-definedness is exactly strong symmetry, which is enforced.
    Cost: n^{k+1} * (k+1) cells, for the classes of the lifted tuples.
    """
    if not is_strongly_symmetric(f):
        raise NotStronglySymmetric("lift coefficient rule would be ill-defined")
    n, k = f.dim, f.arity
    _, canon = _support_classes(n, k + 1)
    # a canonical tuple repeats its leading index iff its support has <= k
    # indices; dropping that leading copy leaves the canonical k-tuple
    repeated = canon // n ** k == canon // n ** (k - 1) % n
    out = np.where(repeated, f.coeffs.reshape(-1)[canon % n**k], 0)
    return MultilinearForm(n, k + 1, out)


def strongly_symmetric_from_bits(n: int, k: int, bits) -> MultilinearForm:
    """The strongly symmetric form with one bit per support class, classes
    ordered by their least index tuple."""
    classes, canon = _support_classes(n, k)
    if len(bits) != len(classes):
        raise DimensionMismatch(f"need {len(classes)} class bits")
    flat = np.zeros(n**k, dtype=np.uint8)
    flat[classes] = np.asarray(bits, dtype=bool)
    return MultilinearForm(n, k, flat[canon])


def random_strongly_symmetric(n: int, k: int, rng: np.random.Generator) -> MultilinearForm:
    classes, _ = _support_classes(n, k)
    return strongly_symmetric_from_bits(
        n, k, rng.integers(0, 2, size=len(classes)).tolist()
    )


def all_strongly_symmetric(n: int, k: int):
    """Exhaustive iterator.  Cost: 2^classes forms."""
    count = len(_support_classes(n, k)[0])
    require_work(1 << count, "strongly symmetric enumeration")
    for mask in range(1 << count):
        yield strongly_symmetric_from_bits(n, k, [(mask >> i) & 1 for i in range(count)])


def apply_linear(f: MultilinearForm, m) -> MultilinearForm:
    """Form g with g(x_1..x_k) = f(M x_1, ..., M x_k) for M of shape (dim, new_dim)."""
    mm = gf2.as_gf2(m).astype(np.int64)
    if mm.shape[0] != f.dim:
        raise DimensionMismatch("linear map domain mismatch")
    new_dim = mm.shape[1]
    if new_dim == 0:
        raise DimensionMismatch("cannot map onto a zero-dimensional space")
    t = f.coeffs.astype(np.int64)
    for _ in range(f.arity):
        # contract the leading axis, append the transformed axis at the end;
        # after arity steps the original axis order is restored
        t = np.tensordot(t, mm, axes=([0], [0])) % 2
    return MultilinearForm(new_dim, f.arity, t.astype(np.uint8))


def restrict_to_subspace(f: MultilinearForm, u: "gf2.Subspace") -> MultilinearForm:
    """Coefficients of f restricted to U, written in U's RREF basis coordinates."""
    if u.ambient_dim != f.dim:
        raise DimensionMismatch("subspace ambient dim mismatch")
    if u.dim == 0:
        raise DimensionMismatch("restriction to the zero subspace is trivial")
    return apply_linear(f, u.basis.T)


def truth_table(f: MultilinearForm) -> np.ndarray:
    """Full evaluation table, shape (2^n,) * k; table[v1..vk] = f(vec(v1), ...).

    Index order: table axis j enumerates variable j over integer-encoded
    vectors (gf2.vec_from_int).  Contracts in uint8: wraparound mod 256 keeps
    parity.  Cost: 2^{nk} cells.
    """
    require_work(1 << (f.arity * f.dim), "truth table")
    ev = gf2.all_vectors(f.dim)  # (2^n, n)
    t = f.coeffs
    for _ in range(f.arity):
        t = np.tensordot(t, ev, axes=([0], [1])) & 1
    return t
