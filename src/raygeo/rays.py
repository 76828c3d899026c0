"""States as rays and propositions as closed subspaces of C^d.

A *ray* (one-dimensional subspace) carries the physical state; it is
stored as a canonical unit representative so that equal rays compare
equal entrywise.  A *proposition* is a closed subspace, stored as an
orthonormal basis; rank 0 encodes falsehood and rank d encodes truth.
Projections model measurement: measuring a proposition in a state
yields the projected state, or the explicit :data:`ZERO` result when
the state is orthogonal to the proposition.

All values are immutable and all operations are pure, so concurrent
use requires no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError
from .linalg import EPS_ABS, as_vector, norms, orthonormalize


class ZeroProjection:
    """The zero-dimensional projection result.

    An explicit variant rather than ``None``: projections extend to it
    (projecting ZERO yields ZERO), mirroring how the measurement
    calculus treats the impossible outcome.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO"


#: Singleton zero-dimensional projection result.
ZERO = ZeroProjection()


@dataclass(frozen=True, eq=False)
class Ray:
    """A one-dimensional subspace of C^d, as a canonical representative.

    The representative is a unit vector whose first entry of modulus
    above ``EPS_ABS`` is real and strictly positive.  Build instances
    with :func:`ray_from`; the canonical form makes representative
    comparison a valid ray-equality check.  ``==`` is exact entrywise
    equality of representatives; use :func:`rays_equal` for the
    tolerance-aware comparison.

    Attributes
    ----------
    rep : numpy.ndarray
        Canonical unit representative (read-only).
    """

    rep: np.ndarray

    def __post_init__(self):
        self.rep.flags.writeable = False

    @property
    def dim(self) -> int:
        """Ambient dimension."""
        return int(self.rep.shape[0])

    def __eq__(self, other):
        return isinstance(other, Ray) and np.array_equal(self.rep, other.rep)

    def __hash__(self):
        return hash(self.rep.tobytes())

    def __repr__(self):
        return f"Ray({np.array2string(self.rep, precision=6, suppress_small=True)})"


def ray_from(v) -> Ray:
    """The ray spanned by ``v``, with canonical representative.

    Scale-invariant: ``ray_from(c * v)`` equals ``ray_from(v)`` for any
    nonzero complex ``c``.

    Raises
    ------
    ZeroVectorError
        If ``norm(v) <= EPS_ABS``.
    ValueError
        If ``v`` is not a finite vector, or its norm overflows.
    """
    v = as_vector(v)
    n = float(np.linalg.norm(v))
    if n <= EPS_ABS:
        raise ZeroVectorError(f"cannot span a ray from a vector of norm {n:.3e}")
    if n == math.inf:
        raise ValueError("the vector norm overflows the float range")
    u = v / n
    sig = np.flatnonzero(np.abs(u) > EPS_ABS)
    k = int(sig[0])  # nonempty: a unit vector has an entry of modulus >= 1/sqrt(d)
    u = u * (np.conj(u[k]) / abs(u[k]))
    return Ray(rep=u)


def rays_from(v) -> np.ndarray:
    """Canonical representatives of the rays spanned by the rows of a
    (..., d) stack: the stacked form of :func:`ray_from`, row for row
    the same unit vector and the same leading entry.

    Raises
    ------
    ZeroVectorError
        If some row has norm ``<= EPS_ABS``.
    ValueError
        If some entry is not finite, or some row norm overflows.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("expected a stack of non-empty vectors")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    n = norms(v)[..., np.newaxis]
    if (n <= EPS_ABS).any():
        raise ZeroVectorError(f"cannot span a ray from a vector of norm {n.min():.3e}")
    if (n == math.inf).any():
        raise ValueError("the vector norm overflows the float range")
    u = v / n
    # the first entry of modulus above EPS_ABS; a unit row has one of modulus >= 1/sqrt(d)
    lead = np.take_along_axis(u, np.argmax(np.abs(u) > EPS_ABS, axis=-1)[..., np.newaxis], axis=-1)
    return u * (np.conj(lead) / np.abs(lead))


def a_sims(u, v) -> np.ndarray:
    """Overlaps |<u, v>| of stacked unit vectors, shape (..., d) → (...).

    Clipped to [0, 1] so rounding never pushes a similarity above one.
    The modulus is libm's hypot, as for Python complex numbers.
    """
    c = np.vecdot(v, u)
    return np.minimum(np.hypot(c.real, c.imag), 1.0)


def equal_rays(u, v) -> np.ndarray:
    """Whether the rays of stacked unit representatives coincide, via
    overlap above ``1 − EPS_ABS``; shape (..., d) → (...)."""
    return a_sims(u, v) > 1.0 - EPS_ABS


def rays_equal(x: Ray, y: Ray) -> bool:
    """Whether two rays coincide: the single-pair form of :func:`equal_rays`."""
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimensions {x.dim} vs {y.dim}")
    return bool(equal_rays(x.rep, y.rep))


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace of C^d as an orthonormal basis.

    ``==`` is exact entrywise basis equality; use
    :func:`subspaces_equal` for the basis-independent comparison.

    Attributes
    ----------
    basis : numpy.ndarray
        Shape ``(rank, dim)``; rows are pairwise-orthonormal basis
        vectors.  Rank 0 encodes falsehood, rank ``dim`` encodes truth.
    dim : int
        Ambient dimension.
    """

    basis: np.ndarray
    dim: int

    def __post_init__(self):
        self.basis.flags.writeable = False

    @property
    def rank(self) -> int:
        return int(self.basis.shape[0])

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.dim == other.dim
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.dim, self.basis.tobytes()))

    @classmethod
    def from_vectors(cls, vectors, dim=None) -> "Subspace":
        """Span of arbitrary vectors; orthonormalizes and drops dependents."""
        rows = orthonormalize(vectors)
        if rows:
            d = rows[0].shape[0]
        elif dim is not None:
            d = int(dim)
        else:
            raise ValueError("dim is required when no independent vector remains")
        if dim is not None and int(dim) != d:
            raise DimensionMismatchError(f"declared dim {dim}, vectors have dim {d}")
        mat = np.array(rows, dtype=np.complex128).reshape(len(rows), d)
        return cls(basis=mat, dim=d)

    @classmethod
    def from_orthonormal(cls, rows, dim) -> "Subspace":
        """Wrap rows already known to be orthonormal (no re-check)."""
        mat = np.asarray(rows, dtype=np.complex128).reshape(-1, int(dim))
        return cls(basis=mat, dim=int(dim))

    @classmethod
    def from_ray(cls, x: Ray) -> "Subspace":
        return cls.from_orthonormal(x.rep[np.newaxis, :], x.dim)

    @classmethod
    def falsehood(cls, dim: int) -> "Subspace":
        """The null subspace {0}."""
        return cls.from_orthonormal(np.zeros((0, dim), dtype=np.complex128), dim)

    @classmethod
    def truth(cls, dim: int) -> "Subspace":
        """The whole space C^d."""
        return cls.from_orthonormal(np.eye(dim, dtype=np.complex128), dim)

    def projector(self) -> np.ndarray:
        """The dim×dim orthogonal projection matrix onto this subspace."""
        return self.basis.T @ self.basis.conj()

    def __repr__(self):
        return f"Subspace(rank={self.rank}, dim={self.dim})"


def _require_dim(a, b):
    da = a.dim
    db = b.dim
    if da != db:
        raise DimensionMismatchError(f"ambient dimensions {da} vs {db}")


def project_vec(a: Subspace, u) -> np.ndarray:
    """Orthogonal projection of a vector onto the subspace.

    Computed as ``sum_k inner(u, b_k) b_k`` over the basis rows; the
    residual ``u − result`` is orthogonal to every basis vector.
    """
    u = as_vector(u)
    if u.shape[0] != a.dim:
        raise DimensionMismatchError(f"vector dim {u.shape[0]} vs subspace dim {a.dim}")
    if a.rank == 0:
        return np.zeros(a.dim, dtype=np.complex128)
    return a.basis.T @ (a.basis.conj() @ u)


def project_ray(a: Subspace, x):
    """Projection of a ray onto a subspace: a Ray, or ZERO if orthogonal.

    Idempotent, and extends to the zero result: projecting ZERO yields
    ZERO.
    """
    if x is ZERO:
        return ZERO
    _require_dim(a, x)
    p = project_vec(a, x.rep)
    if float(np.linalg.norm(p)) <= EPS_ABS:
        return ZERO
    return ray_from(p)


def ortho_complement(a: Subspace) -> Subspace:
    """Orthogonal complement; rank is ``dim − rank(a)`` and the double
    complement returns the original subspace.

    The trailing ``dim − rank`` columns of a complete (Householder) QR
    of the basis columns; falsehood maps to truth.  There is no rank
    cut: the basis rows are orthonormal and their rank is exact.
    """
    q = np.linalg.qr(a.basis.T, mode="complete")[0]
    return Subspace.from_orthonormal(np.ascontiguousarray(q[:, a.rank :].T), a.dim)


def _residual_rows(rows: np.ndarray, a: Subspace) -> np.ndarray:
    """``rows`` with their projection onto ``a`` removed, block-wise, in
    two passes (the second restores orthogonality lost to rounding)."""
    for _ in range(2):
        rows = rows - (rows @ a.basis.conj().T) @ a.basis
    return rows


def join(a: Subspace, b: Subspace) -> Subspace:
    """Disjunction: the closed linear sum, containing both operands.

    ``b``'s basis is projected off ``a`` as a block; one thin SVD of the
    residual rows yields the right singular vectors with singular value
    ``s > EPS_ABS``, stacked under ``a``'s basis, whose rows stay
    first.
    """
    _require_dim(a, b)
    _, s, vh = np.linalg.svd(_residual_rows(b.basis, a), full_matrices=False)
    return Subspace.from_orthonormal(np.vstack([a.basis, vh[s > EPS_ABS]]), a.dim)


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Conjunction: the intersection, the principal vectors of angle 0.

    One thin SVD of ``a``'s basis projected off ``b``: its singular
    values are the sines of the principal angles between ``a`` and
    ``b`` (Björck & Golub, Math. Comp. 27, 1973).  The left singular
    vectors with ``s <= EPS_ABS`` are the coefficients, in ``a``'s
    basis, of an orthonormal basis of the intersection.
    """
    _require_dim(a, b)
    u, s, _ = np.linalg.svd(_residual_rows(a.basis, b), full_matrices=False)
    coeffs = u[:, np.count_nonzero(s > EPS_ABS) :].conj().T
    return Subspace.from_orthonormal(coeffs @ a.basis, a.dim)


def is_member(x: Ray, a: Subspace) -> bool:
    """Whether the ray lies inside the subspace (projection fixes it)."""
    _require_dim(a, x)
    residual = float(np.linalg.norm(project_vec(a, x.rep) - x.rep))
    return residual <= EPS_ABS


def _basis_rows(obj) -> np.ndarray:
    if isinstance(obj, Ray):
        return obj.rep[np.newaxis, :]
    if isinstance(obj, Subspace):
        return obj.basis
    raise TypeError(f"expected Ray or Subspace, got {type(obj).__name__}")


def is_orthogonal(p, q) -> bool:
    """Whether two rays/subspaces are orthogonal (symmetric).

    True iff every pairwise basis inner product has modulus at most
    ``EPS_ABS``; vacuously true for falsehood.
    """
    rows_p = _basis_rows(p)
    rows_q = _basis_rows(q)
    if rows_p.shape[1] != rows_q.shape[1]:
        raise DimensionMismatchError(f"dimensions {rows_p.shape[1]} vs {rows_q.shape[1]}")
    if rows_p.shape[0] == 0 or rows_q.shape[0] == 0:
        return True
    gram = rows_p @ rows_q.conj().T
    return float(np.max(np.abs(gram))) <= EPS_ABS


def subspaces_equal(a: Subspace, b: Subspace) -> bool:
    """Whether two subspaces coincide (equal ranks, mutual containment)."""
    _require_dim(a, b)
    if a.rank != b.rank:
        return False
    if a.rank == 0:
        return True
    defect = containment_defect(a, b)
    return defect <= EPS_ABS


def containment_defect(a: Subspace, b: Subspace) -> float:
    """Largest distance from a basis vector of ``a`` to the subspace ``b``.

    Zero (up to rounding) exactly when a ⊆ b.
    """
    _require_dim(a, b)
    if a.rank == 0:
        return 0.0
    coeffs = b.basis.conj() @ a.basis.T  # (rank_b, rank_a)
    proj = b.basis.T @ coeffs  # (dim, rank_a)
    return float(np.max(np.linalg.norm(proj - a.basis.T, axis=0)))


def commutes(a: Subspace, b: Subspace) -> bool:
    """Whether the projection operators of two propositions commute.

    Decided at the operator level — matrix equality of the two composite
    projections — which renders the universally quantified definition
    faithfully in finite dimension.
    """
    _require_dim(a, b)
    pa = a.projector()
    pb = b.projector()
    return float(np.max(np.abs(pa @ pb - pb @ pa))) <= EPS_ABS
