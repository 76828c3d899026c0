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
    """The ray spanned by ``v``, with canonical representative: the
    single-vector form of :func:`rays_from`.

    Scale-invariant: ``ray_from(c * v)`` equals ``ray_from(v)`` for any
    nonzero complex ``c``.

    Raises
    ------
    ZeroVectorError
        If ``norm(v) <= EPS_ABS``.
    ValueError
        If ``v`` is not a finite vector, or its norm overflows.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty one-dimensional vector")
    return Ray(rep=rays_from(v))


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


def require_dims(*objs) -> None:
    """Raise :class:`DimensionMismatchError` unless the rays and
    subspaces given share one ambient dimension."""
    dims = [obj.dim for obj in objs]
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimensions {', '.join(map(str, dims))}")


def rays_equal(x: Ray, y: Ray) -> bool:
    """Whether two rays coincide: the single-pair form of :func:`equal_rays`."""
    require_dims(x, y)
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
    def from_columns(cls, q) -> "Subspace":
        """The span of the nonzero, orthonormal columns of ``q`` (d, k)."""
        return cls.from_orthonormal(np.ascontiguousarray(q[:, _live(q)].T), q.shape[0])

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
        return projectors(self.basis.T)

    def __repr__(self):
        return f"Subspace(rank={self.rank}, dim={self.dim})"


def project_rows(q, v) -> np.ndarray:
    """Orthogonal projections of stacked vectors (..., d) onto the column
    spans of stacked orthonormal-column matrices (..., d, k).

    Computed as ``sum_k inner(v, q_k) q_k`` over the columns; zero
    columns span nothing, so stacks of mixed rank pad with zeros, and
    k = 0 projects onto falsehood.
    """
    coeff = (v.conj()[..., np.newaxis, :] @ q).conj()  # (..., 1, k), no copy of q
    return (coeff @ q.swapaxes(-1, -2))[..., 0, :]


def projectors(q) -> np.ndarray:
    """Projection matrices (..., d, d) of stacked subspaces (..., d, k)."""
    return q @ q.conj().swapaxes(-1, -2)


def _live(q) -> np.ndarray:
    """The nonzero (unit) columns of stacked subspaces (..., d, k)."""
    return np.vecdot(q, q, axis=-2).real > 0.5


def ranks(q) -> np.ndarray:
    """Dimensions of stacked subspaces (..., d, k): their nonzero columns."""
    return np.count_nonzero(_live(q), axis=-1)


def project_vec(a: Subspace, u) -> np.ndarray:
    """Orthogonal projection of a vector onto the subspace: the
    single-vector form of :func:`project_rows`.  The residual
    ``u − result`` is orthogonal to every basis vector.
    """
    u = as_vector(u)
    if u.shape[0] != a.dim:
        raise DimensionMismatchError(f"vector dim {u.shape[0]} vs subspace dim {a.dim}")
    return project_rows(a.basis.T, u)


def project_rays(q, x) -> tuple[np.ndarray, np.ndarray]:
    """Projections of stacked rays x (..., d) onto stacked subspaces, and
    the mask of the rows whose projection has norm at most ``EPS_ABS``
    (:data:`ZERO`; the row holds x)."""
    p = project_rows(q, x)
    zero = norms(p) <= EPS_ABS
    return rays_from(np.where(zero[..., np.newaxis], x, p)), zero


def project_ray(a: Subspace, x):
    """Projection of a ray onto a subspace: a Ray, or ZERO if orthogonal;
    the single form of :func:`project_rays`.  Idempotent; projecting
    ZERO yields ZERO."""
    if x is ZERO:
        return ZERO
    require_dims(a, x)
    rep, zero = project_rays(a.basis.T, x.rep)
    return ZERO if zero else Ray(rep=rep)


# The subspace lattice on stacks (..., d, k) of orthonormal columns, in
# which zero columns, anywhere, span nothing; the scalar forms pass (d, k).


def complements(q) -> np.ndarray:
    """Orthogonal complements, (..., d, k) → (..., d, d): the trailing
    ``d − rank`` columns of a complete (Householder) QR of the columns,
    nonzero ones first; the leading ``rank`` columns are zero.  No rank
    cut: the columns are orthonormal and their rank is exact."""
    live = _live(q)
    order = np.argsort(~live, axis=-1, kind="stable")
    full = np.linalg.qr(np.take_along_axis(q, order[..., np.newaxis, :], axis=-1), mode="complete")[0]
    cut = np.arange(full.shape[-1]) >= np.count_nonzero(live, axis=-1)[..., np.newaxis]
    return np.where(cut[..., np.newaxis, :], full, 0.0)


def _residual_columns(q, p) -> np.ndarray:
    """Columns ``q`` minus their projections onto the spans of ``p``, in
    two passes (the second restores orthogonality lost to rounding)."""
    for _ in range(2):
        q = q - p @ (p.conj().swapaxes(-1, -2) @ q)
    return q


def joins(qa, qb) -> np.ndarray:
    """Disjunctions (closed linear sums), (..., d, ka), (..., d, kb) →
    (..., d, ka + min(d, kb)): ``qa``'s columns, then the left singular
    vectors with ``s > EPS_ABS`` of one thin SVD of ``qb`` projected
    off ``qa``."""
    u, s, _ = np.linalg.svd(_residual_columns(qb, qa), full_matrices=False)
    return np.concatenate([qa, np.where((s > EPS_ABS)[..., np.newaxis, :], u, 0.0)], axis=-1)


def meets(qa, qb) -> np.ndarray:
    """Conjunctions (intersections), (..., d, ka) → (..., d, ka).

    One thin SVD of ``qa`` projected off ``qb``: its singular values are
    the sines of the principal angles (Björck & Golub, Math. Comp. 27,
    1973), and its right singular vectors with ``s <= EPS_ABS`` are the
    coefficients, in ``qa``'s columns, of a basis of the intersection.
    An identity row under each zero column of ``qa`` lifts that
    column's singular value to 1, so no coefficient vector rests on it.
    """
    lift = np.eye(qa.shape[-1]) * ~_live(qa)[..., np.newaxis, :]
    lifted = np.concatenate([_residual_columns(qa, qb), lift], axis=-2)
    _, s, vh = np.linalg.svd(lifted, full_matrices=False)
    return np.where((s <= EPS_ABS)[..., np.newaxis, :], qa @ vh.conj().swapaxes(-1, -2), 0.0)


def containment_defects(qa, qb) -> np.ndarray:
    """Largest distance from a column of ``qa`` to the span of ``qb``;
    zero (up to rounding) exactly when a ⊆ b."""
    diff = qb @ (qb.conj().swapaxes(-1, -2) @ qa) - qa
    return np.sqrt(np.vecdot(diff, diff, axis=-2).real).max(axis=-1, initial=0.0)


def orthogonality_defects(qa, qb) -> np.ndarray:
    """Largest modulus of an inner product between columns of ``qa`` and
    ``qb``; zero for falsehood."""
    return np.abs(qa.conj().swapaxes(-1, -2) @ qb).max(axis=(-2, -1), initial=0.0)


def commutation_defects(qa, qb) -> np.ndarray:
    """Largest entry of the commutator of the two projections: the
    operator-level test, faithful to the definition in finite dimension."""
    pa, pb = projectors(qa), projectors(qb)
    return np.abs(pa @ pb - pb @ pa).max(axis=(-2, -1))


def equal_subspaces(qa, qb) -> np.ndarray:
    """Whether stacked subspaces coincide: equal ranks, containment
    within ``EPS_ABS``."""
    return (ranks(qa) == ranks(qb)) & (containment_defects(qa, qb) <= EPS_ABS)


def ortho_complement(a: Subspace) -> Subspace:
    """Orthogonal complement, of rank ``dim − rank(a)``: the single form
    of :func:`complements`."""
    return Subspace.from_columns(complements(a.basis.T))


def join(a: Subspace, b: Subspace) -> Subspace:
    """Disjunction: the closed linear sum, containing both operands, with
    ``a``'s basis rows first.  The single form of :func:`joins`."""
    require_dims(a, b)
    return Subspace.from_columns(joins(a.basis.T, b.basis.T))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Conjunction: the intersection.  The single form of :func:`meets`."""
    require_dims(a, b)
    return Subspace.from_columns(meets(a.basis.T, b.basis.T))


def is_member(x: Ray, a: Subspace) -> bool:
    """Whether the ray lies inside the subspace, to ``EPS_ABS``."""
    require_dims(x, a)
    return bool(containment_defects(x.rep[:, np.newaxis], a.basis.T) <= EPS_ABS)


def _columns(obj) -> np.ndarray:
    if isinstance(obj, Ray):
        return obj.rep[:, np.newaxis]
    if isinstance(obj, Subspace):
        return obj.basis.T
    raise TypeError(f"expected Ray or Subspace, got {type(obj).__name__}")


def is_orthogonal(p, q) -> bool:
    """Whether two rays/subspaces are orthogonal, to ``EPS_ABS``: the
    single form of :func:`orthogonality_defects`."""
    cols_p, cols_q = _columns(p), _columns(q)
    if cols_p.shape[0] != cols_q.shape[0]:
        raise DimensionMismatchError(f"dimensions {cols_p.shape[0]} vs {cols_q.shape[0]}")
    return bool(orthogonality_defects(cols_p, cols_q) <= EPS_ABS)


def subspaces_equal(a: Subspace, b: Subspace) -> bool:
    """Whether two subspaces coincide: the single form of :func:`equal_subspaces`."""
    require_dims(a, b)
    return bool(equal_subspaces(a.basis.T, b.basis.T))


def containment_defect(a: Subspace, b: Subspace) -> float:
    """Largest distance from a basis vector of ``a`` to ``b``: the single
    form of :func:`containment_defects`."""
    require_dims(a, b)
    return float(containment_defects(a.basis.T, b.basis.T))


def commutes(a: Subspace, b: Subspace) -> bool:
    """Whether the projections of two propositions commute, to
    ``EPS_ABS``: the single form of :func:`commutation_defects`."""
    require_dims(a, b)
    return bool(commutation_defects(a.basis.T, b.basis.T) <= EPS_ABS)
