"""Complex linear-algebra substrate.

Vectors are one-dimensional ``numpy`` arrays of ``complex128`` and
matrices are two-dimensional arrays.  The inner product is linear in its
**first** argument and conjugate-linear in its second,

    inner(u, v) = sum_i u_i * conj(v_i),

which fixes the sign conventions of every phase computed downstream.
All functions are pure and never mutate their arguments.

The numerical thresholds of the library are fixed constants defined
here: :data:`EPS_ABS` for zero norms, ray equality and rank cuts, and
:data:`ANGLE_GUARD` for the overlaps whose phase a triple phase reads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError

TWO_PI = 2.0 * math.pi

#: Absolute threshold for quantities expected at 0 or 1: vector norms
#: below it are zero, overlaps within it of 1 are equal rays, and the
#: lattice operations cut singular values at it.
EPS_ABS = 1e-10

#: Below this overlap, arg() of an inner product is numerically meaningless;
#: triple phases refuse pairs closer to orthogonal than this.
ANGLE_GUARD = 1e-8


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or ``np.integer`` and not a ``bool``:
    a count or a seed that no coercion changes, where ``int()`` would
    truncate a fraction or parse a string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, what: str) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is a positive
    integer (:func:`is_integer`): a dimension or a sample count."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def inners(u, v) -> np.ndarray:
    """Inner products ``sum_i u_i * conj(v_i)`` of stacked vectors,
    shape (..., d) → (...)."""
    return np.vecdot(v, u)  # vecdot conjugates its first argument


def _vector(u) -> np.ndarray:
    """``u`` as a complex vector; ``ValueError`` unless it is one-dimensional."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 1:
        raise ValueError(f"expected a one-dimensional vector, got shape {u.shape}")
    return u


def inner(u, v) -> complex:
    """Inner product ``sum_i u_i * conj(v_i)``: the single-pair form of
    :func:`inners`.

    Linear in ``u``, conjugate-linear in ``v``; conjugate-symmetric:
    ``inner(v, u) == conj(inner(u, v))``.

    Raises
    ------
    ValueError
        If a vector is not one-dimensional.
    DimensionMismatchError
        If the vectors have different lengths.
    """
    u, v = _vector(u), _vector(v)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"dimensions {u.shape} vs {v.shape}")
    return complex(inners(u, v))


def norms(u) -> np.ndarray:
    """Euclidean norms of stacked vectors, shape (..., d) → (...)."""
    u = np.asarray(u, dtype=np.complex128)
    return np.sqrt(np.vecdot(u, u).real)


def checked_rows(u) -> tuple[np.ndarray, np.ndarray]:
    """Stacked vectors from outside the library, checked to be finite,
    and their :func:`norms`.  A row whose squared norm overflows is
    first divided by its largest real or imaginary part in absolute
    value, which keeps its ray and its span; every other row is
    returned as given.

    Raises
    ------
    ValueError
        If an entry is not finite.
    """
    u = np.asarray(u, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        n = norms(u)
    if not np.isfinite(n).all():
        if not np.isfinite(u).all():
            raise ValueError("vector entries must be finite")
        big = ~np.isfinite(n)
        rows = u[big]
        u = u.copy()
        u[big] = rows / np.abs(rows.view(np.float64)).max(axis=-1, keepdims=True)
        n = norms(u)
    return u, n


def wrap_angles(angle) -> np.ndarray:
    """Angles reduced modulo 2π to the canonical branch (−π, π]."""
    a = np.asarray(angle, dtype=np.float64) % TWO_PI  # in [0, 2π)
    return a - TWO_PI * (a > math.pi)


def circular_distances(a, b) -> np.ndarray:
    """Distances between stacked angles on the circle, in [0, π].

    Immune to branch cuts: comparing θ and θ ± 2π gives 0.
    """
    return np.abs(wrap_angles(np.subtract(a, b)))


def orthonormalize_rows(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases ``(basis, kept)`` of the spans of stacked vector
    sets (..., m, d): classical Gram–Schmidt with one re-orthogonalization
    pass, which is enough to keep the basis orthonormal to rounding
    (Giraud, Langou & Rozložník, Comput. Math. Appl. 50, 2005).  Row j of
    ``basis`` is vector j minus its projection onto the rows kept before
    it, normalized, if that residual has norm above :data:`EPS_ABS` and
    the kept rows do not yet span the space; else zero.  ``kept``
    (..., m) marks the nonzero rows: the rank as a mask.

    The loop (:func:`gram_schmidt`) runs on one copy laid out as
    (m, d, ...), the stack axes innermost and contiguous.  The results
    are views in the input's axis order."""
    v = np.ascontiguousarray(np.moveaxis(np.asarray(vectors, dtype=np.complex128), (-2, -1), (0, 1)))
    basis, kept = gram_schmidt(v)
    return np.moveaxis(basis, (0, 1), (-2, -1)), np.moveaxis(kept, 0, -1)


def gram_schmidt(v: np.ndarray, live=None) -> tuple[np.ndarray, np.ndarray]:
    """The Gram–Schmidt loop of :func:`orthonormalize_rows` on stacked
    vector sets laid out as (m, d, ...): vector j of every stack entry is
    ``v[j]``, shape (d, ...).  Returns ``(basis, kept)`` in that layout,
    (m, d, ...) and (m, ...).

    The loop is sequential in m: each step is a handful of elementwise
    multiply-and-sum operations over the whole stack, so its cost per
    matrix falls as the stack grows, where a per-matrix product or
    factorization pays a fixed overhead on every small matrix.

    ``live`` (m,), non-increasing, limits step j to the first
    ``live[j]`` entries of the last stack axis; vector j of every later
    entry must be zero.  That is a stack sorted by descending rank, each
    vector orthonormalized only over the entries that drew it.  Rows
    beyond the limit stay zero and unkept.

    The kept rows are counted only when a set has more vectors than the
    dimension (m > d): with m <= d they cannot span the space before the
    last vector."""
    m, d = v.shape[:2]
    basis = np.zeros_like(v)
    kept = np.zeros((m, *v.shape[2:]), dtype=bool)
    rank = np.zeros(v.shape[2:], dtype=np.intp) if m > d else None
    for j in range(m):
        at = (...,) if live is None else (..., slice(live[j]))
        w, b = v[(j, *at)], basis[(slice(j), *at)]
        for _ in range(2 if j else 0):  # CGS + one re-orthogonalization pass
            coeff = (w.conj() * b).sum(axis=1).conj()  # inner(w, b_k), (j, ...)
            w = w - (coeff[:, np.newaxis] * b).sum(axis=0)
        nrm = np.sqrt((w.real**2 + w.imag**2).sum(axis=0))
        keep = nrm > EPS_ABS
        if rank is not None:
            keep &= rank[at] < d
            rank[at] += keep
        basis[(j, *at)] = w / nrm if keep.all() else np.where(keep, w / np.where(keep, nrm, 1.0), 0.0)
        kept[(j, *at)] = keep
    return basis, kept


def orthonormalize(vectors) -> list[np.ndarray]:
    """Orthonormal basis of the span of ``vectors`` (of a common
    dimension), as read-only unit vectors: the nonzero rows of
    :func:`orthonormalize_rows`.  The output size is the numerical rank
    of the input; empty input yields an empty list.

    Raises
    ------
    ValueError
        If a vector is empty, not one-dimensional, or not finite.
    DimensionMismatchError
        If the vectors differ in length.
    """
    rows = list(vectors)
    if not rows:
        return []
    try:
        mat = np.asarray(rows, dtype=np.complex128)
    except ValueError:
        if len({np.shape(v) for v in rows}) > 1 and all(np.ndim(v) == 1 for v in rows):
            raise DimensionMismatchError(
                f"vectors of dims {sorted({len(v) for v in rows})} in one set"
            ) from None
        raise
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise ValueError("expected non-empty one-dimensional vectors")
    mat = checked_rows(mat)[0]  # unscaled, an overflowing norm would keep a zero row: w / inf
    basis, kept = orthonormalize_rows(mat)
    basis = basis[kept]
    basis.flags.writeable = False
    return list(basis)
