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


def as_vector(values) -> np.ndarray:
    """Coerce ``values`` to a finite 1-D complex128 vector.

    Raises
    ------
    ValueError
        If the input is empty, not one-dimensional, or contains
        non-finite entries.
    """
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty one-dimensional vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def inners(u, v) -> np.ndarray:
    """Inner products ``sum_i u_i * conj(v_i)`` of stacked vectors,
    shape (..., d) → (...)."""
    return np.vecdot(v, u)  # vecdot conjugates its first argument


def inner(u, v) -> complex:
    """Inner product ``sum_i u_i * conj(v_i)``: the single-pair form of
    :func:`inners`.

    Linear in ``u``, conjugate-linear in ``v``; conjugate-symmetric:
    ``inner(v, u) == conj(inner(u, v))``.

    Raises
    ------
    DimensionMismatchError
        If the vectors have different lengths.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"dimensions {u.shape} vs {v.shape}")
    return complex(inners(u, v))


def norms(u) -> np.ndarray:
    """Euclidean norms of stacked vectors, shape (..., d) → (...)."""
    u = np.asarray(u, dtype=np.complex128)
    return np.sqrt(np.vecdot(u, u).real)


def norm(u) -> float:
    """Euclidean norm ``sqrt(inner(u, u))``: the single-vector form of
    :func:`norms`."""
    return float(norms(u))


def wrap_angles(angle) -> np.ndarray:
    """Angles reduced modulo 2π to the canonical branch (−π, π]."""
    a = np.asarray(angle, dtype=np.float64) % TWO_PI  # in [0, 2π)
    return a - TWO_PI * (a > math.pi)


def wrap_angle(angle: float) -> float:
    """Reduce an angle modulo 2π to the canonical branch (−π, π]."""
    return float(wrap_angles(angle))


def circular_distances(a, b) -> np.ndarray:
    """Distances between stacked angles on the circle, in [0, π].

    Immune to branch cuts: comparing θ and θ ± 2π gives 0.
    """
    return np.abs(wrap_angles(np.subtract(a, b)))


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, π]; the
    single-pair form of :func:`circular_distances`."""
    return float(circular_distances(a, b))


def orthonormalize(vectors) -> list[np.ndarray]:
    """Orthonormal basis of the span of ``vectors``.

    Modified Gram–Schmidt with a single re-orthogonalization pass, which
    is stable at the ambient dimensions this library targets (d ≤ 32).
    Vectors whose residual norm after projecting out the basis built so
    far is at most :data:`EPS_ABS` are dropped, so the output size
    equals the numerical rank of the input set.  Empty input yields an empty list.
    The input is coerced once into a 2-D array and the basis is filled
    in place; once it spans the whole space the remaining vectors are
    dependent and skipped.

    Parameters
    ----------
    vectors : iterable of array_like
        Vectors of a common dimension.

    Returns
    -------
    list of numpy.ndarray
        Pairwise-orthonormal unit vectors spanning the input.

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
    if not np.all(np.isfinite(mat)):
        raise ValueError("vector entries must be finite")
    n, d = mat.shape
    basis = np.empty((min(n, d), d), dtype=np.complex128)
    conj = np.empty_like(basis)  # conj(basis), kept in sync
    k = 0
    for w in mat:
        if k == d:  # the span is already the whole space
            break
        for _ in range(2):  # MGS + one re-orthogonalization pass
            w = w - basis[:k].T @ (conj[:k] @ w)
        # np.linalg.norm's own formula for a complex vector, without its wrapper
        nrm = math.sqrt(w.real @ w.real + w.imag @ w.imag)
        if nrm > EPS_ABS:
            basis[k] = w / nrm
            conj[k] = basis[k].conj()
            k += 1
    basis = basis[:k]
    basis.flags.writeable = False
    return list(basis)
