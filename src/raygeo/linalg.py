"""Complex linear-algebra substrate.

Vectors are one-dimensional ``numpy`` arrays of ``complex128`` and
matrices are two-dimensional arrays.  The inner product is linear in its
**first** argument and conjugate-linear in its second,

    inner(u, v) = sum_i u_i * conj(v_i),

which fixes the sign conventions of every phase computed downstream.
All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ZeroArgumentError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy for floating-point checks.

    ``eps_abs`` applies to quantities expected near 0 or 1 (residuals,
    probabilities at their extremes); ``eps_rel`` applies elsewhere.

    Parameters
    ----------
    eps_abs : float
        Absolute tolerance, strictly positive.
    eps_rel : float
        Relative tolerance, strictly positive.
    """

    eps_abs: float = 1e-10
    eps_rel: float = 1e-9

    def __post_init__(self):
        if not (self.eps_abs > 0.0 and self.eps_rel > 0.0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()

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


def inner(u, v) -> complex:
    """Inner product ``sum_i u_i * conj(v_i)``.

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
    # np.vdot conjugates its first argument.
    return complex(np.vdot(v, u))


def norm(u) -> float:
    """Euclidean norm ``sqrt(inner(u, u))``."""
    return float(np.linalg.norm(np.asarray(u, dtype=np.complex128)))


def carg(c, tol: Tolerance = DEFAULT_TOL) -> float:
    """Complex argument of ``c`` in the branch (−π, π].

    Raises
    ------
    ZeroArgumentError
        If ``|c| <= tol.eps_abs``: the argument of a near-zero number
        carries no information.
    """
    c = complex(c)
    if abs(c) <= tol.eps_abs:
        raise ZeroArgumentError(f"argument undefined for |c| = {abs(c):.3e}")
    return wrap_angle(math.atan2(c.imag, c.real))


def wrap_angle(angle: float) -> float:
    """Reduce an angle modulo 2π to the canonical branch (−π, π]."""
    a = float(angle) % TWO_PI  # in [0, 2π)
    if a > math.pi:
        a -= TWO_PI
    return a


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, π].

    Immune to branch cuts: comparing θ and θ ± 2π gives 0.
    """
    return abs(wrap_angle(a - b))


def orthonormalize(vectors, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the span of ``vectors``.

    Modified Gram–Schmidt with a single re-orthogonalization pass, which
    is stable at the ambient dimensions this library targets (d ≤ 32).
    Vectors whose residual norm after projecting out the basis built so
    far is ``<= tol.eps_abs`` are dropped, so the output size equals the
    numerical rank of the input set.  Empty input yields an empty list.
    The input is coerced once into a 2-D array and the basis is filled
    in place; once it spans the whole space the remaining vectors are
    dependent and skipped.

    Parameters
    ----------
    vectors : iterable of array_like
        Vectors of a common dimension.
    tol : Tolerance
        Supplies the drop threshold ``eps_abs``.

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
        if nrm > tol.eps_abs:
            basis[k] = w / nrm
            conj[k] = basis[k].conj()
            k += 1
    basis = basis[:k]
    basis.flags.writeable = False
    return list(basis)
