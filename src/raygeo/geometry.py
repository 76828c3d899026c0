"""The two geometric quantities on rays: similarity and triple phase.

Similarity ``p`` attaches a number in [0, 1] to a pair of rays (and, by
extension, to a ray and a subspace): the transition probability between
the states.  The triple phase ``theta`` attaches an angle to a triple of
pairwise non-orthogonal rays; it is the source of interference terms
and is independent of the representatives chosen.  Also here:
coplanarity of three rays, the reciprocity implication, and the
orthocomplement ("primed") triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTripleError, DimensionMismatchError, OrthogonalPairError
from .linalg import ANGLE_GUARD, EPS_ABS, TWO_PI, inner
from .rays import ZERO, Ray, Subspace, project_vec, ray_from, rays_equal


@dataclass(frozen=True)
class Triple:
    """An ordered triple of rays in a common ambient space."""

    x: Ray
    y: Ray
    z: Ray


def a_sims(u, v) -> np.ndarray:
    """Overlaps |<u, v>| of stacked unit vectors, shape (..., d) → (...).

    Clipped to [0, 1] so rounding never pushes a similarity above one.
    The modulus is libm's hypot, as for Python complex numbers.
    """
    c = np.vecdot(v, u)
    return np.minimum(np.hypot(c.real, c.imag), 1.0)


def p_sims(u, v) -> np.ndarray:
    """Similarities |<u, v>|² of stacked unit vectors, shape (..., d) → (...)."""
    a = a_sims(u, v)
    return a * a


def a_sim(x: Ray, y: Ray) -> float:
    """Overlap |<u, v>| of unit representatives, in [0, 1].

    Representative-independent and symmetric; 1 exactly when the rays
    coincide, 0 exactly when they are orthogonal.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimensions {x.dim} vs {y.dim}")
    return float(a_sims(x.rep, y.rep))


def p_sim(x: Ray, y: Ray) -> float:
    """Similarity (transition probability) between two rays: a_sim²."""
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimensions {x.dim} vs {y.dim}")
    return float(p_sims(x.rep, y.rep))


def p_prop(x: Ray, a: Subspace) -> float:
    """Similarity between a ray and a proposition.

    Zero when the ray is orthogonal to the subspace; otherwise the
    similarity to the projected ray.  Numerically this is the squared
    norm of the projected representative (the Born rule), which covers
    both branches at once.
    """
    if x.dim != a.dim:
        raise DimensionMismatchError(f"dimensions {x.dim} vs {a.dim}")
    p = project_vec(a, x.rep)
    val = float(np.real(np.vdot(p, p)))
    return min(max(val, 0.0), 1.0)


#: The pairs of a triple, in the order the phase guard checks them.
_PAIRS = (("x", "y"), ("y", "z"), ("z", "x"))


def triple_phases(u, v, w) -> np.ndarray:
    """Triple phases of stacked representatives, shape (..., d) → (...).

    The argument of the Bargmann product <u,v><v,w><w,u>, in (−π, π]:
    one product and one atan2 per row.  Equal to arg<u,v> + arg<v,w> +
    arg<w,u> mod 2π, and invariant under rescaling any argument by a
    nonzero complex number, which is what makes the ray-level quantity
    well defined.

    Raises
    ------
    OrthogonalPairError
        If some normalized pairwise overlap is at most ``ANGLE_GUARD``
        (the argument of a near-zero inner product is meaningless);
        names the first such pair of the first such row.
    DimensionMismatchError
        If the vectors have different lengths.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if not (u.shape[-1] == v.shape[-1] == w.shape[-1]):
        raise DimensionMismatchError(f"dimensions {u.shape}, {v.shape}, {w.shape}")
    c = (np.vecdot(v, u), np.vecdot(w, v), np.vecdot(u, w))  # <u,v>, <v,w>, <w,u>
    n = [np.vecdot(t, t).real ** 0.5 for t in (u, v, w)]
    ok = [abs(c[k]) > ANGLE_GUARD * n[k] * n[(k + 1) % 3] for k in range(3)]
    if not (ok[0] & ok[1] & ok[2]).all():
        bad = ~np.stack(ok).reshape(3, -1)
        first = int(np.argmax(bad.any(axis=0)))
        raise OrthogonalPairError(_PAIRS[int(np.argmax(bad[:, first]))])
    b = c[0] * c[1] * c[2]
    angle = np.arctan2(b.imag, b.real)
    return angle + TWO_PI * (angle <= -math.pi)  # atan2 can return −π; the branch is (−π, π]


def triple_phase(u, v, w) -> float:
    """Triple phase from explicit representatives (any nonzero vectors).

    The single-triple form of :func:`triple_phases`.

    Raises
    ------
    OrthogonalPairError
        If any normalized pairwise overlap is at most ``ANGLE_GUARD``.
    """
    return float(triple_phases(u, v, w))


def theta(x: Ray, y: Ray, z: Ray) -> float:
    """Triple phase of three pairwise non-orthogonal rays, in (−π, π].

    Cyclic in its arguments and antisymmetric under transpositions
    (mod 2π).

    Raises
    ------
    OrthogonalPairError
        Naming the offending pair, when any two rays have overlap at
        most ``ANGLE_GUARD``.
    """
    if not (x.dim == y.dim == z.dim):
        raise DimensionMismatchError(f"dimensions {x.dim}, {y.dim}, {z.dim}")
    return triple_phase(x.rep, y.rep, z.rep)


def complement_projection(x: Ray, y: Ray):
    """Projection of y onto the orthocomplement of the ray x.

    Computed directly as y − <y, x>·x, which is the rank-(d−1)
    complement projection without materializing its basis; returns
    :data:`ZERO` when y lies on x.
    """
    v = y.rep - inner(y.rep, x.rep) * x.rep
    if float(np.linalg.norm(v)) <= EPS_ABS:
        return ZERO
    return ray_from(v)


def coplanar(x: Ray, y: Ray, z: Ray) -> bool:
    """Whether three rays lie in a common two-dimensional subspace.

    True when two of the three coincide, or when all three are distinct
    and y and z project to the same ray on the orthocomplement of x.
    A zero projection means the pair coincides numerically after all,
    so it routes to the two-equal branch.
    """
    if rays_equal(x, y) or rays_equal(x, z) or rays_equal(y, z):
        return True
    py, pz = complement_projection(x, y), complement_projection(x, z)
    if py is ZERO or pz is ZERO:
        return True
    return rays_equal(py, pz)


def prime_triple(x: Ray, y: Ray, z: Ray) -> Triple:
    """The orthocomplement triple (x', y', z') of a coplanar triple.

    x' is the projection of y (equivalently z) on the orthocomplement
    of x, and cyclically.  Its triple phase is the negation of the
    original one (mod 2π).

    Raises
    ------
    DegenerateTripleError
        If the rays are not pairwise distinct, not pairwise
        non-orthogonal, or not coplanar.
    """
    if rays_equal(x, y) or rays_equal(y, z) or rays_equal(z, x):
        raise DegenerateTripleError("rays must be pairwise distinct")
    for u, v in ((x, y), (y, z), (z, x)):
        if a_sim(u, v) <= ANGLE_GUARD:
            raise DegenerateTripleError("rays must be pairwise non-orthogonal")
    if not coplanar(x, y, z):
        raise DegenerateTripleError("rays must be coplanar")
    x1 = complement_projection(x, y)
    y1 = complement_projection(y, z)
    z1 = complement_projection(z, x)
    if x1 is ZERO or y1 is ZERO or z1 is ZERO:
        raise DegenerateTripleError("projection collapsed; rays too close")
    return Triple(x=x1, y=y1, z=z1)


def _proj_equal(p, q) -> bool:
    if p is ZERO or q is ZERO:
        return p is ZERO and q is ZERO
    return rays_equal(p, q)


def reciprocity_holds(x: Ray, y: Ray, z: Ray) -> bool:
    """The reciprocity implication for one instance.

    If y and z project to the same ray on the orthocomplement of x,
    then z and x must project to the same ray on the orthocomplement
    of y.  Vacuously true when the antecedent fails — in particular on
    any triple of pairwise-orthogonal (classical) states.
    """
    py, pz = complement_projection(x, y), complement_projection(x, z)
    if not _proj_equal(py, pz):
        return True
    return _proj_equal(complement_projection(y, z), complement_projection(y, x))
