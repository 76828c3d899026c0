"""The superposition operation on rays and its algebra.

A superposition mixes two non-orthogonal states in proportion
``r : (1 − r)``.  Writing v for a unit representative of the first
state and w for the unique unit representative of the second with
<v, w> real and positive, the superposed state is the ray of

    sqrt(r) v + sqrt(1 − r) w.

The operation is NOT a linear combination of states: it is undefined
for orthogonal states, it is commutative only under r ↔ 1 − r, and
composing superpositions does not behave like nested vector sums.  The
closed forms below (the mixture probability formula with its
interference term, the component-similarity formula, and the
complement-phase formula) are verified against direct computation by
the law harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTripleError,
    DimensionMismatchError,
    InvalidWeightError,
    OrthogonalComponentsError,
)
from .linalg import ANGLE_GUARD, EPS_ABS
from .rays import Ray, Subspace, a_sims, is_orthogonal, join, ray_from, rays_equal, rays_from
from .geometry import a_sim, p_sim, p_sims, theta, triple_phases


@dataclass(frozen=True)
class SuperpositionSpec:
    """The triple (y, z, r) naming the superposition r·y + (1−r)·z.

    Validation happens at construction: the components must share an
    ambient dimension, the weight must lie in [0, 1], and the
    components must not be orthogonal (no superposition of orthogonal
    states exists).
    """

    y: Ray
    z: Ray
    r: float

    def __post_init__(self):
        if self.y.dim != self.z.dim:
            raise DimensionMismatchError(f"dimensions {self.y.dim} vs {self.z.dim}")
        r = float(self.r)
        if not (math.isfinite(r) and 0.0 <= r <= 1.0):
            raise InvalidWeightError(f"weight r={self.r!r} outside [0, 1]")
        if a_sim(self.y, self.z) <= EPS_ABS:
            raise OrthogonalComponentsError(
                "superpositions of orthogonal states are undefined"
            )


def _superposition_rows(v, w, r):
    """sqrt(r)·v + sqrt(1−r)·w′ per row, with the masks of the rows whose
    superposition is a component instead: (gives v, gives w)."""
    r = np.asarray(r, dtype=np.float64)[()]  # a numpy scalar for a single row
    c = np.vecdot(w, v)  # <v, w>
    a = np.hypot(c.real, c.imag)
    cw = (1.0 - r) ** 0.5 * (c / (a + (a == 0.0)))  # w′ = w·c/|c| makes <v, w′> = |c|
    take_v = (r >= 1.0) | (a > 1.0 - EPS_ABS)
    take_w = (r <= 0.0) & ~take_v
    return (r**0.5)[..., np.newaxis] * v + cw[..., np.newaxis] * w, take_v, take_w


def superpose_vectors(v, w, r) -> np.ndarray:
    """Un-normalized superposition vectors of stacked components.

    ``v`` and ``w`` are unit representatives of shape (..., d) and ``r``
    the weights in [0, 1], shape (...).  Each row is
    sqrt(r)·v + sqrt(1−r)·w′, with w′ the representative of w that
    makes <v, w′> real and positive; its squared norm is
    omega(r, y, z).  The boundary rows follow the ray rules:
    coinciding components (overlap above 1 − EPS_ABS) or r = 1 give v,
    and r = 0 gives w.  Rows whose components are orthogonal are
    outside the domain and meaningless.
    """
    v = np.asarray(v, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    u, take_v, take_w = _superposition_rows(v, w, r)
    return np.where(take_v[..., np.newaxis], v, np.where(take_w[..., np.newaxis], w, u))


def superposed_rays(v, w, r) -> np.ndarray:
    """Canonical representatives of the superposed rays of stacked
    components: :func:`superpose_vectors`, normalized.  Rows whose
    superposition is a component give that component back (up to
    rounding)."""
    return rays_from(superpose_vectors(v, w, r))


def superpose(spec: SuperpositionSpec) -> Ray:
    """The superposed ray of ``spec``.

    Independent of the representative chosen for the first component;
    coplanar with both components, with vanishing triple phase against
    them.  Boundary weights short-circuit: r=1 gives y, r=0 gives z,
    and superposing a state with itself gives that state back.
    """
    u, take_y, take_z = _superposition_rows(spec.y.rep, spec.z.rep, spec.r)
    if take_y:
        return spec.y
    if take_z:
        return spec.z
    return ray_from(u)


def omegas(r, v, w) -> np.ndarray:
    """Normalizations 1 + 2·sqrt(r(1−r)·p(v,w)) of stacked components
    (unit representatives, shape (..., d); weights, shape (...)), in
    [1, 2]: the squared norms of the un-normalized superposition
    vectors."""
    r = np.asarray(r, dtype=np.float64)
    return 1.0 + 2.0 * np.sqrt(np.maximum(r * (1.0 - r), 0.0)) * a_sims(v, w)


def omega(r: float, y: Ray, z: Ray) -> float:
    """Normalization 1 + 2·sqrt(r(1−r)·p(y,z)), in [1, 2]: the single
    form of :func:`omegas`.

    Raises
    ------
    InvalidWeightError
        If r lies outside [0, 1].
    OrthogonalComponentsError
        If the components are orthogonal.
    """
    r = float(r)
    if not (math.isfinite(r) and 0.0 <= r <= 1.0):
        raise InvalidWeightError(f"weight r={r!r} outside [0, 1]")
    if a_sim(y, z) <= EPS_ABS:
        raise OrthogonalComponentsError(
            "superpositions of orthogonal states are undefined"
        )
    return float(omegas(r, y.rep, z.rep))


def p_of_superposition_closed_forms(r, v, w, x) -> np.ndarray:
    """Closed-form similarities between stacked superpositions of (v, w)
    with weights r and test states x, shape (..., d) → (...):

    [ r·p(v,x) + (1−r)·p(w,x) + 2·cos(theta(x,v,w))·sqrt(r(1−r)·p(v,x)·p(w,x)) ] / omega

    Must agree with the direct similarity to the constructed ray.  In
    rows where the test state is orthogonal to a component the
    interference term vanishes identically, so the phase is not read
    there rather than letting a meaningless arg() poison the value.

    Raises
    ------
    OrthogonalPairError
        If a row whose phase is read has a pair closer to orthogonal
        than ``ANGLE_GUARD`` (from :func:`triple_phases`).
    """
    r = np.asarray(r, dtype=np.float64)
    p_vx = p_sims(v, x)
    p_wx = p_sims(w, x)
    cross = r * (1.0 - r) * p_vx * p_wx
    read = (cross > (ANGLE_GUARD * ANGLE_GUARD) ** 2)[..., np.newaxis]
    # rows that are not read get the flat triple (v, v, v)
    phase = triple_phases(np.where(read, x, v), v, np.where(read, w, v))
    interference = np.where(read[..., 0], 2.0 * np.cos(phase) * np.sqrt(cross), 0.0)
    return (r * p_vx + (1.0 - r) * p_wx + interference) / omegas(r, v, w)


def p_of_superposition_closed_form(spec: SuperpositionSpec, x: Ray) -> float:
    """Closed-form similarity between a superposition and a test state:
    the single form of :func:`p_of_superposition_closed_forms`."""
    if x.dim != spec.y.dim:
        raise DimensionMismatchError(f"dimensions {spec.y.dim} vs {x.dim}")
    return float(p_of_superposition_closed_forms(spec.r, spec.y.rep, spec.z.rep, x.rep))


def p_component_closed_forms(r, v, w) -> np.ndarray:
    """Closed-form similarities between stacked superpositions and their
    first components: 1 − (1−r)(1−p(v,w)) / omega(r, v, w)."""
    r = np.asarray(r, dtype=np.float64)
    return 1.0 - (1.0 - r) * (1.0 - p_sims(v, w)) / omegas(r, v, w)


def p_component_closed_form(spec: SuperpositionSpec) -> float:
    """Closed-form similarity between a superposition and its first
    component: the single form of :func:`p_component_closed_forms`."""
    return float(p_component_closed_forms(spec.r, spec.y.rep, spec.z.rep))


def p_superposed_vs_component(spec: SuperpositionSpec) -> float:
    """Similarity between the superposed ray and its first component.

    For r in (0, 1] and distinct components this is strictly larger
    than the similarity of the components to each other: mixing in any
    amount of y moves the state closer to y than z ever was.

    Raises
    ------
    InvalidWeightError
        If r = 0 (the strictness claim degenerates to equality there).
    DegenerateTripleError
        If the components coincide.
    """
    if float(spec.r) <= 0.0:
        raise InvalidWeightError("r must be strictly positive here")
    if rays_equal(spec.y, spec.z):
        raise DegenerateTripleError("components must be distinct rays")
    return p_sim(superpose(spec), spec.y)


def cos_theta_prime(x: Ray, x_perp: Ray, y: Ray, z: Ray) -> float:
    """Closed-form cosine of the triple phase after swapping x for its
    in-plane orthocomplement x_perp.

    cos(theta(x', y, z)) = [ sqrt(p(y,z)) − cos(theta(x,y,z))·sqrt(p(x,y)·p(x,z)) ]
                           / sqrt( (1 − p(x,y))(1 − p(x,z)) )

    Preconditions: the four rays lie in one two-dimensional subspace,
    x ⊥ x_perp, the triples (x,y,z) and (x_perp,y,z) are pairwise
    non-orthogonal, and p(x,y), p(x,z) < 1.

    Raises
    ------
    DegenerateTripleError
        On any violated precondition or a vanishing denominator factor.
    """
    if not is_orthogonal(x, x_perp):
        raise DegenerateTripleError("x and x_perp must be orthogonal")
    plane = join(join(Subspace.from_ray(x), Subspace.from_ray(y)), Subspace.from_ray(z))
    plane_all = join(plane, Subspace.from_ray(x_perp))
    if plane_all.rank > 2:
        raise DegenerateTripleError("the four rays must be coplanar")
    for u, v in ((x, y), (x, z), (y, z), (x_perp, y), (x_perp, z)):
        if a_sim(u, v) <= ANGLE_GUARD:
            raise DegenerateTripleError("required non-orthogonality fails")
    p_xy = p_sim(x, y)
    p_xz = p_sim(x, z)
    den_sq = (1.0 - p_xy) * (1.0 - p_xz)
    if (1.0 - p_xy) <= EPS_ABS or (1.0 - p_xz) <= EPS_ABS:
        raise DegenerateTripleError("denominator factor vanished (p(x,·) = 1)")
    p_yz = p_sim(y, z)
    num = math.sqrt(p_yz) - math.cos(theta(x, y, z)) * math.sqrt(p_xy * p_xz)
    return num / math.sqrt(den_sq)


def theta_of_superposition(spec: SuperpositionSpec, x1: Ray, x2: Ray) -> float:
    """Triple phase of (superposed ray, x1, x2), by construction.

    No closed form is claimed for this quantity; it is supported
    numerically through the constructed ray only.
    """
    return theta(superpose(spec), x1, x2)
