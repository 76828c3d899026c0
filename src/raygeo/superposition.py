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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTripleError, InvalidWeightError, OrthogonalComponentsError
from .linalg import ANGLE_GUARD, EPS_ABS, orthonormalize
from .rays import Ray, a_sims, is_orthogonal, ray_from, rays_from, require_dims
from .geometry import a_sim, bargmann_products, p_sim, p_sims, triple_phases


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
        require_dims(self.y, self.z)
        # float() would parse a string and take a bool for 0 or 1
        if isinstance(self.r, bool) or not isinstance(self.r, numbers.Real):
            raise InvalidWeightError(f"weight r must be a real number, got {type(self.r).__name__}")
        r = float(self.r)
        if not (math.isfinite(r) and 0.0 <= r <= 1.0):
            raise InvalidWeightError(f"weight r={self.r!r} outside [0, 1]")
        object.__setattr__(self, "r", r)
        if orthogonal_components(self.y.rep, self.z.rep):
            raise OrthogonalComponentsError(
                "superpositions of orthogonal states are undefined"
            )


def orthogonal_components(v, w) -> np.ndarray:
    """Whether stacked component pairs (..., d) are outside the
    superposition's domain: overlap at most ``EPS_ABS``."""
    return a_sims(v, w) <= EPS_ABS


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
    DimensionMismatchError, InvalidWeightError, OrthogonalComponentsError
        As :class:`SuperpositionSpec` does for the same (y, z, r).
    """
    SuperpositionSpec(y=y, z=z, r=r)
    return float(omegas(r, y.rep, z.rep))


def p_of_superposition_closed_forms(r, v, w, x) -> np.ndarray:
    """Closed-form similarities between stacked superpositions of (v, w)
    with weights r and test states x, shape (..., d) → (...):

    [ r·p(v,x) + (1−r)·p(w,x) + 2·cos(theta(x,v,w))·sqrt(r(1−r)·p(v,x)·p(w,x)) ] / omega

    Must agree with the direct similarity to the constructed ray.  The
    interference term is computed as
    2·sqrt(r(1−r))·Re(<x,v><v,w><w,x>) / a(v,w), which equals the phase
    form wherever the phase is defined and vanishes with either overlap
    of x, so no phase is read.  Rows whose components are orthogonal
    are outside the domain and meaningless.
    """
    r = np.asarray(r, dtype=np.float64)
    bargmann = bargmann_products(x, v, w)[0]  # <x,v><v,w><w,x>
    interference = 2.0 * np.sqrt(r * (1.0 - r)) * bargmann.real / a_sims(v, w)
    return (r * p_sims(v, x) + (1.0 - r) * p_sims(w, x) + interference) / omegas(r, v, w)


def p_of_superposition_closed_form(spec: SuperpositionSpec, x: Ray) -> float:
    """Closed-form similarity between a superposition and a test state:
    the single form of :func:`p_of_superposition_closed_forms`."""
    require_dims(spec.y, x)
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


def cos_theta_primes(x, y, z) -> np.ndarray:
    """Closed-form cosines of the triple phase after swapping x for its
    in-plane orthocomplement x', over stacked rays (..., d):

    cos(theta(x', y, z)) = [ sqrt(p(y,z)) − cos(theta(x,y,z))·sqrt(p(x,y)·p(x,z)) ]
                           / sqrt( (1 − p(x,y))(1 − p(x,z)) )

    A row whose triple (x, y, z) fails the phase guard reads NaN, as in
    :func:`~raygeo.geometry.triple_phases`; other rows that violate the
    preconditions of :func:`cos_theta_prime` are meaningless.
    """
    p_xy, p_xz = p_sims(x, y), p_sims(x, z)
    num = np.sqrt(p_sims(y, z)) - np.cos(triple_phases(x, y, z)) * np.sqrt(p_xy * p_xz)
    return num / np.sqrt((1.0 - p_xy) * (1.0 - p_xz))


def cos_theta_prime(x: Ray, x_perp: Ray, y: Ray, z: Ray) -> float:
    """Closed-form cosine of the triple phase after swapping x for its
    in-plane orthocomplement x_perp: the single form of
    :func:`cos_theta_primes`, with its preconditions checked.

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
    if len(orthonormalize([x.rep, y.rep, z.rep, x_perp.rep])) > 2:
        raise DegenerateTripleError("the four rays must be coplanar")
    for u, v in ((x, y), (x, z), (y, z), (x_perp, y), (x_perp, z)):
        if a_sim(u, v) <= ANGLE_GUARD:
            raise DegenerateTripleError("required non-orthogonality fails")
    if (1.0 - p_sim(x, y)) <= EPS_ABS or (1.0 - p_sim(x, z)) <= EPS_ABS:
        raise DegenerateTripleError("denominator factor vanished (p(x,·) = 1)")
    return float(cos_theta_primes(x.rep, y.rep, z.rep))
