"""The two geometric quantities on rays: similarity and triple phase.

Similarity ``p`` attaches a number in [0, 1] to a pair of rays (and, by
extension, to a ray and a subspace): the transition probability between
the states.  The triple phase ``theta`` attaches an angle to a triple of
pairwise non-orthogonal rays; it is the source of interference terms
and is independent of the representatives chosen.  Also here:
successive measurement, coplanarity of three rays, the reciprocity
defect, and the orthocomplement ("primed") triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTripleError, DimensionMismatchError, OrthogonalPairError
from .linalg import ANGLE_GUARD, EPS_ABS, TWO_PI, inners, norms
from .rays import Ray, Subspace, a_sims, equal_rays, project_rows, rays_from, require_dims


@dataclass(frozen=True)
class Triple:
    """An ordered triple of rays in a common ambient space."""

    x: Ray
    y: Ray
    z: Ray


def p_sims(u, v) -> np.ndarray:
    """Similarities |<u, v>|² of stacked unit vectors, shape (..., d) → (...)."""
    a = a_sims(u, v)
    return a * a


def a_sim(x: Ray, y: Ray) -> float:
    """Overlap |<u, v>| of unit representatives, in [0, 1].

    Representative-independent and symmetric; 1 exactly when the rays
    coincide, 0 exactly when they are orthogonal.
    """
    require_dims(x, y)
    return float(a_sims(x.rep, y.rep))


def p_sim(x: Ray, y: Ray) -> float:
    """Similarity (transition probability) between two rays: a_sim²."""
    require_dims(x, y)
    return float(p_sims(x.rep, y.rep))


def measurement_chain(x, *qs) -> tuple[np.ndarray, ...]:
    """The similarities p(x, q₁), p(q₁(x), q₂), … of successive
    measurement (Lüders' rule) on stacked instances, shape (...) each.

    Each of ``qs`` has shape (..., d, k) and orthonormal columns (zero
    columns span nothing, so stacks of mixed rank pad with zeros); ``x``
    holds unit vectors, shape (..., d).  Each similarity is the squared
    norm of the projection of the state before it (the Born rule,
    unclipped), which is then normalized.  After a similarity of zero
    the state stays unnormalized, and the later values of that row are
    meaningless.
    """
    ps = []
    u = x
    for q in qs:
        if ps:
            u = u / np.sqrt(np.where(ps[-1] > 0.0, ps[-1], 1.0))[..., np.newaxis]
        u = project_rows(q, u)
        ps.append(np.vecdot(u, u).real)
    return tuple(ps)


def p_props(q, x) -> np.ndarray:
    """Similarities between stacked rays x (..., d) and stacked
    propositions (..., d, k): the first value of
    :func:`measurement_chain`, clipped to [0, 1]."""
    return np.clip(measurement_chain(x, q)[0], 0.0, 1.0)


def p_prop(x: Ray, a: Subspace) -> float:
    """Similarity between a ray and a proposition: zero when the ray is
    orthogonal to the subspace, else the similarity to the projected
    ray.  The single form of :func:`p_props`."""
    require_dims(x, a)
    return float(p_props(a.basis.T, x.rep))


#: The pairs of a triple, in the order the phase guard checks them.
_PAIRS = (("x", "y"), ("y", "z"), ("z", "x"))


def bargmann_products(u, v, w) -> tuple[np.ndarray, np.ndarray]:
    """The Bargmann products <u,v><v,w><w,u> of stacked representatives,
    shape (...), and for each pair of :data:`_PAIRS` whether its
    normalized overlap exceeds ``ANGLE_GUARD``, shape (3, ...): the
    phase guard of :func:`triple_phases`."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if not (u.shape[-1] == v.shape[-1] == w.shape[-1]):
        raise DimensionMismatchError(f"dimensions {u.shape}, {v.shape}, {w.shape}")
    c = (np.vecdot(v, u), np.vecdot(w, v), np.vecdot(u, w))  # <u,v>, <v,w>, <w,u>
    n = [np.vecdot(t, t).real ** 0.5 for t in (u, v, w)]
    ok = np.stack([abs(c[k]) > ANGLE_GUARD * n[k] * n[(k + 1) % 3] for k in range(3)])
    return c[0] * c[1] * c[2], ok


def triple_phases(u, v, w) -> np.ndarray:
    """Triple phases of stacked representatives, shape (..., d) → (...).

    The argument of the Bargmann product <u,v><v,w><w,u>, in (−π, π]:
    one product and one atan2 per row.  Equal to arg<u,v> + arg<v,w> +
    arg<w,u> mod 2π, and invariant under rescaling any argument by a
    nonzero complex number, which is what makes the ray-level quantity
    well defined.

    A row with some normalized pairwise overlap at most ``ANGLE_GUARD``
    lies outside the domain (the argument of a near-zero inner product
    is meaningless) and reads NaN; :func:`triple_phase` names its pair.

    Raises
    ------
    DimensionMismatchError
        If the vectors have different lengths.
    """
    b, ok = bargmann_products(u, v, w)
    angle = np.arctan2(b.imag, b.real)
    angle = angle + TWO_PI * (angle <= -math.pi)  # atan2 can return −π; the branch is (−π, π]
    return np.where(ok.all(axis=0), angle, np.nan)


def triple_phase(u, v, w) -> float:
    """Triple phase from explicit representatives (any nonzero vectors).

    The single-triple form of :func:`triple_phases`.

    Raises
    ------
    OrthogonalPairError
        If some normalized pairwise overlap is at most ``ANGLE_GUARD``;
        names the first such pair, in the order (x,y), (y,z), (z,x).
    """
    angle = float(triple_phases(u, v, w))
    if math.isnan(angle):
        raise OrthogonalPairError(_PAIRS[int(np.argmin(bargmann_products(u, v, w)[1]))])
    return angle


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
    require_dims(x, y, z)
    return triple_phase(x.rep, y.rep, z.rep)


def complement_projections(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Projections of stacked rays v onto the orthocomplements of the
    stacked rays u, shape (..., d).

    Computed directly as v − <v, u>·u, the rank-(d−1) complement
    projection without materializing its basis.  Returns the canonical
    representatives and the mask of the rows whose projection has norm
    at most ``EPS_ABS`` (v lies on u: the result is :data:`ZERO`, and
    the row holds u as a placeholder).
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    w = v - inners(v, u)[..., np.newaxis] * u
    zero = norms(w) <= EPS_ABS
    return rays_from(np.where(zero[..., np.newaxis], u, w)), zero


def coplanar_rows(u, v, w) -> np.ndarray:
    """Whether the stacked rays u, v, w lie in a common two-dimensional
    subspace, shape (..., d) → (...).

    True when two of the three coincide, or when all three are distinct
    and v and w project to the same ray on the orthocomplement of u.
    A zero projection means the pair coincides numerically after all,
    so it counts as the two-equal case.
    """
    pv, zero_v = complement_projections(u, v)
    pw, zero_w = complement_projections(u, w)
    return (
        equal_rays(u, v) | equal_rays(u, w) | equal_rays(v, w)
        | zero_v | zero_w | equal_rays(pv, pw)
    )


def coplanar(x: Ray, y: Ray, z: Ray) -> bool:
    """Whether three rays lie in a common two-dimensional subspace: the
    single-triple form of :func:`coplanar_rows`."""
    require_dims(x, y, z)
    return bool(coplanar_rows(x.rep, y.rep, z.rep))


#: Why a row of :func:`prime_triples` has no primed triple, by defect code.
_PRIME_DEFECTS = (
    None,
    "rays must be pairwise distinct",
    "rays must be pairwise non-orthogonal",
    "rays must be coplanar",
    "projection collapsed; rays too close",
)


def prime_triples(u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The orthocomplement triples (u', v', w') of stacked coplanar
    triples, shape (..., d).

    u' is the projection of v (equivalently w) on the orthocomplement
    of u, and cyclically.  Its triple phase is the negation of the
    original one (mod 2π).  Returns the three stacks and a defect code
    per row: 0 for a valid row, else the index in :data:`_PRIME_DEFECTS`
    of the first precondition the row violates (its primed rays are
    then meaningless).
    """
    x1, zero_x = complement_projections(u, v)
    y1, zero_y = complement_projections(v, w)
    z1, zero_z = complement_projections(w, u)
    defects = [
        equal_rays(u, v) | equal_rays(v, w) | equal_rays(w, u),
        (a_sims(u, v) <= ANGLE_GUARD) | (a_sims(v, w) <= ANGLE_GUARD) | (a_sims(w, u) <= ANGLE_GUARD),
        ~coplanar_rows(u, v, w),
        zero_x | zero_y | zero_z,
    ]
    return x1, y1, z1, np.select(defects, list(range(1, len(_PRIME_DEFECTS))), 0)


def prime_triple(x: Ray, y: Ray, z: Ray) -> Triple:
    """The orthocomplement triple (x', y', z') of a coplanar triple: the
    single-triple form of :func:`prime_triples`.

    Raises
    ------
    DegenerateTripleError
        If the rays are not pairwise distinct, not pairwise
        non-orthogonal, or not coplanar.
    """
    require_dims(x, y, z)
    x1, y1, z1, defect = prime_triples(x.rep, y.rep, z.rep)
    if defect:
        raise DegenerateTripleError(_PRIME_DEFECTS[int(defect)])
    return Triple(x=Ray(rep=x1), y=Ray(rep=y1), z=Ray(rep=z1))


def equal_projections(p, zero_p, q, zero_q) -> np.ndarray:
    """Whether two stacked projections, each as
    :func:`~raygeo.rays.project_rays` returns it, are equal: both
    ``ZERO``, or equal rays."""
    return np.where(zero_p | zero_q, zero_p & zero_q, equal_rays(p, q))


def reciprocity_defects(u, v, w) -> np.ndarray:
    """How far stacked triples are from the reciprocity implication,
    shape (..., d) → (...): if v and w project to the same ray on the
    orthocomplement of u, then w and u project to the same ray on the
    orthocomplement of v.  Where the antecedent holds, the gap 1 − a
    between those two projections, 1.0 where exactly one of them is
    ``ZERO`` and 0.0 where both are; elsewhere zero, the implication
    being vacuous, as on any pairwise-orthogonal (classical) triple."""
    antecedent = equal_projections(*complement_projections(u, v), *complement_projections(u, w))
    (p, zero_p), (q, zero_q) = complement_projections(v, w), complement_projections(v, u)
    gap = np.where(zero_p | zero_q, zero_p != zero_q, 1.0 - a_sims(p, q))
    return np.where(antecedent, gap, 0.0)


def reciprocity_holds(x: Ray, y: Ray, z: Ray) -> bool:
    """The reciprocity implication for one instance: its
    :func:`reciprocity_defects` at most ``EPS_ABS``."""
    require_dims(x, y, z)
    return bool(reciprocity_defects(x.rep, y.rep, z.rep) <= EPS_ABS)
