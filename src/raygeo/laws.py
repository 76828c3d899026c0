"""The law registry: one named, checkable law per verified statement.

Each law checks a block of seeded random trials at once; see
:mod:`raygeo.lawcheck` for the execution model.  A law is declared
once, by ``@law(id, description, ...)`` on its batch function: the
description is the statement it witnesses, and declaration order is
report order.  The negative controls are the ``counterexample.*``
laws.  Every law samples its block as stacks (rays (n, d), subspaces
(n, d, k) with zero columns, maps (n, d + 2, d) with zero rows) and
computes their residuals with the stacked kernels of the library, whose
single-instance forms users call, never from the sampler's
construction.  Unless noted, the residual for a ray-equality claim is
``1 − overlap`` of the two rays, and the residual for a numeric
identity is the absolute deviation.  A trial that violates a
precondition on which the single-instance check raises gets an
infinite residual, or NaN where a stacked kernel marks the row with
NaN (a triple phase across a near-orthogonal pair); either fails the
law unless the trial is skipped.
Angle identities compare by circular distance with tolerance 1e-8 rad;
everything else defaults to 1e-10.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import sampling
from .lawcheck import Block, law
from .linalg import (
    EPS_ABS,
    circular_distances,
    inners,
    norms,
    orthonormalize_rows,
    wrap_angles,
)
from .rays import (
    a_sims,
    commutation_defects,
    commuting_subspaces,
    complements,
    contained_subspaces,
    containment_defects,
    equal_rays,
    joins,
    meets,
    orthogonal_subspaces,
    orthogonality_defects,
    project_rays,
    project_rows,
    projectors,
    ranks,
    rays_from,
)
from .geometry import (
    complement_projections,
    coplanar_rows,
    p_props,
    p_sims,
    prime_triples,
    reciprocity_defects,
    triple_phases,
)
from .superposition import (
    cos_theta_primes,
    orthogonal_components,
    p_component_closed_forms,
    p_of_superposition_closed_forms,
    superposed_rays,
)
from .probability import (
    chain_rule_residuals,
    commuting_decompositions,
    complement_residuals,
    inclusion_exclusion_residuals,
    interference_margins,
    measurement_chain,
    ortho_additivity_residuals,
    search_nonsquared_counterexample,
    total_probability_residuals,
)
from .morphisms import (
    apply_rays,
    char_morph_agreements,
    isometry_maps,
    isometry_scales,
    non_isometry_maps,
    p_theta_residuals,
    superposition_residuals,
)
from .tensor import kron_rows, p_product_residuals, product_rays, theta_product_residuals

ANGLE_TOL = 1e-8


def _block(residuals, skipped=None, **instance) -> Block:
    """The :class:`Block` of a law's stacks; no trial skipped by default."""
    if skipped is None:
        skipped = np.zeros(len(residuals), dtype=bool)
    return Block(residuals, skipped, instance)


def _unit_phases(rng, n) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.cos(angle) + 1j * np.sin(angle)


def _ray_gaps(u, v) -> np.ndarray:
    return 1.0 - a_sims(u, v)


def _unless(ok, residual) -> np.ndarray:
    """The residuals, infinite where the library check would raise."""
    return np.where(ok, residual, math.inf)


# ---------------------------------------------------------------------------
# linalg substrate


@law(
    "linalg.inner_linearity",
    "inner product linear in its first argument, conjugate-symmetric",
)
def _batch_inner_linearity(rng, dim, n):
    u, v, w = sampling.gaussian_stack(rng, (3, n, dim))
    a, b = sampling.gaussian_stack(rng, (2, n))
    lhs = inners(a[:, np.newaxis] * u + b[:, np.newaxis] * v, w)
    rhs = a * inners(u, w) + b * inners(v, w)
    scale = (np.abs(a) * norms(u) + np.abs(b) * norms(v)) * norms(w) + 1.0
    sym = np.abs(inners(v, u) - np.conj(inners(u, v)))
    return _block(np.maximum(np.abs(lhs - rhs), sym) / scale, u=u, v=v, w=w, a=a, b=b)


@law("linalg.cauchy_schwarz", "Cauchy–Schwarz: |<u,v>| never exceeds ||u||·||v||")
def _batch_cauchy_schwarz(rng, dim, n):
    u, v = sampling.gaussian_stack(rng, (2, n, dim))
    return _block(np.maximum(0.0, np.abs(inners(u, v)) - norms(u) * norms(v)), u=u, v=v)


@law(
    "linalg.orthonormalize_contract",
    "orthonormalize returns an orthonormal basis of the span, size = rank, idempotent",
    trials_per_dim=400,
)
def _batch_orthonormalize_contract(rng, dim, n):
    # k independent vectors, zero rows up to dim, then up to two combinations of them
    k = rng.integers(1, dim + 1, n)
    independent = sampling.gaussian_stack(rng, (n, dim, dim))
    independent *= np.arange(dim)[:, np.newaxis] < k[:, np.newaxis, np.newaxis]
    redundant = sampling.gaussian_stack(rng, (n, 2, dim)) @ independent
    redundant *= np.arange(2)[:, np.newaxis] < rng.integers(0, 3, n)[:, np.newaxis, np.newaxis]
    vectors = np.concatenate([independent, redundant], axis=1)
    skip = np.linalg.matrix_rank(independent, tol=1e-8) < k
    basis, kept = orthonormalize_rows(vectors)
    got = kept.sum(axis=1)
    gram = basis @ basis.conj().swapaxes(1, 2) - kept[:, np.newaxis, :] * np.eye(dim + 2)
    drift = norms(orthonormalize_rows(basis)[0] - basis).max(axis=1)
    residual = np.where(got != k, 1.0, np.maximum(np.abs(gram).max(axis=(1, 2)), drift))
    return _block(residual, skip, vectors=vectors, expected_rank=k, got=got)


# ---------------------------------------------------------------------------
# rays and subspaces


@law(
    "ray.canonical_representative",
    "rays are scale-invariant with a canonical unit representative",
)
def _batch_ray_canonical(rng, dim, n):
    v = sampling.gaussian_stack(rng, (n, dim))
    c = _unit_phases(rng, n) * rng.uniform(0.1, 10.0, n)
    x = rays_from(v)
    scaled = rays_from(v * c[:, np.newaxis])
    lead = x[np.arange(n), np.argmax(np.abs(x) > EPS_ABS, axis=1)]
    residual = np.maximum.reduce([
        _ray_gaps(x, scaled),
        np.abs(x - scaled).max(axis=1),
        np.abs(norms(x) - 1.0),  # unit representative
        np.abs(lead.imag) + np.maximum(0.0, -lead.real),  # canonical phase
    ])
    return _block(residual, v=v, c=c)


@law("subspace.projector_laws", "projectors are Hermitian and idempotent")
def _batch_projector_laws(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 0, dim)
    p = projectors(a)
    hermitian = np.abs(p - p.conj().swapaxes(1, 2)).max(axis=(1, 2))
    return _block(np.maximum(np.abs(p @ p - p).max(axis=(1, 2)), hermitian), alpha=a)


@law("subspace.projection_residual", "the projection residual is orthogonal to the subspace")
def _batch_projection_residual(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 1, dim - 1)
    u = sampling.gaussian_stack(rng, (n, dim))
    resid = u - project_rows(a, u)
    return _block(orthogonality_defects(a, resid[..., np.newaxis]), alpha=a, u=u)


@law(
    "subspace.complement_involution",
    "complement ranks add to dim; double complement returns the subspace",
    trials_per_dim=400,
)
def _batch_complement_involution(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 0, dim)
    na = complements(a)
    nna = complements(na)
    residual = np.maximum.reduce([
        containment_defects(nna, a),
        containment_defects(a, nna),
        orthogonality_defects(a, na),
    ])
    rank_mismatch = (ranks(na) != dim - ranks(a)) | (ranks(nna) != ranks(a))
    return _block(np.where(rank_mismatch, 1.0, residual), alpha=a)


@law(
    "subspace.orthomodular_identity",
    "orthomodular identity: for nested subspaces, b = a ∨ (¬a ∧ b)",
    trials_per_dim=250,
)
def _batch_orthomodular_identity(rng, dim, n):
    a, b = sampling.nested_pairs(rng, n, dim)
    rebuilt = joins(a, meets(complements(a), b))
    residual = np.maximum(containment_defects(rebuilt, b), containment_defects(b, rebuilt))
    return _block(np.where(ranks(rebuilt) != ranks(b), 1.0, residual), alpha=a, beta=b)


@law(
    "subspace.commutes_complement",
    "commuting survives complementation of either argument",
    trials_per_dim=400,
)
def _batch_commutes_complement(rng, dim, n):
    # [¬a, b] = −[a, b], so the two commutation defects agree on every
    # pair, and on the constructed commuting pairs both vanish
    expect_commuting = rng.integers(0, 2, n) == 0
    pairs = sampling.commuting_pairs(rng, n, dim)
    generic = [sampling.random_subspaces(rng, n, dim, 1, dim - 1) for _ in range(2)]
    a, b = (np.where(expect_commuting[:, np.newaxis, np.newaxis], c, g) for c, g in zip(pairs, generic))
    defect = commutation_defects(a, b)
    residual = np.abs(commutation_defects(complements(a), b) - defect)
    residual = np.where(expect_commuting, np.maximum(residual, defect), residual)
    return _block(residual, alpha=a, beta=b, expect_commuting=expect_commuting)


@law(
    "lemma.commuting_decomposition",
    "commuting pairs decompose into three orthogonal parts and back",
    trials_per_dim=150,
)
def _batch_commuting_decomposition(rng, dim, n):
    a, b = sampling.commuting_pairs(rng, n, dim)
    g1, g2, g3, defect = commuting_decompositions(a, b)
    parts_in = ((g1, a), (g1, b), (g2, a), (g3, b))
    residual = np.maximum.reduce([containment_defects(g, s) for g, s in parts_in])
    # converse: random orthogonal parts always generate a commuting pair
    frame = sampling.random_frames(rng, n, dim, dim)
    cuts = np.sort(rng.integers(0, dim + 1, (n, 2)), axis=1)
    p1, p2, p3 = (
        sampling.column_ranges(frame, lo, hi)
        for lo, hi in ((0, cuts[:, 0]), (cuts[:, 0], cuts[:, 1]), (cuts[:, 1], dim))
    )
    residual = np.where(commuting_subspaces(joins(p1, p2), joins(p1, p3)), residual, np.maximum(residual, 1.0))
    return _block(_unless(defect == 0, residual), alpha=a, beta=b, defect=defect)


@law(
    "corollary.contained_or_orthogonal_commute",
    "nested or orthogonal propositions commute",
    trials_per_dim=400,
)
def _batch_contained_or_orthogonal_commute(rng, dim, n):
    a, b = sampling.nested_pairs(rng, n, dim)
    frame = sampling.random_frames(rng, n, dim, dim)
    cut = rng.integers(0, dim + 1, n)
    p, q = sampling.column_ranges(frame, 0, cut), sampling.column_ranges(frame, cut, dim)
    residual = np.maximum(commutation_defects(a, b), commutation_defects(p, q))
    return _block(residual, nested_a=a, nested_b=b, p=p, q=q)


@law(
    "classical.no_disturbance",
    "classical structure: with pairwise-orthogonal states, measuring ¬x leaves any other state intact",
)
def _batch_classical_no_disturbance(rng, dim, n):
    x, y = sampling.classical_ray_stacks(rng, n, dim, 2)
    py, zero = complement_projections(x, y)
    return _block(np.where(zero, 1.0, _ray_gaps(py, y)), x=x, y=y)


# ---------------------------------------------------------------------------
# similarity and phase geometry


@law(
    "lemma.a_properties",
    "overlap lies in [0,1], symmetric, 1 iff equal, 0 iff orthogonal",
)
def _batch_a_properties(rng, dim, n):
    x, y, skip = sampling.nonorthogonal_rays(rng, n, dim, 2)
    a_xy = a_sims(x, y)
    frame = sampling.random_frames(rng, n, dim, 2)
    e, f = rays_from(frame[:, :, 0]), rays_from(frame[:, :, 1])
    residual = np.maximum.reduce([
        np.maximum(a_xy - 1.0, -a_xy),
        np.abs(a_xy - a_sims(y, x)),
        np.abs(a_sims(x, x) - 1.0),
        a_sims(e, f),
    ])
    return _block(residual, skip, x=x, y=y)


@law(
    "lemma.p_properties",
    "similarity = overlap², symmetric, equals <u,y(u)> and ||y(u)||²",
)
def _batch_p_properties(rng, dim, n):
    x = sampling.random_rays(rng, n, dim)
    y = sampling.random_rays(rng, n, dim)
    a = a_sims(x, y)
    p = p_sims(x, y)
    proj = inners(x, y)[:, np.newaxis] * y  # projection of x on y
    residual = np.maximum.reduce([
        np.abs(p - a * a),
        np.abs(p - p_sims(y, x)),
        np.abs(p - inners(x, proj).real),
        np.abs(p - norms(proj) ** 2),
        np.abs(p_sims(x, x) - 1.0),
    ])
    return _block(residual, x=x, y=y)


@law("corollary.satisfaction", "satisfaction: membership is equivalent to similarity one")
def _batch_satisfaction(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 1, dim - 1)
    member = sampling.member_rays(rng, a)
    x = sampling.random_rays(rng, n, dim)
    residual = np.abs(p_props(a, member) - 1.0)
    x_in_a = contained_subspaces(x[..., np.newaxis], a)
    agree = contained_subspaces(member[..., np.newaxis], a) & (x_in_a == (p_props(a, x) > 1.0 - 1e-9))
    return _block(np.where(agree, residual, np.maximum(residual, 1.0)), alpha=a, member=member, x=x)


@law("lemma.born_rule", "Born rule: p(x,a) = ||a(u)||²/||u||² for any nonzero u in x")
def _batch_born_rule(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 0, dim)
    x = sampling.random_rays(rng, n, dim)
    u = x * (_unit_phases(rng, n) * rng.uniform(0.1, 10.0, n))[:, np.newaxis]
    born = norms(project_rows(a, u)) ** 2 / norms(u) ** 2
    return _block(np.abs(p_props(a, x) - born), alpha=a, x=x)


@law("theorem.p_chain", "p(x,y) factors through the projection: p(x,a(x))·p(a(x),y) for y in a")
def _batch_p_chain(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 1, dim - 1)
    x = sampling.random_rays(rng, n, dim)
    ax, zero = project_rays(a, x)
    y = sampling.member_rays(rng, a)
    return _block(np.abs(p_sims(x, y) - p_props(a, x) * p_sims(ax, y)), zero, alpha=a, x=x, y=y)


@law(
    "corollary.p_max",
    "the projection is the unique most-similar state inside a subspace",
    trials_per_dim=500,
)
def _batch_p_max(rng, dim, n):
    # Next to the optimum (Lüders, Ann. Phys. 8, 322, 1951): for a unit w
    # in α orthogonal to α(x), y = (α(x) + ε·w)/√(1 + ε²) lies in α, and by
    # the chain rule p(x,α) − p(x,y) = p(x,α)·ε²/(1 + ε²).  The residual is
    # the largest deviation from that gap over ε = 10⁻¹ … 10⁻⁴, and 1.0
    # when some gap is not positive, so that y would match or beat α(x).
    # α has rank at least 2, so that w exists: the whole plane at d = 2.
    a = sampling.random_subspaces(rng, n, dim, 2, max(2, dim - 1))
    x = sampling.random_rays(rng, n, dim)
    ax, zero = project_rays(a, x)
    g = (a @ sampling.gaussian_stack(rng, (n, dim, 1)))[..., 0]
    g -= inners(g, ax)[:, np.newaxis] * ax
    w = g / norms(g)[:, np.newaxis]
    eps = 10.0 ** -np.arange(1, 5)[:, np.newaxis]
    y = (ax + eps[..., np.newaxis] * w) / np.sqrt(1.0 + eps * eps)[..., np.newaxis]
    p = p_props(a, x)
    gaps = p - p_sims(x, y)  # (ε, trial)
    residual = np.abs(gaps - p * (eps * eps / (1.0 + eps * eps))).max(axis=0)
    residual = np.where((gaps > 0.0).all(axis=0), residual, 1.0)
    return _block(residual, zero, alpha=a, x=x, w=w, gaps=gaps.T)


@law("lemma.p_bounds", "0 ≤ p(x,a) ≤ 1 always")
def _batch_p_bounds(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 0, dim)
    x = sampling.random_rays(rng, n, dim)
    p = measurement_chain(x, a)[0]  # the Born value, unclipped
    return _block(np.maximum(0.0, np.maximum(-p, p - 1.0)), alpha=a, x=x)


@law(
    "principle.reciprocity",
    "reciprocity: equal projections on ¬x imply equal projections on ¬y",
    trials_per_dim=400,
)
def _batch_reciprocity(rng, dim, n):
    constructed = (rng.integers(0, 2, n) == 0) | (dim < 3)
    x, y, z, skip = sampling.coplanar_triples(rng, n, dim)
    if dim >= 3:
        classical = sampling.classical_ray_stacks(rng, n, dim, 3)
        x, y, z = (np.where(constructed[:, np.newaxis], s, c) for s, c in zip((x, y, z), classical))
    return _block(reciprocity_defects(x, y, z), skip & constructed, x=x, y=y, z=z)


@law(
    "coplanarity.permutation_invariance",
    "coplanarity is a property of the unordered triple",
    tolerance=0.5,
    trials_per_dim=300,
)
def _batch_coplanarity_permutations(rng, dim, n):
    constructed = rng.integers(0, 2, n) == 0
    planar = sampling.coplanar_triples(rng, n, dim)
    free = [sampling.random_rays(rng, n, dim) for _ in range(3)]
    x, y, z = (np.where(constructed[:, np.newaxis], c, f) for c, f in zip(planar[:3], free))
    verdicts = np.stack([coplanar_rows(*perm) for perm in itertools.permutations((x, y, z))])
    agree = verdicts.all(axis=0)
    bad = (verdicts.any(axis=0) != agree) | (constructed & ~agree)
    return _block(bad.astype(float), planar[3] & constructed, x=x, y=y, z=z, constructed=constructed)


@law(
    "theta.representative_independence",
    "the triple phase ignores the representatives chosen",
    tolerance=ANGLE_TOL,
)
def _batch_theta_representative_independence(rng, dim, n):
    x, y, z, skip = sampling.nonorthogonal_rays(rng, n, dim, 3)
    reference = triple_phases(x, y, z)
    scrambled = triple_phases(
        x * _unit_phases(rng, n)[:, np.newaxis],
        y * (_unit_phases(rng, n) * rng.uniform(0.1, 10.0, n))[:, np.newaxis],
        z * _unit_phases(rng, n)[:, np.newaxis],
    )
    return _block(circular_distances(reference, scrambled), skip, x=x, y=y, z=z)


@law(
    "lemma.theta_cyclic",
    "triple phase is cyclic and antisymmetric under transposition",
    tolerance=ANGLE_TOL,
)
def _batch_theta_cyclic(rng, dim, n):
    x, y, z, skip = sampling.nonorthogonal_rays(rng, n, dim, 3)
    t = triple_phases(x, y, z)
    residual = np.maximum(
        circular_distances(triple_phases(y, z, x), t),
        circular_distances(triple_phases(x, z, y), -t),
    )
    return _block(residual, skip, x=x, y=y, z=z)


@law(
    "lemma.theta_cocycle",
    "cocycle: theta(x,y,w) = theta(x,y,z) + theta(x,z,w) + theta(z,y,w) mod 2π",
    tolerance=ANGLE_TOL,
)
def _batch_theta_cocycle(rng, dim, n):
    x, y, z, w, skip = sampling.nonorthogonal_rays(rng, n, dim, 4)
    lhs = triple_phases(x, y, w)
    rhs = triple_phases(x, y, z) + triple_phases(x, z, w) + triple_phases(z, y, w)
    return _block(circular_distances(lhs, wrap_angles(rhs)), skip, x=x, y=y, z=z, w=w)


@law(
    "lemma.theta_prime",
    "the orthocomplement triple negates the triple phase",
    tolerance=ANGLE_TOL,
    trials_per_dim=300,
)
def _batch_theta_prime(rng, dim, n):
    x, y, z, skip = sampling.coplanar_triples(rng, n, dim)
    skip |= equal_rays(x, y) | equal_rays(y, z) | equal_rays(z, x) | sampling.near_orthogonal(x, y, z)
    x1, y1, z1, defect = prime_triples(x, y, z)
    primed = triple_phases(x1, y1, z1)
    residual = np.where(defect != 0, math.inf, circular_distances(primed, -triple_phases(x, y, z)))
    return _block(residual, skip, x=x, y=y, z=z, defect=defect)


@law(
    "theta.euclidean_real",
    "Euclidean regime: real instances have phase 0 or π; positive overlaps give exactly 0",
    tolerance=ANGLE_TOL,
)
def _batch_theta_euclidean(rng, dim, n):
    x, y, z = (rays_from(rng.standard_normal((n, dim))) for _ in range(3))
    skip = sampling.near_orthogonal(x, y, z)
    t = triple_phases(x, y, z)
    positive = [rays_from(np.abs(rng.standard_normal((n, dim))) + 0.1) for _ in range(3)]
    residual = np.maximum(
        np.minimum(circular_distances(t, 0.0), circular_distances(t, math.pi)),
        circular_distances(triple_phases(*positive), 0.0),
    )
    return _block(residual, skip, x=x, y=y, z=z)


# ---------------------------------------------------------------------------
# superpositions


def _pairs_and_weights(rng, dim, n):
    """Superposition components (y, z), skip mask and weights r."""
    y, z, skip = sampling.nonorthogonal_rays(rng, n, dim, 2)
    return y, z, skip, rng.uniform(0.0, 1.0, n)


@law(
    "principle.superposition_domain", "superposition is undefined exactly for orthogonal components"
)
def _batch_superposition_domain(rng, dim, n):
    x, y = sampling.classical_ray_stacks(rng, n, dim, 2)
    r = rng.uniform(0.0, 1.0, n)
    trivial = _ray_gaps(superposed_rays(x, x, r), x)
    return _block(np.where(orthogonal_components(x, y), trivial, 1.0), x=x, y=y, r=r)


@law("principle.triviality", "superposing a state with itself returns the state")
def _batch_triviality(rng, dim, n):
    y = sampling.random_rays(rng, n, dim)
    r = rng.uniform(0.0, 1.0, n)
    return _block(_ray_gaps(superposed_rays(y, y, r), y), y=y, r=r)


@law(
    "lemma.superpose_identity_commutative",
    "weight 1 returns the first component; swap components by r ↔ 1−r",
)
def _batch_superpose_identity_commutative(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    residual = np.maximum.reduce([
        _ray_gaps(superposed_rays(y, z, np.ones(n)), y),
        _ray_gaps(superposed_rays(y, z, np.zeros(n)), z),
        _ray_gaps(superposed_rays(y, z, r), superposed_rays(z, y, 1.0 - r)),
    ])
    return _block(residual, skip, y=y, z=z, r=r)


@law(
    "principle.coplanarity",
    "a superposition is coplanar with its components",
    tolerance=0.5,
)
def _batch_superposition_coplanarity(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    failed = ~coplanar_rows(superposed_rays(y, z, r), y, z)
    return _block(failed.astype(float), skip, y=y, z=z, r=r)


@law(
    "lemma.prop1_theta_zero",
    "the phase of (superposition, y, z) vanishes",
    tolerance=ANGLE_TOL,
)
def _batch_superposition_theta_zero(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    # near r = 0 or 1 the superposition collapses onto a component
    skip |= equal_rays(y, z) | (r < 1e-6) | (r > 1.0 - 1e-6)
    x = superposed_rays(y, z, r)
    skip |= sampling.near_orthogonal(x, y, z)
    return _block(circular_distances(triple_phases(x, y, z), 0.0), skip, y=y, z=z, r=r)


@law(
    "lemma.p_basis",
    "closed-form superposition probability, with its interference term, matches the constructed ray",
    tolerance=1e-9,
)
def _batch_p_basis(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    x = sampling.random_rays(rng, n, dim)
    skip |= sampling.near_orthogonal(x, y, z)
    direct = p_sims(superposed_rays(y, z, r), x)
    closed = p_of_superposition_closed_forms(r, y, z, x)
    return _block(np.abs(closed - direct), skip, y=y, z=z, r=r, x=x, direct=direct, closed=closed)


@law(
    "lemma.prop1_component_form",
    "similarity to a component: 1 − (1−r)(1−p(y,z))/ω",
    tolerance=1e-9,
)
def _batch_prop1_component_form(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    direct = p_sims(superposed_rays(y, z, r), y)
    closed = p_component_closed_forms(r, y, z)
    return _block(np.abs(closed - direct), skip, y=y, z=z, r=r)


@law(
    "lemma.prop1_dominance",
    "mixing in y strictly increases similarity to y beyond p(y,z)",
    tolerance=0.0,
)
def _batch_prop1_dominance(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    p_yz = p_sims(y, z)
    skip |= (r < 1e-6) | (1.0 - p_yz < 1e-6)  # the margin shrinks to zero at r = 0 and at y = z
    margin = p_sims(superposed_rays(y, z, r), y) - p_yz
    return _block(np.maximum(0.0, EPS_ABS - margin), skip, y=y, z=z, r=r, margin=margin)


@law(
    "counterexample.dominance_boundary",
    "at r=0 the strict dominance degrades to equality, as predicted (control)",
)
def _batch_dominance_boundary(rng, dim, n):
    y, z, skip = sampling.nonorthogonal_rays(rng, n, dim, 2)
    x0 = superposed_rays(y, z, np.zeros(n))
    return _block(np.abs(p_sims(x0, y) - p_sims(y, z)), skip, y=y, z=z)


@law(
    "corollary.cos_theta_prime",
    "closed-form cosine of the phase after an in-plane complement swap",
    tolerance=ANGLE_TOL,
    trials_per_dim=500,
)
def _batch_cos_theta_prime(rng, dim, n):
    plane = sampling.random_frames(rng, n, dim, 2)
    cx, cy, cz = sampling.gaussian_stack(rng, (3, n, 2))
    cx_perp = np.stack([-np.conj(cx[:, 1]), np.conj(cx[:, 0])], axis=1)
    x, x_perp, y, z = (rays_from((plane @ c[..., np.newaxis])[..., 0]) for c in (cx, cx_perp, cy, cz))
    pairs = ((x, y), (x, z), (y, z), (x_perp, y), (x_perp, z))
    skip = np.minimum.reduce([a_sims(u, v) for u, v in pairs]) <= 1e-4
    skip |= (p_sims(x, y) > 1.0 - 1e-6) | (p_sims(x, z) > 1.0 - 1e-6)
    predicted = cos_theta_primes(x, y, z)
    observed = np.cos(triple_phases(x_perp, y, z))
    return _block(np.abs(predicted - observed), skip, x=x, x_perp=x_perp, y=y, z=z)


@law(
    "superposition.theta_consistency",
    "phases of superposed rays are representative-independent (numeric-only support)",
    tolerance=ANGLE_TOL,
)
def _batch_superposition_theta_consistency(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    x1 = sampling.random_rays(rng, n, dim)
    x2 = sampling.random_rays(rng, n, dim)
    s = superposed_rays(y, z, r)
    skip |= sampling.near_orthogonal(s, x1, x2)
    reference = triple_phases(s, x1, x2)
    scrambled = triple_phases(*(v * _unit_phases(rng, n)[:, np.newaxis] for v in (s, x1, x2)))
    return _block(circular_distances(reference, scrambled), skip, y=y, z=z, r=r, x1=x1, x2=x2)


# ---------------------------------------------------------------------------
# probability calculus


@law(
    "lemma.ortho_additivity",
    "similarity adds over a disjunction of orthogonal propositions",
    trials_per_dim=400,
)
def _batch_ortho_additivity(rng, dim, n):
    frame = sampling.random_frames(rng, n, dim, dim)
    cut = rng.integers(0, dim + 1, n)
    keep = rng.integers(cut, dim + 1)
    a, b = sampling.column_ranges(frame, 0, cut), sampling.column_ranges(frame, cut, keep)
    x = sampling.random_rays(rng, n, dim)
    residual = ortho_additivity_residuals(x, a, b)
    return _block(_unless(orthogonal_subspaces(a, b), residual), alpha=a, beta=b, x=x)


@law(
    "corollary.ortho_additivity_family",
    "similarity adds over families of 2..4 orthogonal propositions",
    trials_per_dim=300,
)
def _batch_ortho_additivity_family(rng, dim, n):
    # k parts between sorted cuts of one frame; the parts beyond k are empty
    k = rng.integers(2, min(4, dim) + 1, n)
    frame = sampling.random_frames(rng, n, dim, dim)
    cuts = np.where(np.arange(3) < k[:, np.newaxis] - 1, rng.integers(0, dim + 1, (n, 3)), dim)
    bounds = np.pad(np.sort(cuts, axis=1), ((0, 0), (1, 1)), constant_values=(0, dim))
    parts = [sampling.column_ranges(frame, bounds[:, i], bounds[:, i + 1]) for i in range(4)]
    x = sampling.random_rays(rng, n, dim)
    return _block(ortho_additivity_residuals(x, *parts), x=x, k=k)


@law(
    "lemma.complement_sum",
    "complement probabilities sum to one: p(x,a) + p(x,¬a) = 1",
    trials_per_dim=400,
)
def _batch_complement_sum(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 0, dim)
    x = sampling.random_rays(rng, n, dim)
    return _block(complement_residuals(a, x), alpha=a, x=x)


@law(
    "lemma.inclusion_exclusion",
    "inclusion–exclusion for commuting propositions",
    trials_per_dim=250,
)
def _batch_inclusion_exclusion(rng, dim, n):
    a, b = sampling.commuting_pairs(rng, n, dim)
    x = sampling.random_rays(rng, n, dim)
    return _block(_unless(commuting_subspaces(a, b), inclusion_exclusion_residuals(a, b, x)), alpha=a, beta=b, x=x)


@law(
    "lemma.conjunction_chain",
    "conjunction chain rule: p(x, a∧b) = p(x,a)·p(a(x),b) for commuting propositions",
    trials_per_dim=250,
)
def _batch_conjunction_chain(rng, dim, n):
    a, b = sampling.commuting_pairs(rng, n, dim)
    x = sampling.random_rays(rng, n, dim)
    return _block(_unless(commuting_subspaces(a, b), chain_rule_residuals(a, b, x)), alpha=a, beta=b, x=x)


@law("corollary.monotone", "similarity is monotone under containment", trials_per_dim=400)
def _batch_monotone(rng, dim, n):
    a, b = sampling.nested_pairs(rng, n, dim)
    x = sampling.random_rays(rng, n, dim)
    return _block(np.maximum(0.0, p_props(a, x) - p_props(b, x)), alpha=a, beta=b, x=x)


@law(
    "corollary.total_probability",
    "total probability decomposition over a commuting complement pair",
    trials_per_dim=300,
)
def _batch_total_probability(rng, dim, n):
    a, b = sampling.commuting_pairs(rng, n, dim)
    x = sampling.random_rays(rng, n, dim)
    residual, undefined = total_probability_residuals(a, b, x)
    return _block(_unless(~undefined, residual), alpha=a, beta=b, x=x)


@law(
    "lemma.orthomodular_equality",
    "when both conditional projections satisfy b, every term equals one",
    trials_per_dim=400,
)
def _batch_orthomodular_equality(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 1, dim - 1)
    x = sampling.random_rays(rng, n, dim)
    na = complements(a)
    ax, zero_a = project_rays(a, x)
    nax, zero_na = project_rays(na, x)
    b = orthonormalize_rows(np.stack([ax, nax], axis=1))[0].swapaxes(1, 2)
    rhs = p_props(a, x) * p_props(b, ax) + p_props(na, x) * p_props(b, nax)
    residual = np.maximum(np.abs(p_props(b, x) - 1.0), np.abs(rhs - 1.0))
    return _block(residual, zero_a | zero_na, alpha=a, beta=b, x=x)


@law(
    "lemma.local_total_probability",
    "total probability needs only commutation at the state itself",
    dims=(4, 5, 6, 7, 8),
    trials_per_dim=300,
)
def _batch_local_total_probability(rng, dim, n):
    # a and b share one frame direction and tilt in the plane of the
    # next two; x lies in the span of the shared direction and the rest
    frame = sampling.random_frames(rng, n, dim, dim)
    shared, wings, rest = frame[..., 0], frame[..., 1:3], frame[..., 3:]
    tilts = ((wings @ c[..., np.newaxis])[..., 0] for c in sampling.gaussian_stack(rng, (2, n, 2)))
    a, b = (orthonormalize_rows(np.stack([shared, t], axis=1))[0].swapaxes(1, 2) for t in tilts)
    coeff = sampling.gaussian_stack(rng, (n, dim - 2))
    x = coeff[:, :1] * shared + (rest @ coeff[:, 1:, np.newaxis])[..., 0]
    skip = (ranks(a) != 2) | (ranks(b) != 2) | commuting_subspaces(a, b)  # want a genuinely non-commuting pair
    skip |= (np.abs(coeff[:, 0]) < 1e-3) | (norms(x) < 1e-3)
    x = rays_from(np.where(skip[:, np.newaxis], shared, x))
    residual, undefined = total_probability_residuals(a, b, x)
    return _block(_unless(~undefined, residual), skip, alpha=a, beta=b, x=x)


@law(
    "theorem.interference_inequality",
    "interference inequality: p(x,b)(1−p(b(x),a))² ≤ p(b(x),a)(1−p(a(b(x)),b)) for x in a",
    tolerance=1e-12,
    dims=(3, 4, 5, 6, 7, 8),
    trials_per_dim=10_000,
)
def _batch_interference_inequality(rng, dim, n):
    # 10^4 trials per dimension, drawn in α's own coordinates: α =
    # span(e₁ … e_rₐ), x = e₁, and β one ranked Haar frame of d − 1
    # columns.  Both sides of the inequality are built from p and Lüders
    # projections, which a unitary U acting on the whole instance leaves
    # unchanged, and for a Haar U, (Uα, Ux, Uβ) has the joint law of α
    # Haar, x uniform on α's unit sphere and β independent Haar
    # (Mezzadri, Notices AMS 54, 2007): the margins have exactly the
    # law of that draw.  The trials are ordered by descending rank of
    # β, which leaves them independent (α's ranks are drawn on their
    # own) and spares β's frames the gather back in ranked_frames.
    ra = rng.integers(1, dim, size=n)
    rb = np.sort(rng.integers(1, dim, size=n))[::-1]
    qb = sampling.ranked_frames(rng, rb, dim, dim - 1)
    qa = np.zeros((n, dim, dim - 1), dtype=np.complex128)
    j = np.arange(dim - 1)
    qa[:, j, j] = j < ra[:, np.newaxis]
    x = qa[..., 0]
    margin, undefined = interference_margins(qa, qb, x)
    instance = dict(alpha=qa, alpha_rank=ra, beta=qb, beta_rank=rb, x=x, margin=margin)
    return Block(np.maximum(0.0, -margin), undefined, instance)


@law(
    "corollary.interference_membership",
    "if a(b(x)) satisfies b (x in a), then b(x) satisfies a",
    trials_per_dim=400,
)
def _batch_interference_membership(rng, dim, n):
    # Commuting pair with a forced shared direction, so the antecedent
    # (a(b(x)) inside b) is realizable rather than vacuous.
    frame = sampling.random_frames(rng, n, dim, dim)
    in_a, in_b = rng.random((2, n, dim)) < 0.5
    shared = rng.integers(0, dim, n)
    in_a[np.arange(n), shared] = in_b[np.arange(n), shared] = True
    a, b = sampling.column_subsets(frame, in_a), sampling.column_subsets(frame, in_b)
    x = sampling.member_rays(rng, a)
    bx, zero_b = project_rays(b, x)
    abx, zero_ab = project_rays(a, bx)
    # when the antecedent fails the implication is vacuous
    skip = zero_b | zero_ab | ~contained_subspaces(abx[..., np.newaxis], b)
    return _block(containment_defects(bx[..., np.newaxis], a), skip, alpha=a, beta=b, x=x)


@law(
    "counterexample.total_probability",
    "the total-probability identity FAILS on generic non-commuting pairs by its interference term (control)",
    trials_per_dim=400,
)
def _batch_total_probability_generic(rng, dim, n):
    # p(x,b) − p(x,a)·p(a(x),b) − p(x,¬a)·p(¬a(x),b) = I, the cross term
    # I = 2·Re⟨a(x), b(x − a(x))⟩ of the unnormalized projections; where
    # |I| ≤ EPS_ABS the identity holds, and the trial reads 1.0
    a, b = (sampling.random_subspaces(rng, n, dim, 1, dim - 1) for _ in range(2))
    x = sampling.random_rays(rng, n, dim)
    residual, undefined = total_probability_residuals(a, b, x)
    ax = project_rows(a, x)
    interference = 2.0 * inners(ax, project_rows(b, x - ax)).real
    gap = np.abs(interference)
    residual = np.where(gap > EPS_ABS, np.abs(residual - gap), 1.0)
    # a pair on which the identity must hold is not an applicable generic instance
    return _block(residual, ~undefined, alpha=a, beta=b, x=x, interference=interference)


@law(
    "counterexample.total_probability_2d",
    "the planar family violates total probability by exactly |1 − cos⁴ − sin⁴| (control)",
    tolerance=1e-9,
    dims=(2,),
)
def _batch_total_probability_2d(rng, dim, n):
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    x = rays_from(np.stack([np.cos(t), np.sin(t)], axis=-1))
    alpha = np.broadcast_to(np.eye(2, 1, dtype=np.complex128), (n, 2, 1))
    measured = total_probability_residuals(alpha, x[:, :, np.newaxis], x)[0]
    analytic = np.abs(1.0 - np.cos(t) ** 4 - np.sin(t) ** 4)
    return _block(np.abs(measured - analytic), angle=t, measured=measured, analytic=analytic)


@law(
    "counterexample.nonsquared_interference",
    "dropping the square breaks the interference inequality in real 3-space (control)",
    tolerance=0.5,
    dims=(3,),
    trials_per_dim=1,
)
def _batch_nonsquared_search(rng, dim, n):
    seeds = rng.integers(0, 2**63 - 1, n)
    ws = [search_nonsquared_counterexample(seed=int(s), budget=100_000) for s in seeds]
    ok = [w is not None and w.nonsquared_excess > EPS_ABS and w.squared_margin >= -1e-12 for w in ws]
    return _block(np.where(ok, 0.0, 1.0), seed=seeds, found=np.array([w is not None for w in ws]))


# ---------------------------------------------------------------------------
# morphisms: the instance records each padded map's dim_out beside it


def _samples(rng, n, count, dim):
    """``count`` random rays per trial, shape (n, count, dim)."""
    return sampling.random_rays(rng, n * count, dim).reshape(n, count, dim)


#: Sample rows that :func:`_superposition_residuals` draws and checks at
#: once: 8 maps of 200 samples, so its (maps, samples, d) stacks stay
#: small, while sample 0 of a whole block of maps is one chunk.  Drawn
#: unchunked, a ``theorem.char_morph`` block at d = 5 peaks at 2.57 MB
#: against 1.42 MB (tracemalloc), and one in-process ``verify --dims 2
#: --trials 1000`` reaches a maxrss of 43.6 MB against 42.2 MB.
SUPERPOSITION_ROWS = 1600


def _superposition_residuals(rng, m, count):
    """The :func:`superposition_residuals` (maps, count) of ``count``
    random superpositions per map, drawn and checked
    ``max(1, SUPERPOSITION_ROWS // count)`` maps at a time; (0, count)
    on zero maps."""
    step = max(1, SUPERPOSITION_ROWS // count)
    parts = []
    for i in range(0, max(len(m), 1), step):
        y, z = (_samples(rng, len(m[i : i + step]), count, m.shape[-1]) for _ in range(2))
        r = rng.uniform(0.0, 1.0, y.shape[:2])
        parts.append(superposition_residuals(m[i : i + step], y, z, r)[0])
    return np.concatenate(parts)


def _preserved(rng, m, count):
    """Whether each map preserves all of up to ``count`` random
    superpositions: sample 0 of every map first, then the other
    ``count − 1`` only for the maps that preserved it, since one broken
    sample settles a map's verdict."""
    preserved = _superposition_residuals(rng, m, 1)[:, 0] <= EPS_ABS
    if count > 1:
        preserved[preserved] = (_superposition_residuals(rng, m[preserved], count - 1) <= EPS_ABS).all(axis=1)
    return preserved


def _mixed_maps(rng, n, dim):
    """Isometries and non-isometries, one or the other per trial by a fair
    coin, each drawn only for the trials that keep it."""
    iso = rng.integers(0, 2, n) == 0
    m = np.empty((n, dim + 2, dim), dtype=np.complex128)
    dim_out = np.empty(n, dtype=np.int64)
    for rows, sampler in ((iso, isometry_maps), (~iso, non_isometry_maps)):
        m[rows], dim_out[rows] = sampler(rng, int(rows.sum()), dim)
    return m, dim_out


@law(
    "morphism.scale_invariance",
    "scaling the matrix by a nonzero complex number induces the same ray map",
    tolerance=1e-9,
    dims=(2, 3, 4, 5),
    trials_per_dim=200,
)
def _batch_morphism_scale_invariance(rng, dim, n):
    base, dim_out = isometry_maps(rng, n, dim, scale=1.0)
    s = rng.uniform(0.5, 2.0, n)
    scaled = (_unit_phases(rng, n) * s)[:, np.newaxis, np.newaxis] * base
    x = sampling.random_rays(rng, n, dim)
    scale = isometry_scales(scaled)
    residual = np.maximum(
        _ray_gaps(apply_rays(base, x), apply_rays(scaled, x)),
        np.where(np.isnan(scale), 1.0, np.abs(scale - s)),
    )
    return _block(residual, x=x, scale=s, map=base, dim_out=dim_out)


@law(
    "morphism.isometry_inner_products",
    "imported fact: a linear isometry preserves inner products",
    dims=(2, 3, 4, 5),
    trials_per_dim=400,
)
def _batch_isometry_inner_products(rng, dim, n):
    m, dim_out = isometry_maps(rng, n, dim, scale=1.0)
    u, v = sampling.gaussian_stack(rng, (2, n, dim))
    mu, mv = ((m @ w[..., np.newaxis])[..., 0] for w in (u, v))
    return _block(np.abs(inners(mu, mv) - inners(u, v)), u=u, v=v, map=m, dim_out=dim_out)


@law(
    "lemma.isometry_preserves_all",
    "isometries (up to scale) preserve similarity, phase, and superpositions",
    dims=(2, 3, 4, 5),
    trials_per_dim=60,
)
def _batch_isometry_preserves_all(rng, dim, n):
    m, dim_out = isometry_maps(rng, n, dim)
    p_res, theta_res, _ = p_theta_residuals(m, *(_samples(rng, n, 20, dim) for _ in range(3)))
    sup_res = _superposition_residuals(rng, m, 10)
    residual = np.maximum.reduce([p_res.max(axis=1), theta_res.max(axis=1), sup_res.max(axis=1)])
    broken = (sup_res > EPS_ABS).any(axis=1)
    return _block(np.where(broken, np.maximum(residual, 1.0), residual), map=m, dim_out=dim_out)


@law(
    "morphism.noniso_breaks_superpositions",
    "every sampled non-isometry exhibits a concrete broken superposition",
    tolerance=0.5,
    dims=(2, 3, 4, 5),
    trials_per_dim=60,
)
def _batch_noniso_breaks_superpositions(rng, dim, n):
    m, dim_out = non_isometry_maps(rng, n, dim)
    failed = ~np.isnan(isometry_scales(m)) | _preserved(rng, m, 200)
    return _block(failed.astype(float), map=m, dim_out=dim_out)


@law(
    "theorem.char_morph",
    "characterization: superposition preservation coincides with being an isometry",
    tolerance=0.5,
    dims=(2, 3, 4, 5),
    trials_per_dim=60,
)
def _batch_char_morph(rng, dim, n):
    m, dim_out = _mixed_maps(rng, n, dim)
    ok = char_morph_agreements(m, _preserved(rng, m, 120))
    return _block((~ok).astype(float), map=m, dim_out=dim_out)


@law(
    "morphism.injective_distinct",
    "injective maps send distinct rays to distinct rays",
    tolerance=0.5,
    dims=(2, 3, 4, 5),
    trials_per_dim=400,
)
def _batch_injective_distinct(rng, dim, n):
    m, dim_out = _mixed_maps(rng, n, dim)
    x = sampling.random_rays(rng, n, dim)
    y = sampling.random_rays(rng, n, dim)
    collided = equal_rays(apply_rays(m, x), apply_rays(m, y))
    skip = a_sims(x, y) > 1.0 - 1e-6
    return _block(collided.astype(float), skip, x=x, y=y, map=m, dim_out=dim_out)


# ---------------------------------------------------------------------------
# tensor products


@law(
    "tensor.inner_factorization",
    "inner products factor across Kronecker products",
    dims=(2, 3),
)
def _batch_tensor_inner(rng, dim, n):
    u1, v1 = sampling.gaussian_stack(rng, (2, n, 2))
    u2, v2 = sampling.gaussian_stack(rng, (2, n, dim))
    lhs = inners(kron_rows(u1, u2), kron_rows(v1, v2))
    rhs = inners(u1, v1) * inners(u2, v2)
    return _block(np.abs(lhs - rhs), u1=u1, v1=v1, u2=u2, v2=v2)


@law("tensor.p_product", "similarity multiplies across product states", dims=(2, 3))
def _batch_tensor_p_product(rng, dim, n):
    x1, y1 = (sampling.random_rays(rng, n, 2) for _ in range(2))
    x2, y2 = (sampling.random_rays(rng, n, dim) for _ in range(2))
    unit_defect = np.abs(norms(product_rays(x1, x2)) - 1.0)
    residual = np.maximum(p_product_residuals(x1, y1, x2, y2), unit_defect)
    return _block(residual, x1=x1, y1=y1, x2=x2, y2=y2)


@law(
    "tensor.theta_additive",
    "triple phases add across product states (mod 2π)",
    dims=(2, 3),
)
def _batch_tensor_theta_additive(rng, dim, n):
    x1, y1, z1, skip1 = sampling.nonorthogonal_rays(rng, n, 2, 3)
    x2, y2, z2, skip2 = sampling.nonorthogonal_rays(rng, n, dim, 3)
    residual = theta_product_residuals(x1, y1, z1, x2, y2, z2)
    return _block(residual, skip1 | skip2, x1=x1, y1=y1, z1=z1, x2=x2, y2=y2, z2=z2)
