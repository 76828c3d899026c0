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

import functools
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
    complements,
    containment_defects,
    equal_rays,
    equal_subspaces,
    joins,
    meets,
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
    reciprocity_rows,
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
    ortho_additivity_residuals,
    search_nonsquared_counterexample,
    total_probability_defined,
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
MIN_OVERLAP = sampling.MIN_OVERLAP


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


def _inside(x, q) -> np.ndarray:
    """Whether stacked rays (n, d) lie in stacked subspaces (n, d, k)."""
    return containment_defects(x[..., np.newaxis], q) <= EPS_ABS


def _commute(qa, qb) -> np.ndarray:
    return commutation_defects(qa, qb) <= EPS_ABS


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
    tolerance=0.5,
    trials_per_dim=400,
)
def _batch_complement_involution(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 0, dim)
    na = complements(a)
    rank_defect = np.abs(ranks(na) - (dim - ranks(a))) + ~equal_subspaces(complements(na), a)
    ortho_defect = orthogonality_defects(a, na) > EPS_ABS
    return _block((rank_defect + ortho_defect).astype(float), alpha=a)


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
    tolerance=0.5,
    trials_per_dim=400,
)
def _batch_commutes_complement(rng, dim, n):
    expect_commuting = rng.integers(0, 2, n) == 0
    pairs = sampling.commuting_pairs(rng, n, dim)
    generic = [sampling.random_subspaces(rng, n, dim, 1, dim - 1) for _ in range(2)]
    a, b = (np.where(expect_commuting[:, np.newaxis, np.newaxis], c, g) for c, g in zip(pairs, generic))
    verdict = _commute(a, b)
    bad = (verdict != _commute(complements(a), b)) | (expect_commuting & ~verdict)
    return _block(bad.astype(float), alpha=a, beta=b, expect_commuting=expect_commuting)


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
    residual = np.where(_commute(joins(p1, p2), joins(p1, p3)), residual, np.maximum(residual, 1.0))
    return _block(_unless(defect == 0, residual), alpha=a, beta=b, defect=defect)


@law(
    "corollary.contained_or_orthogonal_commute",
    "nested or orthogonal propositions commute",
    tolerance=0.5,
    trials_per_dim=400,
)
def _batch_contained_or_orthogonal_commute(rng, dim, n):
    a, b = sampling.nested_pairs(rng, n, dim)
    frame = sampling.random_frames(rng, n, dim, dim)
    cut = rng.integers(0, dim + 1, n)
    p, q = sampling.column_ranges(frame, 0, cut), sampling.column_ranges(frame, cut, dim)
    ok = _commute(a, b) & _commute(p, q)
    return _block((~ok).astype(float), nested_a=a, nested_b=b, p=p, q=q)


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
    x, y, skip = sampling.nonorthogonal_pairs(rng, n, dim)
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
    agree = _inside(member, a) & (_inside(x, a) == (p_props(a, x) > 1.0 - 1e-9))
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
    tolerance=0.5,
    trials_per_dim=500,
)
def _batch_p_max(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 1, dim - 1)
    x = sampling.random_rays(rng, n, dim)
    ax, zero = project_rays(a, x)
    violations = np.zeros(n, dtype=int)
    for t in (slice(i, i + 32) for i in range(0, n, 32)):  # bounds the (32, 200, d) stacks
        ys = (a[t] @ sampling.gaussian_stack(rng, (len(a[t]), dim, 200))).swapaxes(1, 2)
        ys /= norms(ys)[..., np.newaxis]  # 200 unit vectors inside alpha
        same = a_sims(ys, ax[t, np.newaxis]) > 1.0 - 1e-9
        margins = p_sims(x[t], ax[t])[:, np.newaxis] - p_sims(ys, x[t, np.newaxis])
        violations[t] = np.count_nonzero(~same & (margins <= 1e-12), axis=1)
    return _block(violations.astype(float), zero, alpha=a, x=x, violations=violations)


@law("lemma.p_bounds", "0 ≤ p(x,a) ≤ 1 always")
def _batch_p_bounds(rng, dim, n):
    a = sampling.random_subspaces(rng, n, dim, 0, dim)
    x = sampling.random_rays(rng, n, dim)
    p = p_props(a, x)
    return _block(np.maximum(0.0, np.maximum(-p, p - 1.0)), alpha=a, x=x)


@law(
    "principle.reciprocity",
    "reciprocity: equal projections on ¬x imply equal projections on ¬y",
    tolerance=0.5,
    trials_per_dim=400,
)
def _batch_reciprocity(rng, dim, n):
    constructed = (rng.integers(0, 2, n) == 0) | (dim < 3)
    x, y, z, skip = sampling.coplanar_triples(rng, n, dim)
    if dim >= 3:
        classical = sampling.classical_ray_stacks(rng, n, dim, 3)
        x, y, z = (np.where(constructed[:, np.newaxis], s, c) for s, c in zip((x, y, z), classical))
    failed = ~reciprocity_rows(x, y, z)
    return _block(failed.astype(float), skip & constructed, x=x, y=y, z=z)


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
    x, y, z, skip = sampling.nonorthogonal_triples(rng, n, dim)
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
    x, y, z, skip = sampling.nonorthogonal_triples(rng, n, dim)
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
    x, y, z, w = rays = [sampling.random_rays(rng, n, dim) for _ in range(4)]
    skip = np.zeros(n, dtype=bool)
    for u, v in itertools.combinations(rays, 2):
        skip |= a_sims(u, v) <= MIN_OVERLAP
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
    overlap = np.minimum.reduce([a_sims(x, y), a_sims(y, z), a_sims(z, x)])
    skip |= equal_rays(x, y) | equal_rays(y, z) | equal_rays(z, x) | (overlap <= MIN_OVERLAP)
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
    x, y, z, skip = sampling.nonorthogonal_triples(rng, n, dim, real=True)
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
    y, z, skip = sampling.nonorthogonal_pairs(rng, n, dim)
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
    skip |= np.minimum(a_sims(x, y), a_sims(x, z)) <= MIN_OVERLAP
    return _block(circular_distances(triple_phases(x, y, z), 0.0), skip, y=y, z=z, r=r)


@law(
    "lemma.p_basis",
    "closed-form superposition probability, with its interference term, matches the constructed ray",
    tolerance=1e-9,
)
def _batch_p_basis(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    x = sampling.random_rays(rng, n, dim)
    skip |= np.minimum(a_sims(x, y), a_sims(x, z)) <= MIN_OVERLAP
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
    y, z, skip = sampling.nonorthogonal_pairs(rng, n, dim)
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
    skip |= np.minimum.reduce([a_sims(s, x1), a_sims(x1, x2), a_sims(x2, s)]) <= MIN_OVERLAP
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
    residual = ortho_additivity_residuals(a, b, x)
    return _block(_unless(orthogonality_defects(a, b) <= EPS_ABS, residual), alpha=a, beta=b, x=x)


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
    total = sum(p_props(part, x) for part in parts)
    return _block(np.abs(p_props(functools.reduce(joins, parts), x) - total), x=x, k=k)


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
    return _block(_unless(_commute(a, b), inclusion_exclusion_residuals(a, b, x)), alpha=a, beta=b, x=x)


@law(
    "lemma.conjunction_chain",
    "conjunction chain rule: p(x, a∧b) = p(x,a)·p(a(x),b) for commuting propositions",
    trials_per_dim=250,
)
def _batch_conjunction_chain(rng, dim, n):
    a, b = sampling.commuting_pairs(rng, n, dim)
    x = sampling.random_rays(rng, n, dim)
    return _block(_unless(_commute(a, b), chain_rule_residuals(a, b, x)), alpha=a, beta=b, x=x)


@law("corollary.monotone", "similarity is monotone under containment", trials_per_dim=400)
def _batch_monotone(rng, dim, n):
    a, b = sampling.nested_pairs(rng, n, dim)
    x = sampling.random_rays(rng, n, dim)
    return _block(np.maximum(0.0, p_props(a, x) - p_props(b, x)), alpha=a, beta=b, x=x)


def _total_probability(a, b, x) -> np.ndarray:
    """The total probability residuals, infinite where it does not apply."""
    residual = total_probability_residuals(a, complements(a), b, x)
    return _unless(total_probability_defined(a, b, x), residual)


@law(
    "corollary.total_probability",
    "total probability decomposition over a commuting complement pair",
    trials_per_dim=300,
)
def _batch_total_probability(rng, dim, n):
    a, b = sampling.commuting_pairs(rng, n, dim)
    x = sampling.random_rays(rng, n, dim)
    return _block(_total_probability(a, b, x), alpha=a, beta=b, x=x)


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
    skip = (ranks(a) != 2) | (ranks(b) != 2) | _commute(a, b)  # want a genuinely non-commuting pair
    skip |= (np.abs(coeff[:, 0]) < 1e-3) | (norms(x) < 1e-3)
    x = rays_from(np.where(skip[:, np.newaxis], shared, x))
    return _block(_total_probability(a, b, x), skip, alpha=a, beta=b, x=x)


@law(
    "theorem.interference_inequality",
    "interference inequality: p(x,b)(1−p(b(x),a))² ≤ p(b(x),a)(1−p(a(b(x)),b)) for x in a",
    tolerance=1e-12,
    dims=(3, 4, 5, 6, 7, 8),
    trials_per_dim=10_000,
)
def _batch_interference_inequality(rng, dim, n):
    # 10^4 trials per dimension: one frame of d − 1 columns per
    # proposition, its columns beyond the rank zeroed.
    ra = rng.integers(1, dim, size=n)
    rb = rng.integers(1, dim, size=n)
    cols = np.arange(dim - 1)
    qa = sampling.random_frames(rng, n, dim, dim - 1) * (cols < ra[:, np.newaxis])[:, np.newaxis, :]
    qb = sampling.random_frames(rng, n, dim, dim - 1) * (cols < rb[:, np.newaxis])[:, np.newaxis, :]
    x = (qa @ sampling.gaussian_stack(rng, (n, dim - 1))[..., np.newaxis])[..., 0]
    x /= norms(x)[:, np.newaxis]
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
    skip = zero_b | zero_ab | ~_inside(abx, b)  # when the antecedent fails the implication is vacuous
    return _block(containment_defects(bx[..., np.newaxis], a), skip, alpha=a, beta=b, x=x)


def _aggregate_must_fail(residuals):
    if not residuals:
        return False, 1.0
    fraction = sum(1 for r in residuals if r > 1e-6) / len(residuals)
    return fraction > 0.9, 1.0 - fraction


@law(
    "counterexample.total_probability",
    "the total-probability identity FAILS on generic non-commuting pairs (control)",
    tolerance=0.1,
    trials_per_dim=400,
    aggregate=_aggregate_must_fail,
)
def _batch_total_probability_generic(rng, dim, n):
    a, b = (sampling.random_subspaces(rng, n, dim, 1, dim - 1) for _ in range(2))
    x = sampling.random_rays(rng, n, dim)
    residual = total_probability_residuals(a, complements(a), b, x)
    # a commuting pair is not an applicable generic instance
    return _block(residual, _commute(a, b), alpha=a, beta=b, x=x)


@law(
    "counterexample.total_probability_2d",
    "the planar family violates total probability by exactly |1 − cos⁴ − sin⁴| (control)",
    tolerance=1e-9,
    dims=(2,),
)
def _batch_total_probability_2d(rng, dim, n):
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    x = rays_from(np.stack([np.cos(t), np.sin(t)], axis=-1))
    eye = np.eye(2, dtype=np.complex128)
    alpha, not_alpha = (np.broadcast_to(eye[:, k : k + 1], (n, 2, 1)) for k in range(2))
    measured = total_probability_residuals(alpha, not_alpha, x[:, :, np.newaxis], x)
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


def _on_superpositions(kernel, rng, m, count):
    """``kernel(maps, y, z, r)`` on ``count`` random superpositions per map,
    drawn and checked 8 maps at a time to keep the sample stacks small."""
    parts = []
    for i in range(0, len(m), 8):
        y, z = (_samples(rng, len(m[i : i + 8]), count, m.shape[-1]) for _ in range(2))
        parts.append(kernel(m[i : i + 8], y, z, rng.uniform(0.0, 1.0, y.shape[:2])))
    return np.concatenate(parts)


def _mixed_maps(rng, n, dim):
    """Isometries and non-isometries, one or the other per trial by a fair coin."""
    iso = rng.integers(0, 2, n) == 0
    (m1, out1), (m2, out2) = isometry_maps(rng, n, dim), non_isometry_maps(rng, n, dim)
    return np.where(iso[:, np.newaxis, np.newaxis], m1, m2), np.where(iso, out1, out2)


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
    sup_res = _on_superpositions(lambda *s: superposition_residuals(*s)[0], rng, m, 10)
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
    residual = _on_superpositions(lambda *s: superposition_residuals(*s)[0], rng, m, 200)
    failed = ~np.isnan(isometry_scales(m)) | (residual <= EPS_ABS).all(axis=1)
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
    ok = _on_superpositions(char_morph_agreements, rng, m, 120)
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
    x1, y1, z1, skip1 = sampling.nonorthogonal_triples(rng, n, 2)
    x2, y2, z2, skip2 = sampling.nonorthogonal_triples(rng, n, dim)
    residual = theta_product_residuals(x1, y1, z1, x2, y2, z2)
    return _block(residual, skip1 | skip2, x1=x1, y1=y1, z1=z1, x2=x2, y2=y2, z2=z2)
