"""The law registry: one named, checkable law per verified statement.

Each law is a residual checker over seeded random instances; see
:mod:`raygeo.lawcheck` for the execution model.  A ``_batch_*`` law
samples a block of trials as stacks and computes their residuals with
the stacked kernels of the library (the functions whose single-instance
forms users call); a ``_check_*`` law runs one trial at a time.  Unless
noted, the
residual for a ray-equality claim is ``1 − overlap`` of the two rays
(zero exactly at equality), and the residual for a numeric identity is
the absolute deviation.  Angle identities compare by circular distance
with tolerance 1e-8 rad; everything else defaults to 1e-10.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import sampling
from .errors import OrthogonalComponentsError
from .lawcheck import Block, Law, register
from .linalg import (
    EPS_ABS,
    circular_distances,
    inner,
    inners,
    norm,
    norms,
    orthonormalize,
    wrap_angles,
)
from .rays import (
    ZERO,
    Subspace,
    a_sims,
    commutes,
    containment_defect,
    equal_rays,
    is_member,
    is_orthogonal,
    join,
    meet,
    ortho_complement,
    project_ray,
    project_vec,
    ray_from,
    rays_equal,
    rays_from,
    subspaces_equal,
)
from .geometry import (
    a_sim,
    complement_projections,
    coplanar_rows,
    p_prop,
    p_sim,
    p_sims,
    prime_triples,
    reciprocity_rows,
    theta,
    triple_phases,
)
from .superposition import (
    SuperpositionSpec,
    cos_theta_prime,
    p_component_closed_forms,
    p_of_superposition_closed_forms,
    superpose,
    superposed_rays,
)
from .probability import (
    check_chain_rule,
    check_complement,
    check_inclusion_exclusion,
    check_ortho_additivity,
    check_total_probability,
    decompose_commuting,
    interference_margins,
    search_nonsquared_counterexample,
    total_probability_residual,
    total_probability_residuals,
)
from .morphisms import (
    apply_ray,
    check_char_morph,
    check_preserves_p_theta,
    isometry_scale,
    preserves_superpositions,
)
from .tensor import kron_rows, p_product_residuals, product_rays, theta_product_residuals
from .serialize import to_jsonable, witness_to_json

ANGLE_TOL = 1e-8
MIN_OVERLAP = sampling.MIN_OVERLAP


def _note(record, **values):
    if record is not None:
        for key, value in values.items():
            record[key] = to_jsonable(value)


def _block(residuals, skipped=None, **instance) -> Block:
    """The :class:`Block` of a batched law; no trial skipped by default."""
    if skipped is None:
        skipped = np.zeros(len(residuals), dtype=bool)
    return Block(residuals, skipped, instance)


def _flat(skip, *stacks):
    """The stacks with the rows of skipped trials replaced by the first
    basis vector, so that the guarded kernels (phases, primed triples)
    see a legal instance there; those rows' residuals are ignored."""
    return tuple(np.where(skip[:, np.newaxis], np.eye(1, s.shape[-1]), s) for s in stacks)


def _unit_phase(rng) -> complex:
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return complex(math.cos(angle), math.sin(angle))


def _unit_phases(rng, n) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.cos(angle) + 1j * np.sin(angle)


def _ray_gap(x, y) -> float:
    return 1.0 - a_sim(x, y)


def _ray_gaps(u, v) -> np.ndarray:
    return 1.0 - a_sims(u, v)


# ---------------------------------------------------------------------------
# linalg substrate


def _batch_inner_linearity(rng, dim, n):
    u, v, w = sampling.gaussian_stack(rng, (3, n, dim))
    a, b = sampling.gaussian_stack(rng, (2, n))
    lhs = inners(a[:, np.newaxis] * u + b[:, np.newaxis] * v, w)
    rhs = a * inners(u, w) + b * inners(v, w)
    scale = (np.abs(a) * norms(u) + np.abs(b) * norms(v)) * norms(w) + 1.0
    sym = np.abs(inners(v, u) - np.conj(inners(u, v)))
    return _block(np.maximum(np.abs(lhs - rhs), sym) / scale, u=u, v=v, w=w, a=a, b=b)


def _batch_cauchy_schwarz(rng, dim, n):
    u, v = sampling.gaussian_stack(rng, (2, n, dim))
    return _block(np.maximum(0.0, np.abs(inners(u, v)) - norms(u) * norms(v)), u=u, v=v)


def _check_orthonormalize_contract(rng, dim, record=None):
    k = int(rng.integers(1, dim + 1))
    independent = [sampling.gaussian_vector(rng, dim) for _ in range(k)]
    if np.linalg.matrix_rank(np.array(independent), tol=1e-8) < k:
        return None
    redundant = []
    for _ in range(int(rng.integers(0, 3))):
        coeff = sampling.gaussian_vector(rng, k)
        redundant.append(sum(c * v for c, v in zip(coeff, independent)))
    basis = orthonormalize(independent + redundant)
    if len(basis) != k:
        _note(record, expected_rank=k, got=len(basis))
        return 1.0
    stack = np.array(basis)
    gram_dev = float(np.max(np.abs(stack @ stack.conj().T - np.eye(k))))
    again = orthonormalize(basis)
    drift = max(
        float(np.linalg.norm(b - a)) for a, b in zip(basis, again)
    ) if basis else 0.0
    _note(record, expected_rank=k)
    return max(gram_dev, drift)


# ---------------------------------------------------------------------------
# rays and subspaces


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


def _check_projector_laws(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    p = a.projector()
    _note(record, alpha=a)
    return float(max(np.max(np.abs(p @ p - p)), np.max(np.abs(p - p.conj().T))))


def _check_projection_residual(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim)
    u = sampling.gaussian_vector(rng, dim)
    resid = u - project_vec(a, u)
    _note(record, alpha=a, u=u)
    if a.rank == 0:
        return float(np.linalg.norm(project_vec(a, u)))
    return float(np.max(np.abs(a.basis.conj() @ resid)))


def _check_complement_involution(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    na = ortho_complement(a)
    nna = ortho_complement(na)
    rank_defect = abs(na.rank - (dim - a.rank)) + (0 if subspaces_equal(nna, a) else 1)
    ortho_defect = 0.0 if is_orthogonal(a, na) else 1.0
    _note(record, alpha=a)
    return float(rank_defect + ortho_defect)


def _check_orthomodular_identity(rng, dim, record=None):
    a, b = sampling.nested_pair(rng, dim)
    rebuilt = join(a, meet(ortho_complement(a), b))
    _note(record, alpha=a, beta=b)
    if rebuilt.rank != b.rank:
        return 1.0
    return max(containment_defect(rebuilt, b), containment_defect(b, rebuilt))


def _check_commutes_complement(rng, dim, record=None):
    if int(rng.integers(0, 2)) == 0:
        a, b = sampling.commuting_pair(rng, dim)
        expect_commuting = True
    else:
        a = sampling.random_subspace(rng, dim)
        b = sampling.random_subspace(rng, dim)
        expect_commuting = None
    verdict = commutes(a, b)
    complement_verdict = commutes(ortho_complement(a), b)
    _note(record, alpha=a, beta=b)
    bad = verdict != complement_verdict
    if expect_commuting is True and not verdict:
        bad = True
    return 1.0 if bad else 0.0


def _check_commuting_decomposition(rng, dim, record=None):
    a, b = sampling.commuting_pair(rng, dim)
    parts = decompose_commuting(a, b)  # raises on any verification defect
    residual = max(
        containment_defect(parts.gamma1, a),
        containment_defect(parts.gamma1, b),
        containment_defect(parts.gamma2, a),
        containment_defect(parts.gamma3, b),
    )
    # converse: random orthogonal parts always generate a commuting pair
    frame = sampling.random_frame(rng, dim)
    cuts = sorted(rng.choice(dim + 1, size=2, replace=True))
    g1 = Subspace.from_orthonormal(frame[: cuts[0]], dim)
    g2 = Subspace.from_orthonormal(frame[cuts[0] : cuts[1]], dim)
    g3 = Subspace.from_orthonormal(frame[cuts[1] :], dim)
    if not commutes(join(g1, g2), join(g1, g3)):
        residual = max(residual, 1.0)
    _note(record, alpha=a, beta=b)
    return residual


def _check_contained_or_orthogonal_commute(rng, dim, record=None):
    a, b = sampling.nested_pair(rng, dim)
    ok_nested = commutes(a, b)
    frame = sampling.random_frame(rng, dim)
    cut = int(rng.integers(0, dim + 1))
    p = Subspace.from_orthonormal(frame[:cut], dim)
    q = Subspace.from_orthonormal(frame[cut:], dim)
    ok_orth = commutes(p, q)
    _note(record, nested_a=a, nested_b=b)
    return 0.0 if (ok_nested and ok_orth) else 1.0


def _batch_classical_no_disturbance(rng, dim, n):
    x, y = sampling.classical_ray_stacks(rng, n, dim, 2)
    py, zero = complement_projections(x, y)
    return _block(np.where(zero, 1.0, _ray_gaps(py, y)), x=x, y=y)


# ---------------------------------------------------------------------------
# similarity and phase geometry


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


def _check_satisfaction(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim)
    member = sampling.member_ray(rng, a)
    residual = abs(p_prop(member, a) - 1.0)
    if not is_member(member, a):
        residual = max(residual, 1.0)
    x = sampling.random_ray(rng, dim)
    agree = is_member(x, a) == (p_prop(x, a) > 1.0 - 1e-9)
    _note(record, alpha=a, member=member, x=x)
    return residual if agree else max(residual, 1.0)


def _check_born_rule(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    x = sampling.random_ray(rng, dim)
    u = x.rep * (_unit_phase(rng) * float(rng.uniform(0.1, 10.0)))
    born = norm(project_vec(a, u)) ** 2 / norm(u) ** 2
    _note(record, alpha=a, x=x)
    return abs(p_prop(x, a) - born)


def _check_p_chain(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim)
    x = sampling.random_ray(rng, dim)
    ax = project_ray(a, x)
    if ax is ZERO:
        return None
    y = sampling.member_ray(rng, a)
    _note(record, alpha=a, x=x, y=y)
    return abs(p_sim(x, y) - p_prop(x, a) * p_sim(ax, y))


def _check_p_max(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim)
    x = sampling.random_ray(rng, dim)
    ax = project_ray(a, x)
    if ax is ZERO:
        return None
    p_best = p_sim(x, ax)
    coeff = rng.standard_normal((200, a.rank)) + 1j * rng.standard_normal((200, a.rank))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    ys = coeff @ a.basis  # 200 unit vectors inside alpha
    p_vals = np.abs(ys.conj() @ x.rep) ** 2
    same = np.abs(ys.conj() @ ax.rep) > 1.0 - 1e-9
    margins = p_best - p_vals
    violations = int(np.sum(~same & (margins <= 1e-12)))
    _note(record, alpha=a, x=x, violations=violations)
    return float(violations)


def _check_p_bounds(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    x = sampling.random_ray(rng, dim)
    p = p_prop(x, a)
    _note(record, alpha=a, x=x)
    return max(0.0, -p, p - 1.0)


def _batch_reciprocity(rng, dim, n):
    constructed = (rng.integers(0, 2, n) == 0) | (dim < 3)
    x, y, z, skip = sampling.coplanar_triples(rng, n, dim)
    if dim >= 3:
        classical = sampling.classical_ray_stacks(rng, n, dim, 3)
        x, y, z = (np.where(constructed[:, np.newaxis], s, c) for s, c in zip((x, y, z), classical))
    failed = ~reciprocity_rows(x, y, z)
    return _block(failed.astype(float), skip & constructed, x=x, y=y, z=z)


def _batch_coplanarity_permutations(rng, dim, n):
    constructed = rng.integers(0, 2, n) == 0
    planar = sampling.coplanar_triples(rng, n, dim)
    free = [sampling.random_rays(rng, n, dim) for _ in range(3)]
    x, y, z = (np.where(constructed[:, np.newaxis], c, f) for c, f in zip(planar[:3], free))
    verdicts = np.stack([coplanar_rows(*perm) for perm in itertools.permutations((x, y, z))])
    agree = verdicts.all(axis=0)
    bad = (verdicts.any(axis=0) != agree) | (constructed & ~agree)
    return _block(bad.astype(float), planar[3] & constructed, x=x, y=y, z=z, constructed=constructed)


def _batch_theta_representative_independence(rng, dim, n):
    x, y, z, skip = sampling.nonorthogonal_triples(rng, n, dim)
    x, y, z = _flat(skip, x, y, z)
    reference = triple_phases(x, y, z)
    scrambled = triple_phases(
        x * _unit_phases(rng, n)[:, np.newaxis],
        y * (_unit_phases(rng, n) * rng.uniform(0.1, 10.0, n))[:, np.newaxis],
        z * _unit_phases(rng, n)[:, np.newaxis],
    )
    return _block(circular_distances(reference, scrambled), skip, x=x, y=y, z=z)


def _batch_theta_cyclic(rng, dim, n):
    x, y, z, skip = sampling.nonorthogonal_triples(rng, n, dim)
    x, y, z = _flat(skip, x, y, z)
    t = triple_phases(x, y, z)
    residual = np.maximum(
        circular_distances(triple_phases(y, z, x), t),
        circular_distances(triple_phases(x, z, y), -t),
    )
    return _block(residual, skip, x=x, y=y, z=z)


def _batch_theta_cocycle(rng, dim, n):
    rays = [sampling.random_rays(rng, n, dim) for _ in range(4)]
    skip = np.zeros(n, dtype=bool)
    for u, v in itertools.combinations(rays, 2):
        skip |= a_sims(u, v) <= MIN_OVERLAP
    x, y, z, w = _flat(skip, *rays)
    lhs = triple_phases(x, y, w)
    rhs = triple_phases(x, y, z) + triple_phases(x, z, w) + triple_phases(z, y, w)
    return _block(circular_distances(lhs, wrap_angles(rhs)), skip, x=x, y=y, z=z, w=w)


def _batch_theta_prime(rng, dim, n):
    x, y, z, skip = sampling.coplanar_triples(rng, n, dim)
    overlap = np.minimum.reduce([a_sims(x, y), a_sims(y, z), a_sims(z, x)])
    skip |= equal_rays(x, y) | equal_rays(y, z) | equal_rays(z, x) | (overlap <= MIN_OVERLAP)
    x, y, z = _flat(skip, x, y, z)
    x1, y1, z1, defect = prime_triples(x, y, z)
    primed = triple_phases(*_flat(defect != 0, x1, y1, z1))
    residual = np.where(defect != 0, math.inf, circular_distances(primed, -triple_phases(x, y, z)))
    return _block(residual, skip, x=x, y=y, z=z, defect=defect)


def _batch_theta_euclidean(rng, dim, n):
    x, y, z, skip = sampling.nonorthogonal_triples(rng, n, dim, real=True)
    x, y, z = _flat(skip, x, y, z)
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


def _check_superposition_domain(rng, dim, record=None):
    x, y = sampling.classical_rays(rng, dim, 2)
    r = float(rng.uniform(0.0, 1.0))
    try:
        SuperpositionSpec(y=x, z=y, r=r)
        _note(record, x=x, y=y, r=r)
        return 1.0
    except OrthogonalComponentsError:
        pass
    trivial = superpose(SuperpositionSpec(y=x, z=x, r=r))
    _note(record, x=x, y=y, r=r)
    return _ray_gap(trivial, x)


def _batch_triviality(rng, dim, n):
    y = sampling.random_rays(rng, n, dim)
    r = rng.uniform(0.0, 1.0, n)
    return _block(_ray_gaps(superposed_rays(y, y, r), y), y=y, r=r)


def _batch_superpose_identity_commutative(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    residual = np.maximum.reduce([
        _ray_gaps(superposed_rays(y, z, np.ones(n)), y),
        _ray_gaps(superposed_rays(y, z, np.zeros(n)), z),
        _ray_gaps(superposed_rays(y, z, r), superposed_rays(z, y, 1.0 - r)),
    ])
    return _block(residual, skip, y=y, z=z, r=r)


def _batch_superposition_coplanarity(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    failed = ~coplanar_rows(superposed_rays(y, z, r), y, z)
    return _block(failed.astype(float), skip, y=y, z=z, r=r)


def _batch_superposition_theta_zero(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    # near r = 0 or 1 the superposition collapses onto a component
    skip |= equal_rays(y, z) | (r < 1e-6) | (r > 1.0 - 1e-6)
    x = superposed_rays(y, z, r)
    skip |= np.minimum(a_sims(x, y), a_sims(x, z)) <= MIN_OVERLAP
    x, y, z = _flat(skip, x, y, z)
    return _block(circular_distances(triple_phases(x, y, z), 0.0), skip, y=y, z=z, r=r)


def _batch_p_basis(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    x = sampling.random_rays(rng, n, dim)
    skip |= np.minimum(a_sims(x, y), a_sims(x, z)) <= MIN_OVERLAP
    x, y, z = _flat(skip, x, y, z)
    direct = p_sims(superposed_rays(y, z, r), x)
    closed = p_of_superposition_closed_forms(r, y, z, x)
    return _block(np.abs(closed - direct), skip, y=y, z=z, r=r, x=x, direct=direct, closed=closed)


def _batch_prop1_component_form(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    direct = p_sims(superposed_rays(y, z, r), y)
    closed = p_component_closed_forms(r, y, z)
    return _block(np.abs(closed - direct), skip, y=y, z=z, r=r)


def _batch_prop1_dominance(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    p_yz = p_sims(y, z)
    skip |= (r < 1e-6) | (1.0 - p_yz < 1e-6)  # the margin shrinks to zero at r = 0 and at y = z
    margin = p_sims(superposed_rays(y, z, r), y) - p_yz
    return _block(np.maximum(0.0, EPS_ABS - margin), skip, y=y, z=z, r=r, margin=margin)


def _batch_dominance_boundary(rng, dim, n):
    y, z, skip = sampling.nonorthogonal_pairs(rng, n, dim)
    x0 = superposed_rays(y, z, np.zeros(n))
    return _block(np.abs(p_sims(x0, y) - p_sims(y, z)), skip, y=y, z=z)


def _plane_ray(rng, b1, b2):
    c = sampling.gaussian_vector(rng, 2)
    return ray_from(c[0] * b1 + c[1] * b2), c


def _check_cos_theta_prime(rng, dim, record=None):
    frame = sampling.random_frame(rng, dim)
    b1, b2 = frame[0], frame[1]
    for _ in range(24):
        x, cx = _plane_ray(rng, b1, b2)
        y, _ = _plane_ray(rng, b1, b2)
        z, _ = _plane_ray(rng, b1, b2)
        nx = np.linalg.norm(cx)
        xp = ray_from(-np.conj(cx[1] / nx) * b1 + np.conj(cx[0] / nx) * b2)
        overlaps = [a_sim(x, y), a_sim(x, z), a_sim(y, z), a_sim(xp, y), a_sim(xp, z)]
        if min(overlaps) <= 1e-4:
            continue
        if p_sim(x, y) > 1.0 - 1e-6 or p_sim(x, z) > 1.0 - 1e-6:
            continue
        predicted = cos_theta_prime(x, xp, y, z)
        observed = math.cos(theta(xp, y, z))
        _note(record, x=x, x_perp=xp, y=y, z=z)
        return abs(predicted - observed)
    return None


def _batch_superposition_theta_consistency(rng, dim, n):
    y, z, skip, r = _pairs_and_weights(rng, dim, n)
    x1 = sampling.random_rays(rng, n, dim)
    x2 = sampling.random_rays(rng, n, dim)
    s = superposed_rays(y, z, r)
    skip |= np.minimum.reduce([a_sims(s, x1), a_sims(x1, x2), a_sims(x2, s)]) <= MIN_OVERLAP
    s, x1, x2 = _flat(skip, s, x1, x2)
    reference = triple_phases(s, x1, x2)
    scrambled = triple_phases(*(v * _unit_phases(rng, n)[:, np.newaxis] for v in (s, x1, x2)))
    return _block(circular_distances(reference, scrambled), skip, y=y, z=z, r=r, x1=x1, x2=x2)


# ---------------------------------------------------------------------------
# probability calculus


def _check_ortho_additivity_law(rng, dim, record=None):
    frame = sampling.random_frame(rng, dim)
    cut = int(rng.integers(0, dim + 1))
    keep = int(rng.integers(cut, dim + 1))
    a = Subspace.from_orthonormal(frame[:cut], dim)
    b = Subspace.from_orthonormal(frame[cut:keep], dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return check_ortho_additivity(x, a, b)


def _check_ortho_additivity_family(rng, dim, record=None):
    k = int(rng.integers(2, min(4, dim) + 1))
    frame = sampling.random_frame(rng, dim)
    cuts = sorted(rng.choice(dim + 1, size=k - 1, replace=True))
    bounds = [0, *cuts, dim]
    parts = [
        Subspace.from_orthonormal(frame[bounds[i] : bounds[i + 1]], dim)
        for i in range(k)
    ]
    x = sampling.random_ray(rng, dim)
    joined = parts[0]
    for part in parts[1:]:
        joined = join(joined, part)
    total = sum(p_prop(x, part) for part in parts)
    _note(record, x=x, k=k)
    return abs(p_prop(x, joined) - total)


def _check_complement_sum(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, x=x)
    return check_complement(x, a)


def _check_inclusion_exclusion_law(rng, dim, record=None):
    a, b = sampling.commuting_pair(rng, dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return check_inclusion_exclusion(x, a, b)


def _check_conjunction_chain(rng, dim, record=None):
    a, b = sampling.commuting_pair(rng, dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return check_chain_rule(x, a, b)


def _check_monotone_law(rng, dim, record=None):
    a, b = sampling.nested_pair(rng, dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return max(0.0, p_prop(x, a) - p_prop(x, b))


def _check_total_probability_law(rng, dim, record=None):
    a, b = sampling.commuting_pair(rng, dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return check_total_probability(x, a, b)


def _check_orthomodular_equality(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim)
    x = sampling.random_ray(rng, dim)
    ax = project_ray(a, x)
    nax = project_ray(ortho_complement(a), x)
    if ax is ZERO or nax is ZERO:
        return None
    b = Subspace.from_vectors([ax.rep, nax.rep], dim=dim)
    residual = abs(p_prop(x, b) - 1.0)
    rhs = p_prop(x, a) * p_prop(ax, b) + p_prop(x, ortho_complement(a)) * p_prop(nax, b)
    _note(record, alpha=a, beta=b, x=x)
    return max(residual, abs(rhs - 1.0))


def _check_local_total_probability(rng, dim, record=None):
    frame = sampling.random_frame(rng, dim)
    shared = frame[0]
    wing1, wing2 = frame[1], frame[2]
    rest = frame[3:]
    c1 = sampling.gaussian_vector(rng, 2)
    c2 = sampling.gaussian_vector(rng, 2)
    a_vec = c1[0] * wing1 + c1[1] * wing2
    b_vec = c2[0] * wing1 + c2[1] * wing2
    a = Subspace.from_vectors([shared, a_vec], dim=dim)
    b = Subspace.from_vectors([shared, b_vec], dim=dim)
    if a.rank != 2 or b.rank != 2 or commutes(a, b):
        return None  # want a genuinely non-commuting pair
    coeff = sampling.gaussian_vector(rng, len(rest) + 1)
    x_vec = coeff[0] * shared + sum(c * r for c, r in zip(coeff[1:], rest))
    if abs(coeff[0]) < 1e-3 or float(np.linalg.norm(x_vec)) < 1e-3:
        return None
    x = ray_from(x_vec)
    _note(record, alpha=a, beta=b, x=x)
    return check_total_probability(x, a, b)


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


def _check_interference_membership(rng, dim, record=None):
    # Commuting pair with a forced shared direction, so the antecedent
    # (a(b(x)) inside b) is realizable rather than vacuous.
    frame = sampling.random_frame(rng, dim)
    in_a = rng.random(dim) < 0.5
    in_b = rng.random(dim) < 0.5
    shared = int(rng.integers(0, dim))
    in_a[shared] = True
    in_b[shared] = True
    a = Subspace.from_orthonormal(frame[in_a], dim)
    b = Subspace.from_orthonormal(frame[in_b], dim)
    x = sampling.member_ray(rng, a)
    bx = project_ray(b, x)
    if bx is ZERO:
        return None
    abx = project_ray(a, bx)
    if abx is ZERO:
        return None
    if not is_member(abx, b):
        return None  # antecedent fails; implication vacuous
    _note(record, alpha=a, beta=b, x=x)
    return float(np.linalg.norm(project_vec(a, bx.rep) - bx.rep))


def _check_total_probability_generic(rng, dim, record=None):
    a = sampling.random_subspace(rng, dim)
    b = sampling.random_subspace(rng, dim)
    if commutes(a, b):
        return None  # not an applicable generic (non-commuting) instance
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return total_probability_residual(x, a, b)


def _aggregate_must_fail(residuals):
    if not residuals:
        return False, 1.0
    fraction = sum(1 for r in residuals if r > 1e-6) / len(residuals)
    return fraction > 0.9, 1.0 - fraction


def _batch_total_probability_2d(rng, dim, n):
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    x = rays_from(np.stack([np.cos(t), np.sin(t)], axis=-1))
    eye = np.eye(2, dtype=np.complex128)
    alpha, not_alpha = (np.broadcast_to(eye[:, k : k + 1], (n, 2, 1)) for k in range(2))
    measured = total_probability_residuals(alpha, not_alpha, x[:, :, np.newaxis], x)
    analytic = np.abs(1.0 - np.cos(t) ** 4 - np.sin(t) ** 4)
    return _block(np.abs(measured - analytic), angle=t, measured=measured, analytic=analytic)


def _check_nonsquared_search(rng, dim, record=None):
    seed = int(rng.integers(0, 2**63 - 1))
    witness = search_nonsquared_counterexample(seed=seed, budget=100_000)
    if witness is None:
        _note(record, seed=seed, found=False)
        return 1.0
    ok = witness.nonsquared_excess > EPS_ABS and witness.squared_margin >= -1e-12
    if record is not None:
        record["witness"] = witness_to_json(witness)
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# morphisms


def _check_morphism_scale_invariance(rng, dim, record=None):
    base = sampling.isometry_map(rng, dim, scale=1.0)
    s = float(rng.uniform(0.5, 2.0))
    c = _unit_phase(rng) * s
    scaled = type(base).from_matrix(c * base.underlying.matrix)
    x = sampling.random_ray(rng, dim)
    residual = _ray_gap(apply_ray(base, x), apply_ray(scaled, x))
    scale = isometry_scale(scaled)
    residual = max(residual, 1.0 if scale is None else abs(scale - s))
    _note(record, x=x, scale=s)
    return residual


def _check_isometry_inner_products(rng, dim, record=None):
    f = sampling.isometry_map(rng, dim, scale=1.0)
    u = sampling.gaussian_vector(rng, dim)
    v = sampling.gaussian_vector(rng, dim)
    m = f.underlying.matrix
    _note(record, u=u, v=v)
    return abs(inner(m @ u, m @ v) - inner(u, v))


def _check_isometry_preserves_all(rng, dim, record=None):
    f = sampling.isometry_map(rng, dim)
    quantities = check_preserves_p_theta(f, trials=20, seed=int(rng.integers(0, 2**32)))
    report = preserves_superpositions(f, trials=10, seed=int(rng.integers(0, 2**32)))
    residual = max(quantities.p_residual, quantities.theta_residual, report.worst_residual)
    if not report.preserves:
        residual = max(residual, 1.0)
    _note(record, map=f)
    return residual


def _check_noniso_breaks_superpositions(rng, dim, record=None):
    f = sampling.non_isometry_map(rng, dim)
    if isometry_scale(f) is not None:
        return 1.0
    report = preserves_superpositions(f, trials=200, seed=int(rng.integers(0, 2**32)))
    _note(record, map=f)
    return 1.0 if report.preserves else 0.0


def _check_char_morph_law(rng, dim, record=None):
    if int(rng.integers(0, 2)) == 0:
        f = sampling.isometry_map(rng, dim)
    else:
        f = sampling.non_isometry_map(rng, dim)
    ok = check_char_morph(f, trials=120, seed=int(rng.integers(0, 2**32)))
    _note(record, map=f)
    return 0.0 if ok else 1.0


def _check_injective_distinct(rng, dim, record=None):
    if int(rng.integers(0, 2)) == 0:
        f = sampling.isometry_map(rng, dim)
    else:
        f = sampling.non_isometry_map(rng, dim)
    x = sampling.random_ray(rng, dim)
    y = sampling.random_ray(rng, dim)
    if a_sim(x, y) > 1.0 - 1e-6:
        return None
    _note(record, x=x, y=y, map=f)
    return 1.0 if rays_equal(apply_ray(f, x), apply_ray(f, y)) else 0.0


# ---------------------------------------------------------------------------
# tensor products


def _batch_tensor_inner(rng, dim, n):
    u1, v1 = sampling.gaussian_stack(rng, (2, n, 2))
    u2, v2 = sampling.gaussian_stack(rng, (2, n, dim))
    lhs = inners(kron_rows(u1, u2), kron_rows(v1, v2))
    rhs = inners(u1, v1) * inners(u2, v2)
    return _block(np.abs(lhs - rhs), u1=u1, v1=v1, u2=u2, v2=v2)


def _batch_tensor_p_product(rng, dim, n):
    x1, y1 = (sampling.random_rays(rng, n, 2) for _ in range(2))
    x2, y2 = (sampling.random_rays(rng, n, dim) for _ in range(2))
    unit_defect = np.abs(norms(product_rays(x1, x2)) - 1.0)
    residual = np.maximum(p_product_residuals(x1, y1, x2, y2), unit_defect)
    return _block(residual, x1=x1, y1=y1, x2=x2, y2=y2)


def _batch_tensor_theta_additive(rng, dim, n):
    *t1, skip1 = sampling.nonorthogonal_triples(rng, n, 2)
    *t2, skip2 = sampling.nonorthogonal_triples(rng, n, dim)
    skip = skip1 | skip2
    x1, y1, z1 = _flat(skip, *t1)
    x2, y2, z2 = _flat(skip, *t2)
    residual = theta_product_residuals(x1, y1, z1, x2, y2, z2)
    return _block(residual, skip, x1=x1, y1=y1, z1=z1, x2=x2, y2=y2, z2=z2)


# ---------------------------------------------------------------------------
# registrations (order = report order)

register(Law(
    id="linalg.inner_linearity",
    description="inner product linear in its first argument, conjugate-symmetric",
    batch=_batch_inner_linearity,
))
register(Law(
    id="linalg.cauchy_schwarz",
    description="|<u,v>| never exceeds ||u||·||v||",
    batch=_batch_cauchy_schwarz,
))
register(Law(
    id="linalg.orthonormalize_contract",
    description="orthonormalize returns an orthonormal basis of the span, size = rank, idempotent",
    checker=_check_orthonormalize_contract,
    trials_per_dim=400,
))
register(Law(
    id="ray.canonical_representative",
    description="rays are scale-invariant with a canonical unit representative",
    batch=_batch_ray_canonical,
))
register(Law(
    id="subspace.projector_laws",
    description="projectors are Hermitian and idempotent",
    checker=_check_projector_laws,
))
register(Law(
    id="subspace.projection_residual",
    description="the projection residual is orthogonal to the subspace",
    checker=_check_projection_residual,
))
register(Law(
    id="subspace.complement_involution",
    description="complement ranks add to dim; double complement returns the subspace",
    checker=_check_complement_involution,
    tolerance=0.5,
    trials_per_dim=400,
))
register(Law(
    id="subspace.orthomodular_identity",
    description="for nested subspaces, b = a ∨ (¬a ∧ b)",
    checker=_check_orthomodular_identity,
    trials_per_dim=250,
))
register(Law(
    id="subspace.commutes_complement",
    description="commuting survives complementation of either argument",
    checker=_check_commutes_complement,
    tolerance=0.5,
    trials_per_dim=400,
))
register(Law(
    id="lemma.commuting_decomposition",
    description="commuting pairs decompose into three orthogonal parts and back",
    checker=_check_commuting_decomposition,
    trials_per_dim=150,
))
register(Law(
    id="corollary.contained_or_orthogonal_commute",
    description="nested or orthogonal propositions commute",
    checker=_check_contained_or_orthogonal_commute,
    tolerance=0.5,
    trials_per_dim=400,
))
register(Law(
    id="classical.no_disturbance",
    description="with pairwise-orthogonal states, measuring ¬x leaves any other state intact",
    batch=_batch_classical_no_disturbance,
))
register(Law(
    id="lemma.a_properties",
    description="overlap lies in [0,1], symmetric, 1 iff equal, 0 iff orthogonal",
    batch=_batch_a_properties,
))
register(Law(
    id="lemma.p_properties",
    description="similarity = overlap², symmetric, equals <u,y(u)> and ||y(u)||²",
    batch=_batch_p_properties,
))
register(Law(
    id="corollary.satisfaction",
    description="membership is equivalent to similarity one",
    checker=_check_satisfaction,
))
register(Law(
    id="lemma.born_rule",
    description="p(x,a) = ||a(u)||²/||u||² for any nonzero u in x",
    checker=_check_born_rule,
))
register(Law(
    id="theorem.p_chain",
    description="p(x,y) factors through the projection: p(x,a(x))·p(a(x),y) for y in a",
    checker=_check_p_chain,
))
register(Law(
    id="corollary.p_max",
    description="the projection is the unique most-similar state inside a subspace",
    checker=_check_p_max,
    tolerance=0.5,
    trials_per_dim=500,
))
register(Law(
    id="lemma.p_bounds",
    description="0 ≤ p(x,a) ≤ 1 always",
    checker=_check_p_bounds,
))
register(Law(
    id="principle.reciprocity",
    description="equal projections on ¬x imply equal projections on ¬y",
    batch=_batch_reciprocity,
    tolerance=0.5,
    trials_per_dim=400,
))
register(Law(
    id="coplanarity.permutation_invariance",
    description="coplanarity is a property of the unordered triple",
    batch=_batch_coplanarity_permutations,
    tolerance=0.5,
    trials_per_dim=300,
))
register(Law(
    id="theta.representative_independence",
    description="the triple phase ignores the representatives chosen",
    batch=_batch_theta_representative_independence,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.theta_cyclic",
    description="triple phase is cyclic and antisymmetric under transposition",
    batch=_batch_theta_cyclic,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.theta_cocycle",
    description="theta(x,y,w) = theta(x,y,z) + theta(x,z,w) + theta(z,y,w) mod 2π",
    batch=_batch_theta_cocycle,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.theta_prime",
    description="the orthocomplement triple negates the triple phase",
    batch=_batch_theta_prime,
    tolerance=ANGLE_TOL,
    trials_per_dim=300,
))
register(Law(
    id="theta.euclidean_real",
    description="real instances have phase 0 or π; positive overlaps give exactly 0",
    batch=_batch_theta_euclidean,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="principle.superposition_domain",
    description="superposition is undefined exactly for orthogonal components",
    checker=_check_superposition_domain,
))
register(Law(
    id="principle.triviality",
    description="superposing a state with itself returns the state",
    batch=_batch_triviality,
))
register(Law(
    id="lemma.superpose_identity_commutative",
    description="weight 1 returns the first component; swap components by r ↔ 1−r",
    batch=_batch_superpose_identity_commutative,
))
register(Law(
    id="principle.coplanarity",
    description="a superposition is coplanar with its components",
    batch=_batch_superposition_coplanarity,
    tolerance=0.5,
))
register(Law(
    id="lemma.prop1_theta_zero",
    description="the phase of (superposition, y, z) vanishes",
    batch=_batch_superposition_theta_zero,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.p_basis",
    description="closed-form superposition probability matches the constructed ray",
    batch=_batch_p_basis,
    tolerance=1e-9,
))
register(Law(
    id="lemma.prop1_component_form",
    description="similarity to a component: 1 − (1−r)(1−p(y,z))/ω",
    batch=_batch_prop1_component_form,
    tolerance=1e-9,
))
register(Law(
    id="lemma.prop1_dominance",
    description="mixing in y strictly increases similarity to y beyond p(y,z)",
    batch=_batch_prop1_dominance,
    tolerance=0.0,
))
register(Law(
    id="counterexample.dominance_boundary",
    description="at r=0 the strict dominance degrades to equality, as predicted",
    batch=_batch_dominance_boundary,
    negative_control=True,
))
register(Law(
    id="corollary.cos_theta_prime",
    description="closed-form cosine of the phase after an in-plane complement swap",
    checker=_check_cos_theta_prime,
    tolerance=ANGLE_TOL,
    trials_per_dim=500,
))
register(Law(
    id="superposition.theta_consistency",
    description="phases of superposed rays are representative-independent (numeric-only support)",
    batch=_batch_superposition_theta_consistency,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.ortho_additivity",
    description="similarity adds over a disjunction of orthogonal propositions",
    checker=_check_ortho_additivity_law,
    trials_per_dim=400,
))
register(Law(
    id="corollary.ortho_additivity_family",
    description="similarity adds over families of 2..4 orthogonal propositions",
    checker=_check_ortho_additivity_family,
    trials_per_dim=300,
))
register(Law(
    id="lemma.complement_sum",
    description="p(x,a) + p(x,¬a) = 1",
    checker=_check_complement_sum,
    trials_per_dim=400,
))
register(Law(
    id="lemma.inclusion_exclusion",
    description="inclusion–exclusion for commuting propositions",
    checker=_check_inclusion_exclusion_law,
    trials_per_dim=250,
))
register(Law(
    id="lemma.conjunction_chain",
    description="p(x, a∧b) = p(x,a)·p(a(x),b) for commuting propositions",
    checker=_check_conjunction_chain,
    trials_per_dim=250,
))
register(Law(
    id="corollary.monotone",
    description="similarity is monotone under containment",
    checker=_check_monotone_law,
    trials_per_dim=400,
))
register(Law(
    id="corollary.total_probability",
    description="total probability decomposition over a commuting complement pair",
    checker=_check_total_probability_law,
    trials_per_dim=300,
))
register(Law(
    id="lemma.orthomodular_equality",
    description="when both conditional projections satisfy b, every term equals one",
    checker=_check_orthomodular_equality,
    trials_per_dim=400,
))
register(Law(
    id="lemma.local_total_probability",
    description="total probability needs only commutation at the state itself",
    checker=_check_local_total_probability,
    dims=(4, 5, 6, 7, 8),
    trials_per_dim=300,
))
register(Law(
    id="theorem.interference_inequality",
    description="p(x,b)(1−p(b(x),a))² ≤ p(b(x),a)(1−p(a(b(x)),b)) for x in a",
    batch=_batch_interference_inequality,
    tolerance=1e-12,
    dims=(3, 4, 5, 6, 7, 8),
    trials_per_dim=10_000,
))
register(Law(
    id="corollary.interference_membership",
    description="if a(b(x)) satisfies b (x in a), then b(x) satisfies a",
    checker=_check_interference_membership,
    trials_per_dim=400,
))
register(Law(
    id="counterexample.total_probability",
    description="the total-probability identity FAILS on generic non-commuting pairs",
    checker=_check_total_probability_generic,
    tolerance=0.1,
    trials_per_dim=400,
    negative_control=True,
    aggregate=_aggregate_must_fail,
))
register(Law(
    id="counterexample.total_probability_2d",
    description="the planar family violates total probability by exactly |1 − cos⁴ − sin⁴|",
    batch=_batch_total_probability_2d,
    tolerance=1e-9,
    dims=(2,),
    negative_control=True,
))
register(Law(
    id="counterexample.nonsquared_interference",
    description="dropping the square breaks the interference inequality in real 3-space",
    checker=_check_nonsquared_search,
    tolerance=0.5,
    dims=(3,),
    trials_per_dim=1,
    negative_control=True,
))
register(Law(
    id="morphism.scale_invariance",
    description="scaling the matrix by a nonzero complex number induces the same ray map",
    checker=_check_morphism_scale_invariance,
    tolerance=1e-9,
    dims=(2, 3, 4, 5),
    trials_per_dim=200,
))
register(Law(
    id="morphism.isometry_inner_products",
    description="a linear isometry preserves inner products",
    checker=_check_isometry_inner_products,
    dims=(2, 3, 4, 5),
    trials_per_dim=400,
))
register(Law(
    id="lemma.isometry_preserves_all",
    description="isometries (up to scale) preserve similarity, phase, and superpositions",
    checker=_check_isometry_preserves_all,
    dims=(2, 3, 4, 5),
    trials_per_dim=60,
))
register(Law(
    id="morphism.noniso_breaks_superpositions",
    description="every sampled non-isometry exhibits a concrete broken superposition",
    checker=_check_noniso_breaks_superpositions,
    tolerance=0.5,
    dims=(2, 3, 4, 5),
    trials_per_dim=60,
))
register(Law(
    id="theorem.char_morph",
    description="superposition preservation coincides with being an isometry",
    checker=_check_char_morph_law,
    tolerance=0.5,
    dims=(2, 3, 4, 5),
    trials_per_dim=60,
))
register(Law(
    id="morphism.injective_distinct",
    description="injective maps send distinct rays to distinct rays",
    checker=_check_injective_distinct,
    tolerance=0.5,
    dims=(2, 3, 4, 5),
    trials_per_dim=400,
))
register(Law(
    id="tensor.inner_factorization",
    description="inner products factor across Kronecker products",
    batch=_batch_tensor_inner,
    dims=(2, 3),
))
register(Law(
    id="tensor.p_product",
    description="similarity multiplies across product states",
    batch=_batch_tensor_p_product,
    dims=(2, 3),
))
register(Law(
    id="tensor.theta_additive",
    description="triple phases add across product states (mod 2π)",
    batch=_batch_tensor_theta_additive,
    dims=(2, 3),
))
