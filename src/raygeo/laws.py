"""The law registry: one named, checkable law per verified statement.

Each law is a residual checker over seeded random instances; see
:mod:`raygeo.lawcheck` for the execution model.  Unless noted, the
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
from .linalg import circular_distance, inner, norm, orthonormalize, wrap_angle
from .rays import (
    ZERO,
    Subspace,
    commutes,
    containment_defect,
    is_member,
    is_orthogonal,
    join,
    meet,
    ortho_complement,
    project_ray,
    project_vec,
    ray_from,
    rays_equal,
    subspaces_equal,
)
from .geometry import (
    a_sim,
    complement_projection,
    coplanar,
    p_prop,
    p_sim,
    prime_triple,
    reciprocity_holds,
    theta,
    triple_phase,
)
from .superposition import (
    SuperpositionSpec,
    cos_theta_prime,
    omega,
    p_component_closed_form,
    p_of_superposition_closed_form,
    superpose,
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
)
from .morphisms import (
    apply_ray,
    check_char_morph,
    check_preserves_p_theta,
    isometry_scale,
    preserves_superpositions,
)
from .tensor import check_p_product, check_theta_product, tensor_ray
from .serialize import to_jsonable, witness_to_json

ANGLE_TOL = 1e-8
MIN_OVERLAP = sampling.MIN_OVERLAP


def _note(record, **values):
    if record is not None:
        for key, value in values.items():
            record[key] = to_jsonable(value)


def _unit_phase(rng) -> complex:
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return complex(math.cos(angle), math.sin(angle))


def _ray_gap(x, y) -> float:
    return 1.0 - a_sim(x, y)


# ---------------------------------------------------------------------------
# linalg substrate


def _check_inner_linearity(rng, dim, tol, record=None):
    u = sampling.gaussian_vector(rng, dim)
    v = sampling.gaussian_vector(rng, dim)
    w = sampling.gaussian_vector(rng, dim)
    a = complex(*rng.standard_normal(2))
    b = complex(*rng.standard_normal(2))
    lhs = inner(a * u + b * v, w)
    rhs = a * inner(u, w) + b * inner(v, w)
    scale = (abs(a) * norm(u) + abs(b) * norm(v)) * norm(w) + 1.0
    sym = abs(inner(v, u) - np.conj(inner(u, v)))
    _note(record, u=u, v=v, w=w, a=a, b=b)
    return max(abs(lhs - rhs) / scale, sym / scale)


def _check_cauchy_schwarz(rng, dim, tol, record=None):
    u = sampling.gaussian_vector(rng, dim)
    v = sampling.gaussian_vector(rng, dim)
    _note(record, u=u, v=v)
    return max(0.0, abs(inner(u, v)) - norm(u) * norm(v))


def _check_orthonormalize_contract(rng, dim, tol, record=None):
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


def _check_ray_canonical(rng, dim, tol, record=None):
    v = sampling.gaussian_vector(rng, dim)
    x = ray_from(v)
    scaled = ray_from(v * (_unit_phase(rng) * float(rng.uniform(0.1, 10.0))))
    unit_defect = abs(norm(x.rep) - 1.0)
    lead = x.rep[np.flatnonzero(np.abs(x.rep) > tol.eps_abs)[0]]
    canon_defect = abs(lead.imag) + max(0.0, -lead.real)
    _note(record, v=v)
    return max(_ray_gap(x, scaled), float(np.max(np.abs(x.rep - scaled.rep))), unit_defect, canon_defect)


def _check_projector_laws(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    p = a.projector()
    _note(record, alpha=a)
    return float(max(np.max(np.abs(p @ p - p)), np.max(np.abs(p - p.conj().T))))


def _check_projection_residual(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim)
    u = sampling.gaussian_vector(rng, dim)
    resid = u - project_vec(a, u)
    _note(record, alpha=a, u=u)
    if a.rank == 0:
        return float(np.linalg.norm(project_vec(a, u)))
    return float(np.max(np.abs(a.basis.conj() @ resid)))


def _check_complement_involution(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    na = ortho_complement(a)
    nna = ortho_complement(na)
    rank_defect = abs(na.rank - (dim - a.rank)) + (0 if subspaces_equal(nna, a) else 1)
    ortho_defect = 0.0 if is_orthogonal(a, na) else 1.0
    _note(record, alpha=a)
    return float(rank_defect + ortho_defect)


def _check_orthomodular_identity(rng, dim, tol, record=None):
    a, b = sampling.nested_pair(rng, dim)
    rebuilt = join(a, meet(ortho_complement(a), b))
    _note(record, alpha=a, beta=b)
    if rebuilt.rank != b.rank:
        return 1.0
    return max(containment_defect(rebuilt, b), containment_defect(b, rebuilt))


def _check_commutes_complement(rng, dim, tol, record=None):
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


def _check_commuting_decomposition(rng, dim, tol, record=None):
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


def _check_contained_or_orthogonal_commute(rng, dim, tol, record=None):
    a, b = sampling.nested_pair(rng, dim)
    ok_nested = commutes(a, b)
    frame = sampling.random_frame(rng, dim)
    cut = int(rng.integers(0, dim + 1))
    p = Subspace.from_orthonormal(frame[:cut], dim)
    q = Subspace.from_orthonormal(frame[cut:], dim)
    ok_orth = commutes(p, q)
    _note(record, nested_a=a, nested_b=b)
    return 0.0 if (ok_nested and ok_orth) else 1.0


def _check_classical_no_disturbance(rng, dim, tol, record=None):
    x, y = sampling.classical_rays(rng, dim, 2)
    py = complement_projection(x, y)
    _note(record, x=x, y=y)
    if py is ZERO:
        return 1.0
    return _ray_gap(py, y)


# ---------------------------------------------------------------------------
# similarity and phase geometry


def _check_a_properties(rng, dim, tol, record=None):
    pair = sampling.nonorthogonal_pair(rng, dim)
    if pair is None:
        return None
    x, y = pair
    a_xy = a_sim(x, y)
    residual = max(0.0, a_xy - 1.0, -a_xy)
    residual = max(residual, abs(a_xy - a_sim(y, x)))
    residual = max(residual, abs(a_sim(x, x) - 1.0))
    frame = sampling.random_frame(rng, dim)
    e = ray_from(frame[0])
    f = ray_from(frame[1])
    residual = max(residual, a_sim(e, f))
    _note(record, x=x, y=y)
    return residual


def _check_p_properties(rng, dim, tol, record=None):
    x = sampling.random_ray(rng, dim)
    y = sampling.random_ray(rng, dim)
    a = a_sim(x, y)
    p = p_sim(x, y)
    residual = abs(p - a * a)
    residual = max(residual, abs(p - p_sim(y, x)))
    u = x.rep
    proj = inner(u, y.rep) * y.rep  # projection of u on y
    residual = max(residual, abs(p - float(np.real(inner(u, proj)))))
    residual = max(residual, abs(p - norm(proj) ** 2))
    residual = max(residual, abs(p_sim(x, x) - 1.0))
    _note(record, x=x, y=y)
    return residual


def _check_satisfaction(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim)
    member = sampling.member_ray(rng, a)
    residual = abs(p_prop(member, a) - 1.0)
    if not is_member(member, a):
        residual = max(residual, 1.0)
    x = sampling.random_ray(rng, dim)
    agree = is_member(x, a) == (p_prop(x, a) > 1.0 - 1e-9)
    _note(record, alpha=a, member=member, x=x)
    return residual if agree else max(residual, 1.0)


def _check_born_rule(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    x = sampling.random_ray(rng, dim)
    u = x.rep * (_unit_phase(rng) * float(rng.uniform(0.1, 10.0)))
    born = norm(project_vec(a, u)) ** 2 / norm(u) ** 2
    _note(record, alpha=a, x=x)
    return abs(p_prop(x, a) - born)


def _check_p_chain(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim)
    x = sampling.random_ray(rng, dim)
    ax = project_ray(a, x)
    if ax is ZERO:
        return None
    y = sampling.member_ray(rng, a)
    _note(record, alpha=a, x=x, y=y)
    return abs(p_sim(x, y) - p_prop(x, a) * p_sim(ax, y))


def _check_p_max(rng, dim, tol, record=None):
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


def _check_p_bounds(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    x = sampling.random_ray(rng, dim)
    p = p_prop(x, a)
    _note(record, alpha=a, x=x)
    return max(0.0, -p, p - 1.0)


def _check_reciprocity(rng, dim, tol, record=None):
    if int(rng.integers(0, 2)) == 0 or dim < 3:
        triple = sampling.coplanar_triple(rng, dim)
        if triple is None:
            return None
        x, y, z = triple
    else:
        x, y, z = sampling.classical_rays(rng, dim, 3)
    _note(record, x=x, y=y, z=z)
    return 0.0 if reciprocity_holds(x, y, z) else 1.0


def _check_coplanarity_permutations(rng, dim, tol, record=None):
    constructed = int(rng.integers(0, 2)) == 0
    if constructed:
        triple = sampling.coplanar_triple(rng, dim)
        if triple is None:
            return None
        x, y, z = triple
    else:
        x = sampling.random_ray(rng, dim)
        y = sampling.random_ray(rng, dim)
        z = sampling.random_ray(rng, dim)
    verdicts = {coplanar(*perm) for perm in itertools.permutations((x, y, z))}
    _note(record, x=x, y=y, z=z, constructed=constructed)
    if len(verdicts) != 1:
        return 1.0
    if constructed and verdicts != {True}:
        return 1.0
    return 0.0


def _check_theta_representative_independence(rng, dim, tol, record=None):
    triple = sampling.nonorthogonal_triple(rng, dim)
    if triple is None:
        return None
    x, y, z = triple
    reference = theta(x, y, z)
    scrambled = triple_phase(
        x.rep * _unit_phase(rng),
        y.rep * (_unit_phase(rng) * float(rng.uniform(0.1, 10.0))),
        z.rep * _unit_phase(rng),
    )
    _note(record, x=x, y=y, z=z)
    return circular_distance(reference, scrambled)


def _check_theta_cyclic(rng, dim, tol, record=None):
    triple = sampling.nonorthogonal_triple(rng, dim)
    if triple is None:
        return None
    x, y, z = triple
    t = theta(x, y, z)
    _note(record, x=x, y=y, z=z)
    return max(
        circular_distance(theta(y, z, x), t),
        circular_distance(theta(x, z, y), -t),
    )


def _check_theta_cocycle(rng, dim, tol, record=None):
    rays = [sampling.random_ray(rng, dim) for _ in range(4)]
    for u, v in itertools.combinations(rays, 2):
        if a_sim(u, v) <= MIN_OVERLAP:
            return None
    x, y, z, w = rays
    lhs = theta(x, y, w)
    rhs = theta(x, y, z) + theta(x, z, w) + theta(z, y, w)
    _note(record, x=x, y=y, z=z, w=w)
    return circular_distance(lhs, wrap_angle(rhs))


def _check_theta_prime(rng, dim, tol, record=None):
    triple = sampling.coplanar_triple(rng, dim)
    if triple is None:
        return None
    x, y, z = triple
    if (
        rays_equal(x, y)
        or rays_equal(y, z)
        or rays_equal(z, x)
        or min(a_sim(x, y), a_sim(y, z), a_sim(z, x)) <= MIN_OVERLAP
    ):
        return None
    primed = prime_triple(x, y, z)
    _note(record, x=x, y=y, z=z)
    return circular_distance(theta(primed.x, primed.y, primed.z), -theta(x, y, z))


def _check_theta_euclidean(rng, dim, tol, record=None):
    triple = sampling.nonorthogonal_triple(rng, dim, real=True)
    if triple is None:
        return None
    x, y, z = triple
    t = theta(x, y, z)
    residual = min(circular_distance(t, 0.0), circular_distance(t, math.pi))
    positive = [ray_from(np.abs(rng.standard_normal(dim)) + 0.1) for _ in range(3)]
    residual = max(residual, circular_distance(theta(*positive), 0.0))
    _note(record, x=x, y=y, z=z)
    return residual


# ---------------------------------------------------------------------------
# superpositions


def _spec(rng, dim, tol):
    pair = sampling.nonorthogonal_pair(rng, dim)
    if pair is None:
        return None
    y, z = pair
    return SuperpositionSpec(y=y, z=z, r=float(rng.uniform(0.0, 1.0)))


def _check_superposition_domain(rng, dim, tol, record=None):
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


def _check_triviality(rng, dim, tol, record=None):
    y = sampling.random_ray(rng, dim)
    r = float(rng.uniform(0.0, 1.0))
    _note(record, y=y, r=r)
    return _ray_gap(superpose(SuperpositionSpec(y=y, z=y, r=r)), y)


def _check_superpose_identity_commutative(rng, dim, tol, record=None):
    spec = _spec(rng, dim, tol)
    if spec is None:
        return None
    y, z, r = spec.y, spec.z, spec.r
    residual = _ray_gap(superpose(SuperpositionSpec(y=y, z=z, r=1.0)), y)
    residual = max(residual, _ray_gap(superpose(SuperpositionSpec(y=y, z=z, r=0.0)), z))
    flipped = superpose(SuperpositionSpec(y=z, z=y, r=1.0 - r))
    residual = max(residual, _ray_gap(superpose(spec), flipped))
    _note(record, y=y, z=z, r=r)
    return residual


def _check_superposition_coplanarity(rng, dim, tol, record=None):
    spec = _spec(rng, dim, tol)
    if spec is None:
        return None
    x = superpose(spec)
    _note(record, y=spec.y, z=spec.z, r=spec.r)
    return 0.0 if coplanar(x, spec.y, spec.z) else 1.0


def _check_superposition_theta_zero(rng, dim, tol, record=None):
    spec = _spec(rng, dim, tol)
    if spec is None or rays_equal(spec.y, spec.z):
        return None
    if spec.r < 1e-6 or spec.r > 1.0 - 1e-6:
        return None  # x collapses onto a component; theta degenerates
    x = superpose(spec)
    if min(a_sim(x, spec.y), a_sim(x, spec.z)) <= MIN_OVERLAP:
        return None
    _note(record, y=spec.y, z=spec.z, r=spec.r)
    return circular_distance(theta(x, spec.y, spec.z), 0.0)


def _check_p_basis(rng, dim, tol, record=None):
    spec = _spec(rng, dim, tol)
    if spec is None:
        return None
    x = sampling.random_ray(rng, dim)
    if min(a_sim(x, spec.y), a_sim(x, spec.z)) <= MIN_OVERLAP:
        return None
    direct = p_sim(superpose(spec), x)
    closed = p_of_superposition_closed_form(spec, x)
    _note(record, y=spec.y, z=spec.z, r=spec.r, x=x, direct=direct, closed=closed)
    return abs(closed - direct)


def _check_prop1_component_form(rng, dim, tol, record=None):
    spec = _spec(rng, dim, tol)
    if spec is None:
        return None
    direct = p_sim(superpose(spec), spec.y)
    closed = p_component_closed_form(spec)
    _note(record, y=spec.y, z=spec.z, r=spec.r)
    return abs(closed - direct)


def _check_prop1_dominance(rng, dim, tol, record=None):
    pair = sampling.nonorthogonal_pair(rng, dim)
    if pair is None:
        return None
    y, z = pair
    r = float(rng.uniform(0.0, 1.0))
    p_yz = p_sim(y, z)
    if r < 1e-6 or (1.0 - p_yz) < 1e-6:
        return None  # margin shrinks to zero at the boundary r=0 and at y=z
    margin = p_sim(superpose(SuperpositionSpec(y=y, z=z, r=r)), y) - p_yz
    _note(record, y=y, z=z, r=r, margin=margin)
    return max(0.0, tol.eps_abs - margin)


def _check_dominance_boundary(rng, dim, tol, record=None):
    pair = sampling.nonorthogonal_pair(rng, dim)
    if pair is None:
        return None
    y, z = pair
    x0 = superpose(SuperpositionSpec(y=y, z=z, r=0.0))
    _note(record, y=y, z=z)
    return abs(p_sim(x0, y) - p_sim(y, z))


def _plane_ray(rng, b1, b2, tol):
    c = sampling.gaussian_vector(rng, 2)
    return ray_from(c[0] * b1 + c[1] * b2), c


def _check_cos_theta_prime(rng, dim, tol, record=None):
    frame = sampling.random_frame(rng, dim)
    b1, b2 = frame[0], frame[1]
    for _ in range(24):
        x, cx = _plane_ray(rng, b1, b2, tol)
        y, _ = _plane_ray(rng, b1, b2, tol)
        z, _ = _plane_ray(rng, b1, b2, tol)
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


def _check_superposition_theta_consistency(rng, dim, tol, record=None):
    spec = _spec(rng, dim, tol)
    if spec is None:
        return None
    x1 = sampling.random_ray(rng, dim)
    x2 = sampling.random_ray(rng, dim)
    s = superpose(spec)
    pairs = [(s, x1), (x1, x2), (x2, s)]
    if min(a_sim(u, v) for u, v in pairs) <= MIN_OVERLAP:
        return None
    reference = theta(s, x1, x2)
    scrambled = triple_phase(
        s.rep * _unit_phase(rng), x1.rep * _unit_phase(rng), x2.rep * _unit_phase(rng)
    )
    _note(record, y=spec.y, z=spec.z, r=spec.r, x1=x1, x2=x2)
    return circular_distance(reference, scrambled)


# ---------------------------------------------------------------------------
# probability calculus


def _check_ortho_additivity_law(rng, dim, tol, record=None):
    frame = sampling.random_frame(rng, dim)
    cut = int(rng.integers(0, dim + 1))
    keep = int(rng.integers(cut, dim + 1))
    a = Subspace.from_orthonormal(frame[:cut], dim)
    b = Subspace.from_orthonormal(frame[cut:keep], dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return check_ortho_additivity(x, a, b)


def _check_ortho_additivity_family(rng, dim, tol, record=None):
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


def _check_complement_sum(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim, rank=int(rng.integers(0, dim + 1)))
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, x=x)
    return check_complement(x, a)


def _check_inclusion_exclusion_law(rng, dim, tol, record=None):
    a, b = sampling.commuting_pair(rng, dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return check_inclusion_exclusion(x, a, b)


def _check_conjunction_chain(rng, dim, tol, record=None):
    a, b = sampling.commuting_pair(rng, dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return check_chain_rule(x, a, b)


def _check_monotone_law(rng, dim, tol, record=None):
    a, b = sampling.nested_pair(rng, dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return max(0.0, p_prop(x, a) - p_prop(x, b))


def _check_total_probability_law(rng, dim, tol, record=None):
    a, b = sampling.commuting_pair(rng, dim)
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return check_total_probability(x, a, b)


def _check_orthomodular_equality(rng, dim, tol, record=None):
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


def _check_local_total_probability(rng, dim, tol, record=None):
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


def _batch_interference_inequality(rng, dim, n, tol):
    # 10^4 trials per dimension, checked as stacks: one frame per
    # proposition, padded with zero columns beyond its rank.
    ra = rng.integers(1, dim, size=n)
    rb = rng.integers(1, dim, size=n)
    in_a = np.arange(dim) < ra[:, np.newaxis]
    qa = sampling.random_frames(rng, n, dim)
    qa *= in_a[:, np.newaxis, :]
    qb = sampling.random_frames(rng, n, dim)
    qb *= (np.arange(dim) < rb[:, np.newaxis])[:, np.newaxis, :]
    x = (qa @ (sampling.gaussian_stack(rng, (n, dim)) * in_a)[..., np.newaxis])[..., 0]
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    margin, undefined = interference_margins(qa, qb, x)

    def record(i):
        described: dict = {}
        _note(
            described,
            alpha=Subspace.from_orthonormal(qa[i, :, : ra[i]].T, dim),
            beta=Subspace.from_orthonormal(qb[i, :, : rb[i]].T, dim),
            x=ray_from(x[i]),
            margin=float(margin[i]),
        )
        return described

    return Block(np.maximum(0.0, -margin), undefined, record)


def _check_interference_membership(rng, dim, tol, record=None):
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


def _check_total_probability_generic(rng, dim, tol, record=None):
    a = sampling.random_subspace(rng, dim)
    b = sampling.random_subspace(rng, dim)
    if commutes(a, b):
        return None  # not an applicable generic (non-commuting) instance
    x = sampling.random_ray(rng, dim)
    _note(record, alpha=a, beta=b, x=x)
    return total_probability_residual(x, a, b, tol)


def _aggregate_must_fail(residuals):
    if not residuals:
        return False, 1.0
    fraction = sum(1 for r in residuals if r > 1e-6) / len(residuals)
    return fraction > 0.9, 1.0 - fraction


def _check_total_probability_2d(rng, dim, tol, record=None):
    t = float(rng.uniform(0.0, 2.0 * math.pi))
    alpha = Subspace.from_orthonormal(np.eye(2, dtype=np.complex128)[:1], 2)
    x = ray_from(np.array([math.cos(t), math.sin(t)], dtype=np.complex128))
    beta = Subspace.from_ray(x)
    measured = total_probability_residual(x, alpha, beta, tol)
    analytic = abs(1.0 - math.cos(t) ** 4 - math.sin(t) ** 4)
    _note(record, angle=t, measured=measured, analytic=analytic)
    return abs(measured - analytic)


def _check_nonsquared_search(rng, dim, tol, record=None):
    seed = int(rng.integers(0, 2**63 - 1))
    witness = search_nonsquared_counterexample(seed=seed, budget=100_000)
    if witness is None:
        _note(record, seed=seed, found=False)
        return 1.0
    ok = witness.nonsquared_excess > tol.eps_abs and witness.squared_margin >= -1e-12
    if record is not None:
        record["witness"] = witness_to_json(witness)
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# morphisms


def _check_morphism_scale_invariance(rng, dim, tol, record=None):
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


def _check_isometry_inner_products(rng, dim, tol, record=None):
    f = sampling.isometry_map(rng, dim, scale=1.0)
    u = sampling.gaussian_vector(rng, dim)
    v = sampling.gaussian_vector(rng, dim)
    m = f.underlying.matrix
    _note(record, u=u, v=v)
    return abs(inner(m @ u, m @ v) - inner(u, v))


def _check_isometry_preserves_all(rng, dim, tol, record=None):
    f = sampling.isometry_map(rng, dim)
    quantities = check_preserves_p_theta(f, trials=20, seed=int(rng.integers(0, 2**32)))
    report = preserves_superpositions(f, trials=10, seed=int(rng.integers(0, 2**32)))
    residual = max(quantities.p_residual, quantities.theta_residual, report.worst_residual)
    if not report.preserves:
        residual = max(residual, 1.0)
    _note(record, map=f)
    return residual


def _check_noniso_breaks_superpositions(rng, dim, tol, record=None):
    f = sampling.non_isometry_map(rng, dim)
    if isometry_scale(f) is not None:
        return 1.0
    report = preserves_superpositions(f, trials=200, seed=int(rng.integers(0, 2**32)))
    _note(record, map=f)
    return 1.0 if report.preserves else 0.0


def _check_char_morph_law(rng, dim, tol, record=None):
    if int(rng.integers(0, 2)) == 0:
        f = sampling.isometry_map(rng, dim)
    else:
        f = sampling.non_isometry_map(rng, dim)
    ok = check_char_morph(f, trials=120, seed=int(rng.integers(0, 2**32)))
    _note(record, map=f)
    return 0.0 if ok else 1.0


def _check_injective_distinct(rng, dim, tol, record=None):
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


def _check_tensor_inner(rng, dim, tol, record=None):
    d1 = 2
    u1, v1 = sampling.gaussian_vector(rng, d1), sampling.gaussian_vector(rng, d1)
    u2, v2 = sampling.gaussian_vector(rng, dim), sampling.gaussian_vector(rng, dim)
    lhs = inner(np.kron(u1, u2), np.kron(v1, v2))
    rhs = inner(u1, v1) * inner(u2, v2)
    _note(record, u1=u1, v1=v1, u2=u2, v2=v2)
    return abs(lhs - rhs)


def _check_tensor_p_product(rng, dim, tol, record=None):
    d1 = 2
    x1, y1 = sampling.random_ray(rng, d1), sampling.random_ray(rng, d1)
    x2, y2 = sampling.random_ray(rng, dim), sampling.random_ray(rng, dim)
    combined = tensor_ray(x1, x2).combined
    unit_defect = abs(norm(combined.rep) - 1.0)
    _note(record, x1=x1, y1=y1, x2=x2, y2=y2)
    return max(check_p_product(x1, y1, x2, y2), unit_defect)


def _check_tensor_theta_additive(rng, dim, tol, record=None):
    d1 = 2
    t1 = sampling.nonorthogonal_triple(rng, d1)
    t2 = sampling.nonorthogonal_triple(rng, dim)
    if t1 is None or t2 is None:
        return None
    x1, y1, z1 = t1
    x2, y2, z2 = t2
    _note(record, x1=x1, y1=y1, z1=z1, x2=x2, y2=y2, z2=z2)
    return check_theta_product(x1, y1, z1, x2, y2, z2)


# ---------------------------------------------------------------------------
# registrations (order = report order)

register(Law(
    id="linalg.inner_linearity",
    description="inner product linear in its first argument, conjugate-symmetric",
    checker=_check_inner_linearity,
))
register(Law(
    id="linalg.cauchy_schwarz",
    description="|<u,v>| never exceeds ||u||·||v||",
    checker=_check_cauchy_schwarz,
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
    checker=_check_ray_canonical,
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
    checker=_check_classical_no_disturbance,
))
register(Law(
    id="lemma.a_properties",
    description="overlap lies in [0,1], symmetric, 1 iff equal, 0 iff orthogonal",
    checker=_check_a_properties,
))
register(Law(
    id="lemma.p_properties",
    description="similarity = overlap², symmetric, equals <u,y(u)> and ||y(u)||²",
    checker=_check_p_properties,
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
    checker=_check_reciprocity,
    tolerance=0.5,
    trials_per_dim=400,
))
register(Law(
    id="coplanarity.permutation_invariance",
    description="coplanarity is a property of the unordered triple",
    checker=_check_coplanarity_permutations,
    tolerance=0.5,
    trials_per_dim=300,
))
register(Law(
    id="theta.representative_independence",
    description="the triple phase ignores the representatives chosen",
    checker=_check_theta_representative_independence,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.theta_cyclic",
    description="triple phase is cyclic and antisymmetric under transposition",
    checker=_check_theta_cyclic,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.theta_cocycle",
    description="theta(x,y,w) = theta(x,y,z) + theta(x,z,w) + theta(z,y,w) mod 2π",
    checker=_check_theta_cocycle,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.theta_prime",
    description="the orthocomplement triple negates the triple phase",
    checker=_check_theta_prime,
    tolerance=ANGLE_TOL,
    trials_per_dim=300,
))
register(Law(
    id="theta.euclidean_real",
    description="real instances have phase 0 or π; positive overlaps give exactly 0",
    checker=_check_theta_euclidean,
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
    checker=_check_triviality,
))
register(Law(
    id="lemma.superpose_identity_commutative",
    description="weight 1 returns the first component; swap components by r ↔ 1−r",
    checker=_check_superpose_identity_commutative,
))
register(Law(
    id="principle.coplanarity",
    description="a superposition is coplanar with its components",
    checker=_check_superposition_coplanarity,
    tolerance=0.5,
))
register(Law(
    id="lemma.prop1_theta_zero",
    description="the phase of (superposition, y, z) vanishes",
    checker=_check_superposition_theta_zero,
    tolerance=ANGLE_TOL,
))
register(Law(
    id="lemma.p_basis",
    description="closed-form superposition probability matches the constructed ray",
    checker=_check_p_basis,
    tolerance=1e-9,
))
register(Law(
    id="lemma.prop1_component_form",
    description="similarity to a component: 1 − (1−r)(1−p(y,z))/ω",
    checker=_check_prop1_component_form,
    tolerance=1e-9,
))
register(Law(
    id="lemma.prop1_dominance",
    description="mixing in y strictly increases similarity to y beyond p(y,z)",
    checker=_check_prop1_dominance,
    tolerance=0.0,
))
register(Law(
    id="counterexample.dominance_boundary",
    description="at r=0 the strict dominance degrades to equality, as predicted",
    checker=_check_dominance_boundary,
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
    checker=_check_superposition_theta_consistency,
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
    checker=_check_total_probability_2d,
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
    checker=_check_tensor_inner,
    dims=(2, 3),
))
register(Law(
    id="tensor.p_product",
    description="similarity multiplies across product states",
    checker=_check_tensor_p_product,
    dims=(2, 3),
))
register(Law(
    id="tensor.theta_additive",
    description="triple phases add across product states (mod 2π)",
    checker=_check_tensor_theta_additive,
    dims=(2, 3),
))
