"""Batched kernels and block lattice operations against loop references.

The references below are the per-row formulas written out one row at a
time; the theta reference is the sum of the three cyclic inner-product
arguments, compared by circular distance.  The subspace lattice
(complement, join, meet) is pinned to Gram–Schmidt written one vector
at a time: complement against the identity, join over the stacked
bases, and meet as ``¬(¬a ∨ ¬b)``; its stacked form, over frames with
interleaved zero columns, to the same references one subspace at a
time.
"""

import cmath
import math

import numpy as np
import pytest

from raygeo import (
    ZERO,
    OrthogonalPairError,
    Ray,
    Subspace,
    SuperpositionSpec,
    ZeroVectorError,
    complement_projection,
    coplanar,
    join,
    meet,
    ortho_complement,
    p_component_closed_form,
    p_of_superposition_closed_form,
    ray_from,
    reciprocity_holds,
    subspaces_equal,
    superpose,
)
from raygeo import sampling
from raygeo.geometry import (
    a_sims,
    complement_projections,
    coplanar_rows,
    p_sims,
    prime_triples,
    reciprocity_rows,
    triple_phase,
    triple_phases,
)
from raygeo.linalg import ANGLE_GUARD, EPS_ABS, circular_distance, orthonormalize_rows
from raygeo.rays import (
    commutation_defects,
    complements,
    containment_defects,
    equal_rays,
    joins,
    meets,
    project_rows,
    project_vec,
    rays_from,
)
from raygeo.sampling import MIN_OVERLAP, gaussian_stack, random_frames
from raygeo.superposition import (
    omega as omega_scalar,
    omegas,
    p_component_closed_forms,
    p_of_superposition_closed_forms,
    superpose_vectors,
    superposed_rays,
)
from raygeo.tensor import (
    check_p_product,
    check_theta_product,
    kron_rows,
    p_product_residuals,
    product_rays,
    theta_product_residuals,
)


def _units(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _inner(u, v):
    return sum(a * b.conjugate() for a, b in zip(u, v))


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_p_matches_loop(dim):
    rng = np.random.default_rng(dim)
    u, v = _units(rng, (200, dim)), _units(rng, (200, dim))
    got = p_sims(u, v)
    assert got.shape == (200,)
    for i in range(200):
        assert got[i] == pytest.approx(abs(_inner(u[i], v[i])) ** 2, abs=1e-14)
    np.testing.assert_array_equal(a_sims(u, v) ** 2, got)


def test_p_stays_in_unit_interval():
    u = np.array([[1.0 + 1e-16, 0.0]], dtype=np.complex128)
    assert p_sims(u, u)[0] == 1.0


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_theta_matches_three_arg_sum(dim):
    rng = np.random.default_rng(10 + dim)
    # unnormalized rows with arbitrary scales: theta ignores the representative
    u, v, w = (_units(rng, (200, dim)) * rng.uniform(0.1, 10.0, (200, 1)) for _ in range(3))
    got = triple_phases(u, v, w)
    assert got.shape == (200,)
    for i in range(200):
        reference = (
            cmath.phase(_inner(u[i], v[i]))
            + cmath.phase(_inner(v[i], w[i]))
            + cmath.phase(_inner(w[i], u[i]))
        )
        assert circular_distance(got[i], reference) < 1e-12
        assert -math.pi < got[i] <= math.pi


def test_theta_stack_shape_and_branch():
    rng = np.random.default_rng(3)
    u, v, w = (_units(rng, (4, 5, 3)) for _ in range(3))
    assert triple_phases(u, v, w).shape == (4, 5)
    # a real triple whose Bargmann product is negative has phase +π, never −π
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 1.0])
    z = np.array([1.0, -2.0])
    assert triple_phases(x, y, z) == pytest.approx(math.pi)
    assert triple_phases(x, y, z) > 0


def test_theta_guard_names_first_offending_pair():
    good = np.array([1.0, 1.0, 0.0])
    rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    v = np.array([good, good, [0.0, 1.0, 0.0]])  # row 2: x ⊥ y
    w = np.array([good, [0.0, 0.0, 1.0], good])  # row 1: y ⊥ z and z ⊥ x
    got = triple_phases(rows, v, w)  # the stacked kernel marks, never raises
    np.testing.assert_array_equal(np.isnan(got), [False, True, True])
    assert math.isfinite(got[0])
    for i, pair in ((1, ("y", "z")), (2, ("x", "y"))):
        with pytest.raises(OrthogonalPairError) as err:
            triple_phase(rows[i], v[i], w[i])
        assert err.value.pair == pair  # the first bad pair in the order (x,y), (y,z), (z,x)


@pytest.mark.parametrize("dim", [2, 4])
def test_superpose_matches_loop(dim):
    rng = np.random.default_rng(20 + dim)
    v, w = _units(rng, (150, dim)), _units(rng, (150, dim))
    r = rng.uniform(0.0, 1.0, 150)
    r[:3] = (0.0, 1.0, 0.5)
    w[2] = v[2] * np.exp(0.3j)  # coinciding components
    got = superpose_vectors(v, w, r)
    for i in range(150):
        c = _inner(v[i], w[i])
        if r[i] >= 1.0 or abs(c) > 1.0 - EPS_ABS:
            reference = v[i]
        elif r[i] <= 0.0:
            reference = w[i]
        else:
            reference = math.sqrt(r[i]) * v[i] + math.sqrt(1.0 - r[i]) * w[i] * (c / abs(c))
        np.testing.assert_allclose(got[i], reference, rtol=0, atol=1e-14)
        omega = 1.0 + 2.0 * math.sqrt(r[i] * (1.0 - r[i])) * abs(c)
        if 0.0 < r[i] < 1.0 and i != 2:
            assert np.vdot(got[i], got[i]).real == pytest.approx(omega, abs=1e-12)


def test_scalar_superpose_is_the_kernel_row():
    rng = np.random.default_rng(5)
    y, z = ray_from(_units(rng, 3)), ray_from(_units(rng, 3))
    for r in (0.1, 0.3, 0.9):
        ray = superpose(SuperpositionSpec(y=y, z=z, r=r))
        np.testing.assert_array_equal(ray.rep, ray_from(superpose_vectors(y.rep, z.rep, r)).rep)
    # the boundary rows are the components themselves
    assert superpose(SuperpositionSpec(y=y, z=z, r=1.0)) is y
    assert superpose(SuperpositionSpec(y=y, z=z, r=0.0)) is z
    assert superpose(SuperpositionSpec(y=y, z=y, r=0.0)) is y
    np.testing.assert_array_equal(superpose_vectors(y.rep, z.rep, 1.0), y.rep)
    np.testing.assert_array_equal(superpose_vectors(y.rep, z.rep, 0.0), z.rep)


def test_stacked_draws():
    for cols in (4, 2):  # full frames, and only the columns a caller uses
        frames = random_frames(np.random.default_rng(6), 7, 4, cols)
        assert frames.shape == (7, 4, cols)
        eye = np.broadcast_to(np.eye(cols), (7, cols, cols))
        np.testing.assert_allclose(frames.conj().swapaxes(-1, -2) @ frames, eye, atol=1e-12)
    real = gaussian_stack(np.random.default_rng(7), (5, 3), real=True)
    assert real.dtype == np.complex128 and not real.imag.any()


# -- stacked ray primitives ---------------------------------------------------
#
# References: the former one-instance implementations, written out row by row.

DIMS = range(2, 9)


def _ref_equal(u, v):
    return abs(_inner(u, v)) > 1.0 - EPS_ABS


def _ref_projection(u, v):
    """Projection of v on the orthocomplement of u, or None (ZERO)."""
    w = v - _inner(v, u) * u
    return None if np.linalg.norm(w) <= EPS_ABS else ray_from(w).rep


def _ref_same(p, q):
    return p is None and q is None if p is None or q is None else _ref_equal(p, q)


def _ref_coplanar(x, y, z):
    if _ref_equal(x, y) or _ref_equal(x, z) or _ref_equal(y, z):
        return True
    py, pz = _ref_projection(x, y), _ref_projection(x, z)
    return py is None or pz is None or _ref_equal(py, pz)


def _ref_reciprocity(x, y, z):
    if not _ref_same(_ref_projection(x, y), _ref_projection(x, z)):
        return True
    return _ref_same(_ref_projection(y, z), _ref_projection(y, x))


def _ref_prime(x, y, z):
    """The primed triple, or the index of the first failed precondition."""
    pairs = ((x, y), (y, z), (z, x))
    if any(_ref_equal(u, v) for u, v in pairs):
        return 1
    if any(abs(_inner(u, v)) <= ANGLE_GUARD for u, v in pairs):
        return 2
    if not _ref_coplanar(x, y, z):
        return 3
    primed = [_ref_projection(u, v) for u, v in pairs]
    return 4 if any(p is None for p in primed) else primed


def _triples(rng, dim, n=40):
    """Random unit triples with boundary rows: equal rays, coplanar,
    classical (standard basis), orthogonal pairs, a ray inside the
    complement of another, and a coplanar triple near coincidence."""
    x, y, z = (ray_from_rows(_units(rng, (n, dim))) for _ in range(3))
    e = np.eye(dim, dtype=np.complex128)
    y[0] = x[0] * np.exp(0.7j)  # y = x as rays
    z[1] = y[1]
    z[2] = ray_from(0.3 * x[2] - 1.1j * y[2]).rep  # coplanar
    x[3], y[3], z[3] = e[0], e[1], e[min(2, dim - 1)]  # classical
    y[4] = ray_from(y[4] - _inner(y[4], x[4]) * x[4]).rep  # y ⊥ x
    z[5] = ray_from(x[5] + 1e-7 * y[5]).rep  # coplanar, z close to x
    x[6], y[6], z[6] = e[0], ray_from(e[0] + e[1]).rep, ray_from(e[0] - 2j * e[1]).rep
    return x, y, z


def ray_from_rows(rows):
    return np.array([ray_from(r).rep for r in rows])


@pytest.mark.parametrize("dim", DIMS)
def test_rays_from_matches_ray_from(dim):
    rng = np.random.default_rng(60 + dim)
    v = _units(rng, (50, dim)) * rng.uniform(1e-6, 1e6, (50, 1))
    v[0, 0] = 0.0  # leading entry exactly zero
    v[1, 0] = 1e-12 * np.linalg.norm(v[1])  # leading entry below EPS_ABS after normalizing
    v[2, 0] = 2e-10 * np.linalg.norm(v[2])  # just above it
    v[3] = 0.0
    v[3, dim - 1] = -3.0j  # the only nonzero entry is the last
    v[4] = v[4].real  # a real row
    reps = rays_from(v)
    assert reps.shape == (50, dim)
    for row, rep in zip(v, reps):
        ref = ray_from(row).rep
        np.testing.assert_allclose(rep, ref, rtol=0, atol=1e-15)
        lead = np.flatnonzero(np.abs(ref) > EPS_ABS)[0]
        assert np.flatnonzero(np.abs(rep) > EPS_ABS)[0] == lead
        assert abs(rep[lead].imag) < 1e-15 and rep[lead].real > 0.0
    np.testing.assert_allclose(rays_from(v[7]), ray_from(v[7]).rep, rtol=0, atol=1e-15)  # one row


def _ref_subspace_projection(cols, v):
    """sum_k <v, q_k> q_k, one column and one entry at a time."""
    out = [0j] * len(v)
    for q in cols:
        c = _inner(v, q)
        out = [o + c * qi for o, qi in zip(out, q)]
    return np.array(out)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
def test_project_rows_matches_loop(dim):
    rng = np.random.default_rng(90 + dim)
    n = 12
    v = gaussian_stack(rng, (n, dim))
    frames = random_frames(rng, n, dim, dim)
    for rank in range(dim + 1):  # one frame shared by every row
        q = frames[0][:, :rank]
        a = Subspace.from_orthonormal(q.T, dim)
        got = project_rows(q, v)
        assert got.shape == (n, dim)
        for row, p in zip(v, got):
            np.testing.assert_allclose(p, _ref_subspace_projection(q.T, row), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(p, project_vec(a, row))
    # a frame per row, its columns beyond the row's rank zeroed: the zero
    # columns change the summation, so only the row alone is bit-equal
    ranks = rng.integers(0, dim + 1, size=n)
    padded = frames * (np.arange(dim) < ranks[:, np.newaxis])[:, np.newaxis, :]
    got = project_rows(padded, v)
    for row, frame, rank, p in zip(v, padded, ranks, got):
        a = Subspace.from_orthonormal(frame[:, :rank].T, dim)
        np.testing.assert_allclose(p, _ref_subspace_projection(frame[:, :rank].T, row), rtol=0, atol=1e-12)
        np.testing.assert_allclose(p, project_vec(a, row), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(p, project_rows(frame, row))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_rays_from_checks_like_ray_from():
    good = np.ones((3, 2), dtype=np.complex128)
    for bad, error in (
        (1e-11, ZeroVectorError),
        (math.nan, ValueError),
        (math.inf, ValueError),
        (1e300, ValueError),  # the norm overflows
    ):
        rows = good.copy()
        rows[1] = bad
        with pytest.raises(error):
            rays_from(rows)
        with pytest.raises(error):
            ray_from(rows[1])


@pytest.mark.parametrize("dim", DIMS)
def test_stacked_verdicts_match_references(dim):
    rng = np.random.default_rng(70 + dim)
    x, y, z = _triples(rng, dim)
    np.testing.assert_array_equal(equal_rays(x, y), [_ref_equal(*r) for r in zip(x, y)])
    reps, zero = complement_projections(x, y)
    for i in range(len(x)):
        ref = _ref_projection(x[i], y[i])
        assert zero[i] == (ref is None)
        if ref is not None:
            np.testing.assert_allclose(reps[i], ref, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(coplanar_rows(x, y, z), [_ref_coplanar(*r) for r in zip(x, y, z)])
    np.testing.assert_array_equal(reciprocity_rows(x, y, z), [_ref_reciprocity(*r) for r in zip(x, y, z)])
    assert coplanar_rows(x, y, z)[[0, 1, 2, 5, 6]].all()
    if dim > 2:
        assert not coplanar_rows(x, y, z)[3]
    x1, y1, z1, defect = prime_triples(x, y, z)
    for i in range(len(x)):
        ref = _ref_prime(x[i], y[i], z[i])
        if isinstance(ref, int):
            assert defect[i] == ref
        else:
            assert defect[i] == 0
            for got, want in zip((x1[i], y1[i], z1[i]), ref):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert defect[6] == 0 and defect[0] == defect[1] == 1
    # the single-instance forms are rows of the stacked ones
    rays = [[Ray(rep=s[i]) for s in (x, y, z)] for i in range(len(x))]
    assert [coplanar(*t) for t in rays] == coplanar_rows(x, y, z).tolist()
    assert [reciprocity_holds(*t) for t in rays] == reciprocity_rows(x, y, z).tolist()
    assert [complement_projection(a, b) is ZERO for a, b, _ in rays] == zero.tolist()


def _ref_closed_form(r, y, z, x):
    p_yx, p_zx = abs(_inner(y, x)) ** 2, abs(_inner(z, x)) ** 2
    omega = 1.0 + 2.0 * math.sqrt(r * (1.0 - r)) * abs(_inner(y, z))
    cross = r * (1.0 - r) * p_yx * p_zx
    interference = 0.0
    if cross > ANGLE_GUARD**4:
        phase = cmath.phase(_inner(x, y) * _inner(y, z) * _inner(z, x))
        interference = 2.0 * math.cos(phase) * math.sqrt(cross)
    return (r * p_yx + (1.0 - r) * p_zx + interference) / omega, omega


@pytest.mark.parametrize("dim", DIMS)
def test_closed_forms_match_references(dim):
    rng = np.random.default_rng(80 + dim)
    x, y, z = _triples(rng, dim)
    y[7] = z[7]  # equal components
    e = np.eye(dim, dtype=np.complex128)
    x[8], y[8], z[8] = e[1], ray_from(e[0] + e[1]).rep, e[0]  # x ⊥ z: the phase is not read
    r = rng.uniform(0.0, 1.0, len(x))
    r[:3] = (0.0, 1.0, 0.5)
    keep = a_sims(y, z) > 1e-6  # the closed forms need non-orthogonal components
    y, z, x, r = y[keep], z[keep], x[keep], r[keep]
    closed = p_of_superposition_closed_forms(r, y, z, x)
    component = p_component_closed_forms(r, y, z)
    omega = omegas(r, y, z)
    direct = p_sims(superposed_rays(y, z, r), x)
    for i in range(len(x)):
        ref, ref_omega = _ref_closed_form(r[i], y[i], z[i], x[i])
        assert closed[i] == pytest.approx(ref, abs=1e-12)
        assert omega[i] == pytest.approx(ref_omega, abs=1e-14)
        p_yz = abs(_inner(y[i], z[i])) ** 2
        assert component[i] == pytest.approx(1.0 - (1.0 - r[i]) * (1.0 - p_yz) / ref_omega, abs=1e-12)
    np.testing.assert_allclose(closed, direct, rtol=0, atol=1e-10)
    # the single-instance forms are rows of the stacked ones
    for i in range(len(x)):
        spec = SuperpositionSpec(y=Ray(rep=y[i]), z=Ray(rep=z[i]), r=float(r[i]))
        assert p_of_superposition_closed_form(spec, Ray(rep=x[i])) == pytest.approx(closed[i], abs=1e-15)
        assert p_component_closed_form(spec) == pytest.approx(component[i], abs=1e-15)
        assert omega_scalar(float(r[i]), spec.y, spec.z) == pytest.approx(omega[i], abs=1e-15)


@pytest.mark.parametrize("dim", DIMS)
def test_tensor_products_match_references(dim):
    rng = np.random.default_rng(90 + dim)
    u1, v1 = _units(rng, (2, 30, 2))
    u2, v2 = _units(rng, (2, 30, dim))
    kron = kron_rows(u1, u2)
    assert kron.shape == (30, 2 * dim)
    for i in range(30):
        np.testing.assert_array_equal(kron[i], np.kron(u1[i], u2[i]))
    x1, y1, z1 = (rays_from(_units(rng, (30, 2))) for _ in range(3))
    x2, y2, z2 = _triples(rng, dim, n=30)
    x2[0], y2[0] = x2[1], x2[1]  # equal rays in the second factor
    p_res = p_product_residuals(x1, y1, x2, y2)
    keep = np.minimum.reduce([a_sims(x2, y2), a_sims(y2, z2), a_sims(z2, x2)]) > 1e-6
    t_res = theta_product_residuals(*(s[keep] for s in (x1, y1, z1, x2, y2, z2)))
    for i in range(30):
        px = ray_from(np.kron(x1[i], x2[i])).rep
        py = ray_from(np.kron(y1[i], y2[i])).rep
        ref = abs(abs(_inner(px, py)) ** 2 - abs(_inner(x1[i], y1[i])) ** 2 * abs(_inner(x2[i], y2[i])) ** 2)
        assert p_res[i] == pytest.approx(ref, abs=1e-14) and p_res[i] < 1e-12
        np.testing.assert_allclose(product_rays(x1, x2)[i], px, rtol=0, atol=1e-15)
    assert t_res.shape == (keep.sum(),) and t_res.max() < 1e-12
    for i in np.flatnonzero(keep):
        factors = [Ray(rep=s[i]) for s in (x1, y1, z1, x2, y2, z2)]
        assert check_theta_product(*factors) == pytest.approx(t_res[np.flatnonzero(keep) == i][0], abs=1e-15)
        assert check_p_product(*factors[0:2], *factors[3:5]) == pytest.approx(p_res[i], abs=1e-15)


@pytest.mark.parametrize("dim", DIMS)
def test_sampler_skip_masks(dim):
    rng = np.random.default_rng(100 + dim)
    n = 300
    x, y, skip = sampling.nonorthogonal_pairs(rng, n, dim)
    np.testing.assert_array_equal(skip, [abs(_inner(u, v)) <= MIN_OVERLAP for u, v in zip(x, y)])
    x, y, z, skip = sampling.nonorthogonal_triples(rng, n, dim)
    overlaps = [min(abs(_inner(a, b)) for a, b in ((u, v), (v, w), (w, u))) for u, v, w in zip(x, y, z)]
    np.testing.assert_array_equal(skip, np.array(overlaps) <= MIN_OVERLAP)
    x, y, z, skip = sampling.coplanar_triples(rng, n, dim)
    pair_skip = np.array([abs(_inner(u, v)) <= MIN_OVERLAP for u, v in zip(y, z)])
    assert (skip >= pair_skip).all()
    for i in np.flatnonzero(~skip):
        assert _ref_coplanar(x[i], y[i], z[i])
    for reps in (x, y, z, sampling.random_rays(rng, n, dim)):
        np.testing.assert_allclose(np.linalg.norm(reps, axis=1), 1.0, rtol=0, atol=1e-14)
    for k in range(1, min(dim, 3) + 1):
        rays = sampling.classical_ray_stacks(rng, n, dim, k)
        assert rays.shape == (k, n, dim)
        index = np.argmax(np.abs(rays), axis=-1)  # each ray is a standard basis vector
        np.testing.assert_array_equal(np.abs(rays).sum(axis=-1), 1.0)
        assert all(len(set(index[:, i])) == k for i in range(n))  # distinct within a set
    # a skip flood is visible: near-orthogonal pairs are rare, never all skipped
    assert not skip.all()


# -- subspace lattice -----------------------------------------------------


def _gram_schmidt(rows, dim):
    """Span of ``rows`` by Gram–Schmidt, one vector at a time, with one
    re-orthogonalization pass; residuals <= EPS_ABS are dropped."""
    basis = np.zeros((0, dim), dtype=np.complex128)
    for v in rows:
        w = np.array(v, dtype=np.complex128)
        for _ in range(2):
            w = w - basis.T @ (basis.conj() @ w)
        n = np.linalg.norm(w)
        if n > EPS_ABS:
            basis = np.vstack([basis, w / n])
    return Subspace.from_orthonormal(basis, dim)


def _ref_complement(a):
    full = _gram_schmidt(list(a.basis) + list(np.eye(a.dim)), a.dim)
    return Subspace.from_orthonormal(full.basis[a.rank :], a.dim)


def _ref_join(a, b):
    return _gram_schmidt(list(a.basis) + list(b.basis), a.dim)


def _ref_meet(a, b):
    return _ref_complement(_ref_join(_ref_complement(a), _ref_complement(b)))


def _span(rng, rows, dim):
    """The span of orthonormal ``rows`` under a random basis of it."""
    k = rows.shape[0]
    mix = np.linalg.qr(_units(rng, (k, k)) if k else np.zeros((0, 0)))[0]
    return Subspace.from_orthonormal(mix.T @ rows, dim)


def _tilted(rng, frame, ra, dim, angle):
    """span(frame[:ra]) with its last direction tilted by ``angle``
    towards frame[ra]; the span itself when there is no room."""
    rows = frame[:ra].copy()
    if 0 < ra < dim:
        rows[-1] = math.cos(angle) * frame[ra - 1] + math.sin(angle) * frame[ra]
    return _span(rng, rows, dim)


def _pairs(rng, dim, ra, rb):
    """(kind, a, b, rank of a ∧ b) for one pair of ranks."""
    frame = random_frames(rng, 1, dim, dim)[0]
    a = _span(rng, frame[:ra], dim)
    big = max(ra, rb)
    shared = min(ra, rb) // 2
    commuting_b = np.concatenate([frame[:shared], frame[ra : ra + max(0, rb - shared)]])
    rest = min(rb, dim - ra)
    yield "generic", a, _span(rng, random_frames(rng, 1, dim, dim)[0][:rb], dim), max(0, ra + rb - dim)
    yield "a in b", a, _span(rng, frame[:big], dim), ra
    yield "b in a", _span(rng, frame[:big], dim), a, ra
    yield "commuting", a, _span(rng, commuting_b, dim), shared
    yield "identical", a, _span(rng, frame[:ra], dim), ra
    yield "orthogonal", a, _span(rng, frame[ra : ra + rest], dim), 0
    # principal angle 1e-4 keeps the spans apart, 1e-13 falls under the EPS_ABS cut
    yield "tilted", a, _tilted(rng, frame, ra, dim, 1e-4), ra - 1 if 0 < ra < dim else ra
    yield "tilted below the cut", a, _tilted(rng, frame, ra, dim, 1e-13), ra
    yield "truth", a, Subspace.truth(dim), ra
    yield "falsehood", a, Subspace.falsehood(dim), 0


def _assert_orthonormal(s):
    gram = s.basis @ s.basis.conj().T
    assert np.max(np.abs(gram - np.eye(s.rank)), initial=0.0) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16, 32])
def test_lattice_ops_match_gram_schmidt(dim):
    rng = np.random.default_rng(40 + dim)
    truth = Subspace.truth(dim)
    for ra in range(dim + 1):
        rb = int(rng.integers(0, dim + 1))
        for kind, a, b, meet_rank in _pairs(rng, dim, ra, rb):
            where = (kind, a.rank, b.rank)
            na = ortho_complement(a)
            assert na.rank == dim - a.rank, where
            assert subspaces_equal(na, _ref_complement(a)), where
            _assert_orthonormal(na)
            assert np.max(np.abs(a.basis @ na.basis.conj().T), initial=0.0) < 1e-12, where
            assert subspaces_equal(join(a, na), truth), where

            j = join(a, b)
            ref = _ref_join(a, b)
            assert j.rank == ref.rank and subspaces_equal(j, ref), where
            np.testing.assert_array_equal(j.basis[: a.rank], a.basis)
            _assert_orthonormal(j)

            m = meet(a, b)
            ref = _ref_meet(a, b)
            assert m.rank == ref.rank == meet_rank, where
            assert subspaces_equal(m, ref), where
            _assert_orthonormal(m)


def test_lattice_ops_on_truth_and_falsehood():
    for dim in (1, 2, 5):
        t, f = Subspace.truth(dim), Subspace.falsehood(dim)
        assert ortho_complement(f) == t
        assert ortho_complement(t).rank == 0
        assert subspaces_equal(join(f, t), t) and join(t, f) == t
        assert join(f, f).rank == 0
        assert subspaces_equal(meet(t, t), t)
        assert meet(t, f).rank == meet(f, t).rank == meet(f, f).rank == 0


# -- stacked lattice ----------------------------------------------------------
#
# References: projectors, projections and the Gram–Schmidt lattice above,
# one subspace and one vector at a time.  The stacks scatter each basis
# over the columns of a wider frame, so zero columns are interleaved.


def _scatter(rng, a, k):
    """``a``'s basis as the nonzero columns, at random positions, of a (dim, k) frame."""
    q = np.zeros((a.dim, k), dtype=np.complex128)
    q[:, rng.choice(k, a.rank, replace=False)] = a.basis.T
    return q


def _live_rows(q):
    """The nonzero columns of one stacked subspace as rows; the others must be exactly zero."""
    live = np.linalg.norm(q, axis=0) > 0.5
    assert not q[:, ~live].any()
    rows = q[:, live].T
    np.testing.assert_allclose(rows @ rows.conj().T, np.eye(len(rows)), rtol=0, atol=1e-12)
    return rows


def _ref_projector(rows, dim):
    p = np.zeros((dim, dim), dtype=np.complex128)
    for b in rows:
        p += np.outer(b, b.conj())
    return p


def _ref_containment(rows_a, rows_b):
    return max((np.linalg.norm(_ref_subspace_projection(rows_b, v) - v) for v in rows_a), default=0.0)


def _assert_same_span(rows, ref, where):
    assert len(rows) == ref.rank, where
    assert max(_ref_containment(rows, ref.basis), _ref_containment(ref.basis, rows)) < 1e-9, where


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
def test_stacked_lattice_matches_loops(dim):
    rng = np.random.default_rng(110 + dim)
    cases = [
        (kind, a, b, meet_rank)
        for ra in range(dim + 1)
        for kind, a, b, meet_rank in _pairs(rng, dim, ra, int(rng.integers(0, dim + 1)))
    ]
    qa, qb = (np.stack([_scatter(rng, case[i], dim + 2) for case in cases]) for i in (1, 2))
    nq, joined, met = complements(qa), joins(qa, qb), meets(qa, qb)
    commutator, containment = commutation_defects(qa, qb), containment_defects(qa, qb)
    for i, (kind, a, b, meet_rank) in enumerate(cases):
        where = (kind, a.rank, b.rank)
        _assert_same_span(_live_rows(nq[i]), _ref_complement(a), where)
        _assert_same_span(_live_rows(joined[i]), _ref_join(a, b), where)
        _assert_same_span(_live_rows(met[i]), _ref_meet(a, b), where)
        assert len(_live_rows(met[i])) == meet_rank, where
        pa, pb = _ref_projector(a.basis, dim), _ref_projector(b.basis, dim)
        ref = np.max(np.abs(pa @ pb - pb @ pa))
        assert commutator[i] == pytest.approx(ref, abs=1e-12), where
        assert (commutator[i] <= EPS_ABS) == (ref <= EPS_ABS), where
        assert containment[i] == pytest.approx(_ref_containment(a.basis, b.basis), abs=1e-12), where


def _ref_orthonormalize(rows):
    """The former scalar modified Gram–Schmidt loop: one re-orthogonalization
    pass, residuals <= EPS_ABS dropped, stop once the basis spans the space."""
    d = rows.shape[1]
    basis = np.empty((min(len(rows), d), d), dtype=np.complex128)
    conj = np.empty_like(basis)
    k = 0
    for w in rows:
        if k == d:
            break
        for _ in range(2):
            w = w - basis[:k].T @ (conj[:k] @ w)
        nrm = math.sqrt(w.real @ w.real + w.imag @ w.imag)
        if nrm > EPS_ABS:
            basis[k] = w / nrm
            conj[k] = basis[k].conj()
            k += 1
    return basis[:k]


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 16])
def test_stacked_orthonormalize_matches_loop(dim):
    rng = np.random.default_rng(130 + dim)
    n, m = 40, dim + 3
    vectors = gaussian_stack(rng, (n, m, dim)) * rng.uniform(1e-3, 1e3, (n, m, 1))
    vectors[:, 1] = 0.0  # a zero vector
    vectors[:, 2] = 2.5j * vectors[:, 0]  # a dependent one
    vectors[::2, -1] = vectors[::2, 0] - 0.5 * vectors[::2, 3 % m]
    basis, kept = orthonormalize_rows(vectors)
    assert basis.shape == vectors.shape and kept.shape == (n, m)
    for i in range(n):
        ref = _ref_orthonormalize(vectors[i])
        assert kept[i].sum() == len(ref) == min(dim, np.linalg.matrix_rank(vectors[i]))
        np.testing.assert_allclose(basis[i][kept[i]], ref, rtol=0, atol=1e-12)
        assert not basis[i][~kept[i]].any()
    # nearly dependent pairs: their orthogonality rests on the second pass
    near = vectors[:, :1] + 1e-7 * gaussian_stack(rng, (n, 1, dim))
    basis, kept = orthonormalize_rows(np.concatenate([vectors[:, :1], near], axis=1))
    gram = basis @ basis.conj().swapaxes(1, 2)
    np.testing.assert_allclose(gram, kept[:, np.newaxis, :] * np.eye(2), rtol=0, atol=1e-12)
