"""Batched kernels and block lattice operations against loop references.

The references below are the per-row formulas written out one row at a
time; the theta reference is the sum of the three cyclic inner-product
arguments, compared by circular distance.  The subspace lattice
(complement, join, meet) is pinned to Gram–Schmidt written one vector
at a time: complement against the identity, join over the stacked
bases, and meet as ``¬(¬a ∨ ¬b)``; its stacked form, over frames with
interleaved zero columns, to the same references one subspace at a
time.  The probability calculus (the measurement chain, the chain-rule,
total-probability and ortho-additivity residuals, and the domain mask
of total probability) is pinned to ``project_ray``, ``p_prop``,
``join`` and ``commutes`` one row at a time.
"""

import cmath
import itertools
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
    commutes,
    coplanar,
    is_member,
    is_orthogonal,
    join,
    meet,
    ortho_complement,
    p_component_closed_form,
    p_of_superposition_closed_form,
    p_prop,
    project_ray,
    ray_from,
    rays_equal,
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
    reciprocity_defects,
    reciprocity_rows,
    triple_phase,
    triple_phases,
)
from raygeo.linalg import (
    ANGLE_GUARD,
    EPS_ABS,
    checked_rows,
    circular_distances,
    gram_schmidt,
    inners,
    orthonormalize_rows,
)
from raygeo.probability import (
    chain_rule_residuals,
    measurement_chain,
    ortho_additivity_residuals,
    total_probability_residuals,
)
from raygeo.rays import (
    commutation_defects,
    commuting_subspaces,
    complements,
    contained_subspaces,
    containment_defects,
    equal_rays,
    equal_subspaces,
    joins,
    meets,
    orthogonal_subspaces,
    orthogonality_defects,
    project_rows,
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
        assert circular_distances(got[i], reference) < 1e-12
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


FRAME_SHAPES = [(256, d, d - 1) for d in range(2, 9)] + [(256, 8, 1), (256, 2, 2), (16, 8, 7), (8, 4, 4), (32, 16, 16)]


def _assert_q_factor(q, g):
    """q is orthonormal and q^H g upper triangular with a real positive
    diagonal: the Q factor of g that random_frames defines."""
    qh = q.conj().swapaxes(-1, -2)
    r = qh @ g
    np.testing.assert_allclose(qh @ q, np.broadcast_to(np.eye(q.shape[-1]), r.shape), rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.tril(r, -1), 0.0, rtol=0, atol=1e-13)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    np.testing.assert_allclose(diag.imag, 0.0, rtol=0, atol=1e-13)
    assert (diag.real > 0).all()


def _ranked_draw(rng, ranks, dim, cols):
    """The draw that ranked_frames documents, written out one column at a
    time: column j of each frame of rank above j, the frames in
    descending rank order (ties in index order), each column's dim
    entries in turn; the real parts of all, then the imaginary parts.
    Returned zero-padded, shape (count, dim, cols)."""
    by_rank = sorted(range(len(ranks)), key=lambda t: -ranks[t])
    columns = [(j, t) for j in range(cols) for t in by_rank if ranks[t] > j]
    re, im = rng.standard_normal((2, len(columns), dim))
    g = np.zeros((len(ranks), dim, cols), dtype=np.complex128)
    for k, (j, t) in enumerate(columns):
        g[t, :, j] = re[k] + 1j * im[k]
    return g


@pytest.mark.parametrize("shape", FRAME_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_random_frames_paths_agree(shape):
    # Both paths of random_frames, on one Gaussian draw, against LAPACK's
    # QR with R's diagonal made real and positive.
    count, dim, cols = shape
    g = _ranked_draw(np.random.default_rng(140), np.full(count, cols), dim, cols)
    q_ref, r = np.linalg.qr(g)
    q_ref = q_ref * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., np.newaxis, :]
    drawn = random_frames(np.random.default_rng(140), *shape)
    stacked = orthonormalize_rows(g.swapaxes(-1, -2))[0].swapaxes(-1, -2)
    for q in (drawn, stacked):
        np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-13)
        _assert_q_factor(q, g)
    # a last column nearly along the first (condition ~1e4): its
    # orthogonality rests on the re-orthogonalization pass
    if shape[2] > 1:
        g[..., -1] = g[..., 0] + 1e-4 * g[..., -1]
        _assert_q_factor(orthonormalize_rows(g.swapaxes(-1, -2))[0].swapaxes(-1, -2), g)


RANKED_SHAPES = [(256, 8, 7), (1820, 3, 2), (4096, 2, 2), (32, 16, 16)]


@pytest.mark.parametrize("shape", RANKED_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_ranked_frames_paths_agree(shape):
    # ranked_frames on one draw of mixed ranks, 0 and full among them,
    # against LAPACK's sign-fixed QR of the zero-padded draw and against
    # prefix Gram–Schmidt in descending rank order: whichever path the
    # shape takes, the other agrees
    count, dim, cols = shape
    ranks = np.random.default_rng(160 + dim).integers(0, cols + 1, count)
    ranks[:2] = 0, cols
    rng_ref = np.random.default_rng(161)
    g = _ranked_draw(rng_ref, ranks, dim, cols)
    rng = np.random.default_rng(161)
    drawn = sampling.ranked_frames(rng, ranks, dim, cols)
    # only the documented entries were drawn
    np.testing.assert_array_equal(rng.standard_normal(4), rng_ref.standard_normal(4))
    keep = np.arange(cols) < ranks[:, np.newaxis]
    q, r = np.linalg.qr(g)
    lapack = np.where(keep[:, np.newaxis, :], q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, np.newaxis, :], 0.0)
    order = np.argsort(-ranks, kind="stable")
    live = keep.sum(axis=0)
    prefix = np.empty_like(g)
    prefix[order] = gram_schmidt(np.ascontiguousarray(g[order].transpose(2, 1, 0)), live)[0].transpose(2, 1, 0)
    for frames in (drawn, prefix):
        np.testing.assert_allclose(frames, lapack, rtol=0, atol=1e-13)
    assert not drawn[np.broadcast_to(~keep[:, np.newaxis, :], drawn.shape)].any()
    gram = drawn.conj().swapaxes(-1, -2) @ drawn
    np.testing.assert_allclose(gram, keep[:, np.newaxis, :] * np.eye(cols), rtol=0, atol=1e-13)


def _gram_schmidt_v8(v, live=None):
    """The version-8 gram_schmidt loop: the rank counter and its cap on
    every call, every row written through the keep mask."""
    m, d = v.shape[:2]
    basis = np.zeros_like(v)
    kept = np.zeros((m, *v.shape[2:]), dtype=bool)
    rank = np.zeros(v.shape[2:], dtype=np.intp)
    for j in range(m):
        at = (...,) if live is None else (..., slice(live[j]))
        w, b = v[(j, *at)], basis[(slice(j), *at)]
        for _ in range(2 if j else 0):
            coeff = (w.conj() * b).sum(axis=1).conj()
            w = w - (coeff[:, np.newaxis] * b).sum(axis=0)
        nrm = np.sqrt((w.real**2 + w.imag**2).sum(axis=0))
        keep = (nrm > EPS_ABS) & (rank[at] < d)
        basis[(j, *at)] = np.where(keep, w / np.where(keep, nrm, 1.0), 0.0)
        kept[(j, *at)] = keep
        rank[at] += keep
    return basis, kept


GS_SHAPES = [(7, 8, 256), (2, 3, 1820), (18, 16, 32), (6, 4, 64)]


@pytest.mark.parametrize("shape", GS_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_gram_schmidt_matches_version_8(shape):
    # bit for bit, with and without a live prefix; (18, 16, 32) has more
    # vectors than the dimension and dependent rows, as the
    # orthonormalize_contract law does, and (6, 4, 64) holds zero vectors
    m, d, count = shape
    rng = np.random.default_rng(170 + m)
    v = gaussian_stack(rng, shape)
    if m > d:
        v[5] = v[0] + 2j * v[3]
        v[-1] = 0.5 * v[1] - v[2]
    if shape == (6, 4, 64):
        v[1] = 0.0
        v[3, :, ::3] = 0.0
        v[4, :, 1::2] = v[0, :, 1::2]
    live = np.sort(rng.integers(1, count + 1, m))[::-1]
    live[0] = count
    pre = v.copy()
    for j, n in enumerate(live):
        pre[j, :, n:] = 0.0
    for args in ((v,), (pre, live)):
        basis, kept = gram_schmidt(*args)
        ref_basis, ref_kept = _gram_schmidt_v8(*args)
        np.testing.assert_array_equal(basis, ref_basis)
        np.testing.assert_array_equal(kept, ref_kept)
    # the dependent and zero rows are dropped, so both branches ran
    assert gram_schmidt(v)[1].all() == (shape in GS_SHAPES[:2])


@pytest.mark.parametrize("shape", RANKED_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_ranked_frames_first_entry_unbiased(shape):
    # Of a Haar frame of any rank, Re q[0, 0] is as often negative as
    # positive; LAPACK's Householder QR without the sign fix leaves it <= 0.
    # 4000 draws per rank: a share outside [0.45, 0.55] is 6 sigma out.
    count, dim, cols = shape
    ranks = np.arange(count) % cols + 1  # every rank 1..cols, out of sorted order
    rng = np.random.default_rng(162)
    negative, calls = np.zeros(cols + 1), -(-4000 * cols // count)
    for _ in range(calls):
        q = sampling.ranked_frames(rng, ranks, dim, cols)
        negative += np.bincount(ranks, weights=q[:, 0, 0].real < 0, minlength=cols + 1)
    share = negative[1:] / np.bincount(ranks, minlength=cols + 1)[1:] / calls
    assert ((share >= 0.45) & (share <= 0.55)).all(), share


def test_stacked_draws():
    for cols in (4, 2):  # full frames, and only the columns a caller uses
        frames = random_frames(np.random.default_rng(6), 7, 4, cols)
        assert frames.shape == (7, 4, cols)
        eye = np.broadcast_to(np.eye(cols), (7, cols, cols))
        np.testing.assert_allclose(frames.conj().swapaxes(-1, -2) @ frames, eye, atol=1e-12)


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


def _ref_reciprocity_defect(x, y, z):
    if not _ref_same(_ref_projection(x, y), _ref_projection(x, z)):
        return 0.0
    p, q = _ref_projection(y, z), _ref_projection(y, x)
    if p is None or q is None:
        return float((p is None) != (q is None))
    return 1.0 - abs(_inner(p, q))


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


@pytest.mark.parametrize("dim", DIMS)
def test_reciprocity_defects_match_reference(dim):
    rng = np.random.default_rng(70 + dim)
    x, y, z = _triples(rng, dim)
    defects = reciprocity_defects(x, y, z)
    ref = [_ref_reciprocity_defect(*r) for r in zip(x, y, z)]
    np.testing.assert_allclose(defects, ref, rtol=0, atol=1e-14)
    # z = y: the consequent compares ZERO with a ray; coplanar: it holds
    assert defects[1] == 1.0 and defects[2] <= 1e-15
    np.testing.assert_array_equal(reciprocity_rows(x, y, z), defects <= EPS_ABS)


def _full_scan_reps(v):
    """``rays_from``'s formula with the leading entry always found by a
    scan of every entry."""
    v, n = checked_rows(np.asarray(v, dtype=np.complex128))
    u = v / n[..., np.newaxis]
    lead = np.take_along_axis(u, np.argmax(np.abs(u) > EPS_ABS, axis=-1)[..., np.newaxis], axis=-1)
    return u * (np.conj(lead) / np.abs(lead))


@pytest.mark.parametrize("dim", DIMS)
def test_rays_from_matches_full_scan_bit_for_bit(dim):
    def same_bits(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    rng = np.random.default_rng(90 + dim)
    ordinary = _units(rng, (30, dim)) * rng.uniform(1e-6, 1e6, (30, 1))
    assert (np.abs(ordinary[:, 0]) > 1e-3 * np.linalg.norm(ordinary, axis=-1)).all()  # all lead at column 0
    near = ordinary.copy()
    near[2, 0] = 2e-10 * np.linalg.norm(near[2])  # qualifies: the stack still leads at column 0
    mixed = near.copy()
    mixed[0, 0] = 0.0
    mixed[1, 0] = 1e-12 * np.linalg.norm(mixed[1])
    for v in (ordinary, near, mixed, mixed.reshape(5, 6, dim)):
        same_bits(rays_from(v), _full_scan_reps(v))
    for row in mixed:
        same_bits(rays_from(row), _full_scan_reps(row))
        same_bits(ray_from(row).rep, _full_scan_reps(row))


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
        a = Subspace.from_orthonormal(frames[0][:, :rank].T, dim)
        q = a.basis.T  # the subspace holds a copy; bit-equality needs the same operand
        got = project_rows(q, v)
        assert got.shape == (n, dim)
        for row, p in zip(v, got):
            np.testing.assert_allclose(p, _ref_subspace_projection(q.T, row), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(p, project_rows(a.basis.T, row))
    # a frame per row, its columns beyond the row's rank zeroed: the zero
    # columns change the summation, so only the row alone is bit-equal
    ranks = rng.integers(0, dim + 1, size=n)
    padded = frames * (np.arange(dim) < ranks[:, np.newaxis])[:, np.newaxis, :]
    got = project_rows(padded, v)
    for row, frame, rank, p in zip(v, padded, ranks, got):
        a = Subspace.from_orthonormal(frame[:, :rank].T, dim)
        np.testing.assert_allclose(p, _ref_subspace_projection(frame[:, :rank].T, row), rtol=0, atol=1e-12)
        np.testing.assert_allclose(p, project_rows(a.basis.T, row), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(p, project_rows(frame, row))


def test_rays_from_checks_like_ray_from():
    good = np.ones((3, 2), dtype=np.complex128)
    for bad, error in (
        (1e-11, ZeroVectorError),
        (math.nan, ValueError),
        (math.inf, ValueError),
        (complex(0.0, -math.inf), ValueError),
        (complex(math.nan, 1e300), ValueError),
    ):
        rows = good.copy()
        rows[1] = bad
        with pytest.raises(error):
            rays_from(rows)
        with pytest.raises(error):
            ray_from(rows[1])


@pytest.mark.parametrize("big", [1e300, 1e155 + 1e155j, 1e308 - 1e308j])
def test_rays_from_rescales_overflowing_rows(big):
    # a finite row whose squared norm overflows (1e300) or reads NaN is the
    # same ray at unit scale; the other rows take the plain path, bit for bit
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    plain = rays_from(rows)
    rows[1] = big * np.array([1.0, 0.5j])
    got = rays_from(rows)
    assert np.array_equal(got[[0, 2]], plain[[0, 2]])
    assert p_sims(got[1], ray_from([1.0, 0.5j]).rep) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(ray_from(rows[1]).rep, got[1])


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
    # the lattice verdicts, on rays as rank-1 subspaces and on the planes
    # span(x, y) and span(y, z), with a zero column where the pair is one
    # ray: row for row their single forms and their defects at EPS_ABS
    xy, yz = (orthonormalize_rows(np.stack(pair, axis=1))[0].swapaxes(1, 2) for pair in ((x, y), (y, z)))
    span_xy, span_yz = ([Subspace.from_columns(q) for q in qs] for qs in (xy, yz))
    xs, zs = x[..., np.newaxis], z[..., np.newaxis]
    ray_x, _, ray_z = zip(*rays)
    cases = (
        (contained_subspaces(zs, xy), containment_defects(zs, xy), list(map(is_member, ray_z, span_xy))),
        (orthogonal_subspaces(xs, yz), orthogonality_defects(xs, yz), list(map(is_orthogonal, ray_x, span_yz))),
        (commuting_subspaces(xy, yz), commutation_defects(xy, yz), list(map(commutes, span_xy, span_yz))),
    )
    for verdict, defects, single in cases:
        assert verdict.any() and (dim == 2 or not verdict.all())  # in C², most planes are the space
        np.testing.assert_array_equal(verdict, defects <= EPS_ABS)
        assert verdict.tolist() == single
    equal = equal_subspaces(xy, yz)
    assert equal.any() and (dim == 2 or not equal.all())
    assert equal.tolist() == list(map(subspaces_equal, span_xy, span_yz))


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
    keep = ~sampling.near_orthogonal(x2, y2, z2)
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

    def near_orthogonal(rays):  # reference: every pair of each tuple, one by one
        pairs = [list(itertools.combinations(row, 2)) for row in zip(*rays)]
        return np.array([min(abs(_inner(u, v)) for u, v in row) <= MIN_OVERLAP for row in pairs])

    for k in (2, 3, 4):
        *rays, skip = sampling.nonorthogonal_rays(rng, n, dim, k)
        np.testing.assert_array_equal(skip, near_orthogonal(rays))
        # plant overlaps 0, MIN_OVERLAP / 2 and 2 MIN_OVERLAP between the first and last stacks
        u, v = rays[0][:12], rays[-1][:12]
        w = v - inners(v, u)[:, np.newaxis] * u
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        eps = np.repeat([0.0, 0.5 * MIN_OVERLAP, 2.0 * MIN_OVERLAP], 4)[:, np.newaxis]
        rays[-1][:12] = np.sqrt(1.0 - eps**2) * w + eps * u
        planted = sampling.near_orthogonal(*rays)
        np.testing.assert_array_equal(planted, near_orthogonal(rays))
        assert planted[:8].all() and not planted[8:12].any()
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
    m = dim + 3
    for n in (40, 256, 1):  # a stack, a wide stack, a single set
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


def _calculus_cases(rng, dim, n=30):
    """Stacked (alpha, beta, x): commuting pairs, generic pairs, the
    null-event rows x ⊥ alpha, p(x, alpha) = 1e-11 (a null event with a
    nonzero projection), x in alpha and alpha = falsehood, and from
    d = 4 pairs that do not commute but commute locally at x: two planes
    sharing one frame direction, tilted in the plane of the next two,
    with x off that plane."""
    a_c, b_c = sampling.commuting_pairs(rng, n, dim)
    x_c = sampling.random_rays(rng, n, dim)
    a_g, b_g = (sampling.random_subspaces(rng, n, dim, 1, dim - 1) for _ in range(2))
    x_g = sampling.random_rays(rng, n, dim)
    frame = random_frames(rng, n, dim, dim)
    a_n = sampling.column_ranges(frame, 0, dim // 2)
    b_n = sampling.random_subspaces(rng, n, dim, 0, dim)
    x_perp, x_in = frame[..., -1], frame[..., 0]
    x_near = np.sqrt(1.0 - 1e-11) * x_perp + np.sqrt(1e-11) * x_in
    alpha = [a_c, a_g, a_n, a_n, a_n, np.zeros_like(a_n)]
    beta = [b_c, b_g, b_n, b_n, b_n, b_n]
    x = [x_c, x_g, x_perp, x_near, x_in, x_in]
    if dim >= 4:
        for qs in (alpha, beta):
            tilt = (frame[..., 1:3] @ gaussian_stack(rng, (n, 2, 1)))[..., 0]
            plane = orthonormalize_rows(np.stack([frame[..., 0], tilt], axis=1))[0].swapaxes(1, 2)
            qs.append(np.pad(plane, ((0, 0), (0, 0), (0, dim - 2))))
        x.append(rays_from(0.5 * frame[..., 0] + (frame[..., 3:] @ gaussian_stack(rng, (n, dim - 3, 1)))[..., 0]))
    return np.concatenate(alpha), np.concatenate(beta), np.concatenate(x)


def _ref_chain(x, subspaces):
    """p(x, q1), p(q1(x), q2), … by project_ray and p_prop, up to and
    including the first at most ``EPS_ABS``: after a null event the
    later values are meaningless."""
    ps, state = [], x
    for s in subspaces:
        ps.append(p_prop(state, s))
        if ps[-1] <= EPS_ABS:
            break
        state = project_ray(s, state)
    return ps


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_calculus_kernels_match_loop(dim):
    # the measurement chain and the chain-rule and total-probability
    # residuals it carries, one row at a time through the public projections
    rng = np.random.default_rng(150 + dim)
    qa, qb, x = _calculus_cases(rng, dim)
    stacks = {"a": qa, "b": qb}
    chains = {c: np.stack(measurement_chain(x, *(stacks[s] for s in c))) for c in ("a", "ab", "bab")}
    chain_rule = chain_rule_residuals(qa, qb, x)
    total, undefined = total_probability_residuals(qa, qb, x)
    local = 0
    for i in range(len(x)):
        a, b = Subspace.from_columns(qa[i]), Subspace.from_columns(qb[i])
        xi = ray_from(x[i])
        for c, ps in chains.items():
            ref = _ref_chain(xi, [{"a": a, "b": b}[s] for s in c])
            np.testing.assert_allclose(ps[: len(ref), i], ref, rtol=0, atol=1e-12)
        p_meet, p_xa = p_prop(xi, meet(a, b)), p_prop(xi, a)
        ref = p_meet if p_xa <= EPS_ABS else abs(p_meet - p_xa * p_prop(project_ray(a, xi), b))
        assert chain_rule[i] == pytest.approx(ref, abs=1e-12)
        terms = 0.0
        for s in (a, ortho_complement(a)):
            if p_prop(xi, s) > EPS_ABS:
                terms += p_prop(xi, s) * p_prop(project_ray(s, xi), b)
        assert total[i] == pytest.approx(abs(p_prop(xi, b) - terms), abs=1e-12)
        ab, ba = project_ray(a, project_ray(b, xi)), project_ray(b, project_ray(a, xi))
        if ab is ZERO or ba is ZERO:
            agree = ab is ZERO and ba is ZERO
        else:
            agree = rays_equal(ab, ba)
        assert undefined[i] == (not commutes(a, b) and not agree)
        local += agree and not commutes(a, b)
    assert (local > 0) == (dim >= 4)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_ortho_additivity_matches_loop(count):
    # generic families, so the residual is not zero: the kernel reads the
    # same formula whether or not the family is orthogonal
    rng = np.random.default_rng(160 + count)
    dim, n = 5, 20
    parts = [sampling.random_subspaces(rng, n, dim, 0, 2) for _ in range(count)]
    x = sampling.random_rays(rng, n, dim)
    residual = ortho_additivity_residuals(x, *parts)
    for i in range(n):
        xi = ray_from(x[i])
        subspaces = [Subspace.from_columns(q[i]) for q in parts]
        joined = subspaces[0]
        for s in subspaces[1:]:
            joined = join(joined, s)
        ref = p_prop(xi, joined) - sum(p_prop(xi, s) for s in subspaces)
        assert residual[i] == pytest.approx(abs(ref), abs=1e-12)
