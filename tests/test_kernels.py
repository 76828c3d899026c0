"""Batched kernels and block lattice operations against loop references.

The references below are the per-row formulas written out one row at a
time; the theta reference is the sum of the three cyclic inner-product
arguments, compared by circular distance.  The subspace lattice
(complement, join, meet) is pinned to Gram–Schmidt written one vector
at a time: complement against the identity, join over the stacked
bases, and meet as ``¬(¬a ∨ ¬b)``.
"""

import cmath
import math

import numpy as np
import pytest

from raygeo import (
    OrthogonalPairError,
    Subspace,
    SuperpositionSpec,
    join,
    meet,
    ortho_complement,
    ray_from,
    subspaces_equal,
    superpose,
)
from raygeo.geometry import a_sims, p_sims, triple_phases
from raygeo.linalg import EPS_ABS, circular_distance
from raygeo.sampling import gaussian_stack, random_frames
from raygeo.superposition import superpose_vectors


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
    with pytest.raises(OrthogonalPairError) as err:
        triple_phases(rows, v, w)
    assert err.value.pair == ("y", "z")  # first row with a bad pair, then first pair


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
    frames = random_frames(np.random.default_rng(6), 7, 4)
    assert frames.shape == (7, 4, 4)
    eye = np.broadcast_to(np.eye(4), (7, 4, 4))
    np.testing.assert_allclose(frames.conj().swapaxes(-1, -2) @ frames, eye, atol=1e-12)
    real = gaussian_stack(np.random.default_rng(7), (5, 3), real=True)
    assert real.dtype == np.complex128 and not real.imag.any()


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
    frame = random_frames(rng, 1, dim)[0]
    a = _span(rng, frame[:ra], dim)
    big = max(ra, rb)
    shared = min(ra, rb) // 2
    commuting_b = np.concatenate([frame[:shared], frame[ra : ra + max(0, rb - shared)]])
    rest = min(rb, dim - ra)
    yield "generic", a, _span(rng, random_frames(rng, 1, dim)[0][:rb], dim), max(0, ra + rb - dim)
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
