"""Induced ray maps, isometry detection, and the characterization."""

import numpy as np
import pytest

from raygeo import (
    NotIsometryError,
    RegularMap,
    apply_ray,
    check_char_morph,
    check_preserves_p_theta,
    isometry_scale,
    p_sim,
    preserves_superpositions,
    ray_from,
    rays_equal,
)
from raygeo.morphisms import _padded_frames, apply_rays
from raygeo.rays import equal_rays, rays_from
from raygeo.sampling import gaussian_stack


def _unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


class TestRegularMap:
    def test_rejects_non_injective(self):
        with pytest.raises(ValueError, match="not injective"):
            RegularMap(np.array([[1.0, 1.0], [1.0, 1.0]]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                RegularMap(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValueError, match="not injective"):
            RegularMap(np.ones((1, 2)))
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                RegularMap(np.array([[1.0, bad]]))

    @pytest.mark.parametrize("scale", [1e-200, 1e-12, 1e200])
    def test_scale_changes_no_verdict(self, scale):
        # any nonzero multiple of a matrix induces the same ray map
        u = _unitary(np.random.default_rng(16), 3)
        f, g = RegularMap(scale * u), RegularMap(scale * np.diag([1.0, 2.0, 1.0]))
        x = ray_from([1.0, 2.0j, -3.0])
        assert rays_equal(apply_ray(f, x), apply_ray(RegularMap(u), x))
        assert isometry_scale(f) == pytest.approx(scale, rel=1e-12)
        assert isometry_scale(g) is None
        assert preserves_superpositions(f, trials=50, seed=3).preserves
        assert not preserves_superpositions(g, trials=50, seed=3).preserves
        assert check_char_morph(f, trials=50, seed=3) and check_char_morph(g, trials=50, seed=3)
        got = check_preserves_p_theta(f, trials=20, seed=4)
        assert got.p_residual < 1e-12 and got.theta_residual < 1e-10

    def test_ill_conditioned_is_not_injective(self):
        # its smallest singular value lies far above EPS_ABS, yet the rays
        # of (1, 1) and (1, 2) land on one ray
        m = np.diag([1e12, 1e-9])
        assert equal_rays(*(apply_rays(m, rays_from(v)) for v in ([1.0, 1.0], [1.0, 2.0])))
        with pytest.raises(ValueError, match="not injective"):
            RegularMap(m)

    @pytest.mark.parametrize("m", [np.ones(3), np.ones((3, 3, 1)), np.ones((0, 2))], ids=["1d", "3d", "empty"])
    def test_rejects_non_matrix(self, m):
        with pytest.raises(ValueError, match="non-empty 2-D matrix"):
            RegularMap(m)

    def test_wide_matrix_message_names_its_shape(self):
        with pytest.raises(ValueError, match="not injective: 2x3 has fewer rows than columns"):
            RegularMap(np.eye(2, 3))

    def test_equality_and_hash(self):
        f, g, h = RegularMap(np.eye(2)), RegularMap(np.eye(2)), RegularMap(2.0 * np.eye(2))
        assert f == g and hash(f) == hash(g)
        assert f != h and f in [h, g] and f not in [h]
        assert len({f, g, h}) == 2
        assert RegularMap(np.eye(3)[:, :2]) != RegularMap(np.eye(2))
        assert f != np.eye(2)

    def test_dims(self):
        f = RegularMap(np.eye(3)[:, :2])
        assert f.dim_in == 2
        assert f.dim_out == 3


class TestApplyRay:
    def test_identity(self):
        f = RegularMap(np.eye(2))
        x = ray_from([1.0, 2.0])
        assert rays_equal(apply_ray(f, x), x)

    def test_rotation(self):
        angle = 0.3
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        f = RegularMap(rot)
        got = apply_ray(f, ray_from([1.0, 0.0]))
        assert rays_equal(got, ray_from([np.cos(angle), np.sin(angle)]))

    def test_diagonal_stretch(self):
        f = RegularMap(np.diag([1.0, 2.0]))
        got = apply_ray(f, ray_from([1.0, 1.0]))
        assert rays_equal(got, ray_from([1.0, 2.0]))

    def test_matrix_scaling_is_invisible(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        f = RegularMap(m)
        g = RegularMap((0.3 - 1.7j) * m)
        x = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert rays_equal(apply_ray(f, x), apply_ray(g, x))


class TestIsometryScale:
    def test_unitary_is_one(self):
        rng = np.random.default_rng(1)
        f = RegularMap(_unitary(rng, 4))
        assert isometry_scale(f) == pytest.approx(1.0)

    def test_uniform_scaling(self):
        rng = np.random.default_rng(2)
        f = RegularMap(3.0 * _unitary(rng, 3))
        assert isometry_scale(f) == pytest.approx(3.0)
        assert type(isometry_scale(f)) is float

    def test_diagonal_stretch_is_not(self):
        assert isometry_scale(RegularMap(np.diag([1.0, 2.0]))) is None

    def test_embedding_columns(self):
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
        assert isometry_scale(RegularMap(q)) == pytest.approx(1.0)


class TestPreservesSuperpositions:
    def test_unitary_preserves(self):
        rng = np.random.default_rng(4)
        f = RegularMap(_unitary(rng, 3))
        report = preserves_superpositions(f, trials=100, seed=5)
        assert report.preserves
        assert report.worst_residual < 1e-10
        assert report.witness is None

    def test_scaled_unitary_preserves(self):
        rng = np.random.default_rng(5)
        f = RegularMap(2.0 * _unitary(rng, 3))
        assert preserves_superpositions(f, trials=100, seed=6).preserves

    def test_diagonal_stretch_fails_with_witness(self):
        f = RegularMap(np.diag([1.0, 2.0]))
        report = preserves_superpositions(f, trials=200, seed=7)
        assert not report.preserves
        assert report.witness is not None
        y, z, r = report.witness
        # replay the witness through the public operations
        from raygeo import SuperpositionSpec, superpose

        mapped = apply_ray(f, superpose(SuperpositionSpec(y=y, z=z, r=r)))
        direct = superpose(
            SuperpositionSpec(y=apply_ray(f, y), z=apply_ray(f, z), r=r)
        )
        assert not rays_equal(mapped, direct)

    def test_deterministic_given_seed(self):
        f = RegularMap(np.diag([1.0, 1.5, 2.0]))
        a = preserves_superpositions(f, trials=50, seed=11)
        b = preserves_superpositions(f, trials=50, seed=11)
        assert a == b


class TestCharacterization:
    def test_unitary_embedding_agrees(self):
        rng = np.random.default_rng(8)
        q = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
        assert check_char_morph(RegularMap(q), trials=80, seed=1)

    def test_perturbed_embedding_agrees(self):
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
        v = _unitary(rng, 3)
        m = q @ np.diag([1.0, 1.0, 1.4]) @ v.conj().T
        assert check_char_morph(RegularMap(m), trials=80, seed=2)

    def test_scaled_isometry(self):
        rng = np.random.default_rng(10)
        assert check_char_morph(RegularMap(0.5 * _unitary(rng, 4)), trials=80, seed=3)


class TestPreservesQuantities:
    def test_identity_residuals_zero(self):
        f = RegularMap(np.eye(3))
        got = check_preserves_p_theta(f, trials=60, seed=4)
        assert got.p_residual < 1e-14
        assert got.theta_residual < 1e-12

    def test_random_unitary(self):
        rng = np.random.default_rng(11)
        f = RegularMap(_unitary(rng, 4))
        got = check_preserves_p_theta(f, trials=60, seed=5)
        assert got.p_residual < 1e-10
        assert got.theta_residual < 1e-10

    def test_scaled_isometry_is_blind_to_scale(self):
        rng = np.random.default_rng(12)
        f = RegularMap(2.0 * _unitary(rng, 3))
        got = check_preserves_p_theta(f, trials=60, seed=6)
        assert got.p_residual < 1e-10
        assert got.theta_residual < 1e-10

    def test_rejects_non_isometry(self):
        f = RegularMap(np.diag([1.0, 2.0]))
        with pytest.raises(NotIsometryError):
            check_preserves_p_theta(f, trials=10, seed=7)


class TestSampleCount:
    @pytest.mark.parametrize("trials", [2.7, True, "5", -3, 0])
    @pytest.mark.parametrize("check", [preserves_superpositions, check_char_morph, check_preserves_p_theta])
    def test_count_not_coerced(self, check, trials):
        # int() would run 2.7 as 2 samples, True as 1, "5" as 5, and -3 as none
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            check(RegularMap(np.eye(3)), trials=trials, seed=0)

    def test_no_verdict_on_zero_samples(self):
        # zero samples preserve every superposition, so a non-isometry would
        # read as a failed characterization
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            check_char_morph(RegularMap(np.diag([1, 2, 1])), trials=0)

    def test_numpy_integer_count(self):
        f = RegularMap(np.eye(3))
        assert preserves_superpositions(f, trials=np.int64(5)) == preserves_superpositions(f, trials=5)


class TestSingletonTarget:
    """A one-dimensional target admits exactly one ray.  The constant map
    into it preserves superpositions trivially but is not induced by any
    injective linear map (unless the source is one-dimensional too), and
    it preserves neither similarity nor phase."""

    def test_constant_map_preserves_superpositions_but_not_p(self):
        from raygeo import SuperpositionSpec, superpose

        target = ray_from([1.0])

        def constant(_x):
            return target

        rng = np.random.default_rng(13)
        for _ in range(20):
            y = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            z = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            r = float(rng.uniform())
            mapped = constant(superpose(SuperpositionSpec(y=y, z=z, r=r)))
            direct = superpose(SuperpositionSpec(y=constant(y), z=constant(z), r=r))
            assert rays_equal(mapped, direct)
        # but p collapses: distinct states map to similarity one
        x1 = ray_from([1.0, 0.0, 0.0])
        x2 = ray_from([0.5, 1.0, 0.0])
        assert p_sim(constant(x1), constant(x2)) == 1.0
        assert p_sim(x1, x2) != pytest.approx(1.0)

    def test_no_injective_matrix_reaches_singleton(self):
        with pytest.raises(ValueError):
            RegularMap(np.ones((1, 3)))

    def test_one_dimensional_source_is_regular(self):
        f = RegularMap(np.array([[2.0]]))
        assert isometry_scale(f) == pytest.approx(2.0)


def test_injective_maps_separate_rays():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    f = RegularMap(m)
    for _ in range(20):
        x = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        y = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        if rays_equal(x, y):
            continue
        assert not rays_equal(apply_ray(f, x), apply_ray(f, y))


@pytest.mark.parametrize("stacks", [1, 200], ids=["one-stack", "200-stacks"])
def test_sampled_isometries_are_haar(stacks):
    # 4000 (5, 3) isometries, in one stack or in 200 of 20: with R's
    # diagonal positive, Re q[0, 0] is negative in about half the draws,
    # as under Haar measure; Householder QR without that sign fix leaves
    # it negative in every draw
    rng = np.random.default_rng(15)
    draws = [_padded_frames(rng, 4000 // stacks, 3) for _ in range(stacks)]
    q, dim_out = (np.concatenate(parts) for parts in zip(*draws))
    assert q.shape == (4000, 5, 3)
    assert 0.45 <= np.mean(q[:, 0, 0].real < 0) <= 0.55
    assert not q[np.arange(5) >= dim_out[:, np.newaxis]].any()
    eye = np.broadcast_to(np.eye(3), (4000, 3, 3))
    np.testing.assert_allclose(q.conj().swapaxes(-1, -2) @ q, eye, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("count", [20, 30, 60, 400])
def test_padded_frames_match_sign_fixed_qr(dim, count):
    # the Q factor with R's diagonal positive is unique, so Gram-Schmidt
    # gives LAPACK's sign-fixed Householder Q of the same masked draw
    rng, twin = np.random.default_rng(17), np.random.default_rng(17)
    q, dim_out = _padded_frames(rng, count, dim)
    expected_out = dim + twin.integers(0, 3, count)
    rows = np.arange(dim + 2) < expected_out[:, np.newaxis]
    g = gaussian_stack(twin, (count, dim + 2, dim)) * rows[..., np.newaxis]
    lapack_q, r = np.linalg.qr(g)
    lapack_q = lapack_q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., np.newaxis, :]
    np.testing.assert_array_equal(dim_out, expected_out)
    assert np.abs(q - lapack_q).max() <= 1e-12
