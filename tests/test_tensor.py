"""Product states: Kronecker construction, p multiplicativity, theta additivity."""

import math

import numpy as np
import pytest

from raygeo import (
    OrthogonalPairError,
    check_p_product,
    check_theta_product,
    inner,
    p_sim,
    ray_from,
    rays_equal,
    tensor_ray,
    theta,
)

RT2 = math.sqrt(2.0)


class TestTensorRay:
    def test_basis_times_basis(self):
        e1 = ray_from([1.0, 0.0])
        prod = tensor_ray(e1, e1)
        assert prod.dim == 4
        np.testing.assert_allclose(prod.rep, [1.0, 0.0, 0.0, 0.0])

    def test_diagonal_times_basis(self):
        d = ray_from([1.0, 1.0])
        e1 = ray_from([1.0, 0.0])
        got = tensor_ray(d, e1)
        assert rays_equal(got, ray_from([1 / RT2, 0.0, 1 / RT2, 0.0]))

    def test_factor_phases_do_not_matter(self):
        rng = np.random.default_rng(0)
        v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = tensor_ray(ray_from(v1), ray_from(v2))
        b = ray_from(np.kron(np.exp(1.3j) * v1, np.exp(-0.4j) * v2))
        assert rays_equal(a, b)

    def test_index_layout(self):
        x1 = ray_from([1.0, 2.0])
        x2 = ray_from([1.0, 3.0, 5.0])
        combined = tensor_ray(x1, x2)
        for i in range(2):
            for j in range(3):
                expected = x1.rep[i] * x2.rep[j]
                assert combined.rep[i * 3 + j] == pytest.approx(expected, abs=1e-12)


class TestInnerFactorization:
    def test_random_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            u1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = inner(np.kron(u1, u2), np.kron(v1, v2))
            assert lhs == pytest.approx(inner(u1, v1) * inner(u2, v2), abs=1e-10)


class TestPProduct:
    def test_identical_factors(self):
        x = ray_from([1.0, 1.0j])
        y = ray_from([0.3, 1.0])
        assert check_p_product(x, x, y, y) < 1e-14

    def test_orthogonal_factor_kills_product(self):
        e1 = ray_from([1.0, 0.0])
        e2 = ray_from([0.0, 1.0])
        y = ray_from([0.5, 1.0])
        prod = tensor_ray(e1, y)
        prod2 = tensor_ray(e2, y)
        assert p_sim(prod, prod2) == pytest.approx(0.0, abs=1e-14)

    def test_random_2x3(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            x1 = ray_from(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            y1 = ray_from(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            x2 = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            y2 = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            assert check_p_product(x1, y1, x2, y2) < 1e-10


class TestThetaProduct:
    def test_constant_second_triple_reduces(self):
        x1 = ray_from([1.0, 0.0])
        y1 = ray_from([1.0, 1.0])
        z1 = ray_from([1.0, 1.0j])
        w = ray_from([0.4, 1.0])
        assert check_theta_product(x1, y1, z1, w, w, w) < 1e-12

    def test_two_real_triples_flat(self):
        a = ray_from([1.0, 0.2])
        b = ray_from([0.7, 1.0])
        c = ray_from([1.0, 0.9])
        d = ray_from([1.0, 0.1, 0.2])
        e = ray_from([0.5, 1.0, 0.1])
        f = ray_from([0.2, 0.4, 1.0])
        assert check_theta_product(a, b, c, d, e, f) < 1e-12

    def test_worked_quarter_turn_doubles(self):
        # the hand triple has phase −π/4; its square must land on −π/2
        x = ray_from([1.0, 0.0])
        y = ray_from([1.0, 1.0])
        z = ray_from([1.0, 1.0j])
        assert theta(x, y, z) == pytest.approx(-math.pi / 4)
        tx = tensor_ray(x, x)
        ty = tensor_ray(y, y)
        tz = tensor_ray(z, z)
        assert theta(tx, ty, tz) == pytest.approx(-math.pi / 2)
        assert check_theta_product(x, y, z, x, y, z) < 1e-12

    @pytest.mark.parametrize(
        "factors, pair",
        [
            # x1 ⊥ y1: the first factor names its pair first
            ((([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]), ([0.4, 1.0],) * 3), ("x", "y")),
            # y2 ⊥ z2 in the second factor
            ((([1.0, 0.0], [1.0, 1.0], [1.0, 1.0j]), ([1.0, 0.0], [1.0, 1.0], [1.0, -1.0])), ("y", "z")),
            # each factor clears the guard at overlap ~1e-5; the product (~1e-10) does not
            ((([1.0, 0.0], [1e-5, 1.0], [1.0, 1.0]),) * 2, ("x", "y")),
        ],
    )
    def test_orthogonal_pair_raises(self, factors, pair):
        rays = [ray_from(v) for triple in factors for v in triple]
        with pytest.raises(OrthogonalPairError) as err:
            check_theta_product(*rays)
        assert err.value.pair == pair

    def test_random_2x3(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 30:
            rays1 = [ray_from(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(3)]
            rays2 = [ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(3)]
            from raygeo import a_sim

            pairs1 = [(rays1[i], rays1[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
            pairs2 = [(rays2[i], rays2[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
            if min(a_sim(u, v) for u, v in pairs1 + pairs2) < 1e-3:
                continue
            assert check_theta_product(*rays1, *rays2) < 1e-10
            done += 1
