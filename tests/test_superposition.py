"""The superposition operation and its closed forms.

The worked instance mixes the first axis and the real diagonal in C²
with equal weights: the construction vector is (1/sqrt2 + 1/2, 1/2),
and its similarity to either component is (2 + sqrt2)/4.
"""

import math

import numpy as np
import pytest

from raygeo import (
    DegenerateTripleError,
    InvalidWeightError,
    OrthogonalComponentsError,
    SuperpositionSpec,
    a_sim,
    coplanar,
    cos_theta_prime,
    inner,
    omega,
    p_component_closed_form,
    p_of_superposition_closed_form,
    p_sim,
    ray_from,
    rays_equal,
    superpose,
    theta,
)
from raygeo.linalg import ANGLE_GUARD

RT2 = math.sqrt(2.0)
WORKED_P = (2.0 + RT2) / 4.0  # 0.8535533905932737


@pytest.fixture
def axis_diag():
    return ray_from([1.0, 0.0]), ray_from([1.0, 1.0])


class TestSpecValidation:
    def test_orthogonal_components_rejected(self, axis_diag):
        y, _ = axis_diag
        with pytest.raises(OrthogonalComponentsError):
            SuperpositionSpec(y=y, z=ray_from([0.0, 1.0]), r=0.5)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_weight_range(self, bad, axis_diag):
        y, z = axis_diag
        with pytest.raises(InvalidWeightError):
            SuperpositionSpec(y=y, z=z, r=bad)

    @pytest.mark.parametrize("bad", ["0.5", b"0.5", True], ids=["str", "bytes", "bool"])
    def test_weight_not_a_number(self, bad, axis_diag):
        # float() would parse the string and bytes, and take True for 1
        y, z = axis_diag
        with pytest.raises(InvalidWeightError, match=type(bad).__name__):
            SuperpositionSpec(y=y, z=z, r=bad)

    @pytest.mark.parametrize("r", [1, 0.5, np.float32(0.25), np.int64(0)])
    def test_weight_held_as_float(self, r, axis_diag):
        y, z = axis_diag
        spec = SuperpositionSpec(y=y, z=z, r=r)
        assert type(spec.r) is float and spec.r == float(r)


class TestSuperpose:
    def test_weight_one_returns_first(self, axis_diag):
        y, z = axis_diag
        assert rays_equal(superpose(SuperpositionSpec(y=y, z=z, r=1.0)), y)

    def test_weight_zero_returns_second(self, axis_diag):
        y, z = axis_diag
        assert rays_equal(superpose(SuperpositionSpec(y=y, z=z, r=0.0)), z)

    def test_triviality(self):
        y = ray_from([0.3, 1.0j, 0.2])
        for r in (0.0, 0.25, 1.0):
            assert rays_equal(superpose(SuperpositionSpec(y=y, z=y, r=r)), y)

    def test_worked_construction(self, axis_diag):
        y, z = axis_diag
        got = superpose(SuperpositionSpec(y=y, z=z, r=0.5))
        expected = ray_from([1 / RT2 + 0.5, 0.5])
        assert rays_equal(got, expected)
        np.testing.assert_allclose(got.rep, expected.rep, atol=1e-14)

    def test_commutative_under_weight_swap(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            z = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            r = float(rng.uniform())
            a = superpose(SuperpositionSpec(y=y, z=z, r=r))
            b = superpose(SuperpositionSpec(y=z, z=y, r=1.0 - r))
            assert rays_equal(a, b)

    def test_phase_alignment_is_positive_real(self):
        # the second representative is rotated so that <v, w> > 0
        y = ray_from([1.0, 0.0])
        z = ray_from([1.0j, 1.0])  # canonical rep has a complex overlap with y
        c = inner(y.rep, z.rep)
        w = z.rep * (c / abs(c))
        aligned = inner(y.rep, w)
        assert aligned.imag == pytest.approx(0.0, abs=1e-15)
        assert aligned.real > 0

    def test_representative_choice_does_not_matter(self):
        y = ray_from([1.0, 0.3j, 0.2])
        z = ray_from([0.5, 1.0, -0.4j])
        r = 0.3
        # redo the construction from a phase-rotated first representative
        v = y.rep * np.exp(2.1j)
        c = inner(v, z.rep)
        w = z.rep * (c / abs(c))
        u = math.sqrt(r) * v + math.sqrt(1 - r) * w
        assert rays_equal(ray_from(u), superpose(SuperpositionSpec(y=y, z=z, r=r)))

    def test_coplanar_with_components(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            z = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            s = superpose(SuperpositionSpec(y=y, z=z, r=float(rng.uniform())))
            assert coplanar(s, y, z)


class TestOmega:
    def test_weight_zero(self, axis_diag):
        y, z = axis_diag
        assert omega(0.0, y, z) == 1.0

    def test_equal_components_half(self):
        y = ray_from([1.0, 1.0j])
        assert omega(0.5, y, y) == pytest.approx(2.0)

    def test_plugin_value(self, axis_diag):
        y, z = axis_diag  # p(y,z) = 1/2
        assert omega(0.5, y, z) == pytest.approx(1.0 + 1.0 / RT2)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            y = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            z = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            w = omega(float(rng.uniform()), y, z)
            assert 1.0 <= w <= 2.0 + 1e-12


class TestClosedForm:
    def test_component_weight_one(self, axis_diag):
        y, z = axis_diag
        spec = SuperpositionSpec(y=y, z=z, r=1.0)
        assert p_of_superposition_closed_form(spec, y) == pytest.approx(1.0)

    def test_worked_value_against_direct_projector(self, axis_diag):
        y, z = axis_diag
        spec = SuperpositionSpec(y=y, z=z, r=0.5)
        direct = p_sim(superpose(spec), y)
        assert direct == pytest.approx(WORKED_P, abs=1e-12)
        assert p_of_superposition_closed_form(spec, y) == pytest.approx(direct, rel=1e-12)

    def test_real_euclidean_instances_match(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            y = ray_from(rng.standard_normal(4))
            z = ray_from(rng.standard_normal(4))
            x = ray_from(rng.standard_normal(4))
            spec = SuperpositionSpec(y=y, z=z, r=float(rng.uniform()))
            direct = p_sim(superpose(spec), x)
            closed = p_of_superposition_closed_form(spec, x)
            assert closed == pytest.approx(direct, abs=1e-12)

    def test_test_state_orthogonal_to_a_component(self):
        # x is y projected off z, so |<z, x>| is rounding noise, often
        # below ANGLE_GUARD: the phase must not be read there
        rng = np.random.default_rng(8)
        unread = 0
        for _ in range(1000):
            y = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            z = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            x = ray_from(y.rep - inner(y.rep, z.rep) * z.rep)
            unread += a_sim(z, x) <= ANGLE_GUARD
            spec = SuperpositionSpec(y=y, z=z, r=0.5)
            direct = p_sim(superpose(spec), x)
            assert p_of_superposition_closed_form(spec, x) == pytest.approx(direct, abs=1e-12)
        assert unread > 0

    def test_component_form_matches(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            y = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            z = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            spec = SuperpositionSpec(y=y, z=z, r=float(rng.uniform()))
            assert p_component_closed_form(spec) == pytest.approx(
                p_sim(superpose(spec), y), abs=1e-12
            )


class TestDominance:
    """Mixing in any amount of y moves the superposition closer to y
    than z ever was: p(superpose(y, z, r), y) > p(y, z) for r > 0."""

    def test_weight_one(self, axis_diag):
        y, z = axis_diag
        spec = SuperpositionSpec(y=y, z=z, r=1.0)
        assert p_sim(superpose(spec), y) == pytest.approx(1.0)
        assert 1.0 > p_sim(y, z)

    def test_worked_margin(self, axis_diag):
        y, z = axis_diag
        spec = SuperpositionSpec(y=y, z=z, r=0.5)
        got = p_sim(superpose(spec), y)
        assert got == pytest.approx(WORKED_P, abs=1e-12)
        assert got > p_sim(y, z)

    def test_limit_from_above(self, axis_diag):
        y, z = axis_diag
        values = [p_sim(superpose(SuperpositionSpec(y=y, z=z, r=r)), y) for r in (0.1, 0.01, 0.001)]
        p_yz = p_sim(y, z)
        assert all(v > p_yz for v in values)
        assert values[-1] == pytest.approx(p_yz, abs=0.05)


class TestCosThetaPrime:
    def test_real_planar_formula(self):
        x = ray_from([1.0, 0.2])
        xp = ray_from([-0.2, 1.0])
        y = ray_from([1.0, 0.8])
        z = ray_from([0.4, 1.0])
        expected = (
            math.sqrt(p_sim(y, z)) - math.sqrt(p_sim(x, y) * p_sim(x, z))
        ) / math.sqrt((1 - p_sim(x, y)) * (1 - p_sim(x, z)))
        assert cos_theta_prime(x, xp, y, z) == pytest.approx(expected, abs=1e-12)

    def test_equal_yz_reduces_to_one(self):
        x = ray_from([1.0, 0.0])
        xp = ray_from([0.0, 1.0])
        y = ray_from([1.0, 1.0])
        assert cos_theta_prime(x, xp, y, y) == pytest.approx(1.0)

    def test_worked_complex_instance(self):
        x = ray_from([1.0, 0.0])
        xp = ray_from([0.0, 1.0])
        y = ray_from([1.0, 1.0])
        z = ray_from([1.0, 1.0j])
        predicted = cos_theta_prime(x, xp, y, z)
        assert predicted == pytest.approx(1.0 / RT2, abs=1e-9)
        assert predicted == pytest.approx(math.cos(theta(xp, y, z)), abs=1e-9)

    def test_rejects_unit_similarity_denominator(self):
        x = ray_from([1.0, 0.0])
        xp = ray_from([0.0, 1.0])
        near_x = ray_from([1.0, 1e-6])  # 1 − p(x, near_x) below EPS_ABS
        with pytest.raises(DegenerateTripleError):
            cos_theta_prime(x, xp, near_x, ray_from([1.0, 0.5]))

    @pytest.mark.parametrize(
        "x_perp, y, match",
        [
            ([1.0, 1.0], [1.0, 0.5], "must be orthogonal"),
            ([0.0, 1.0], [1.0, 1e-9], "non-orthogonality"),  # a_sim(x_perp, y) below ANGLE_GUARD
        ],
        ids=["x_perp_not_orthogonal", "near_orthogonal_pair"],
    )
    def test_rejects_violated_precondition(self, x_perp, y, match):
        x, z = ray_from([1.0, 0.0]), ray_from([1.0, 1.0])
        with pytest.raises(DegenerateTripleError, match=match):
            cos_theta_prime(x, ray_from(x_perp), ray_from(y), z)

    def test_rejects_non_coplanar(self):
        x = ray_from([1.0, 0.1, 0.0])
        xp = ray_from([-0.1, 1.0, 0.0])
        y = ray_from([1.0, 0.5, 0.0])
        z = ray_from([1.0, 0.1, 0.9])
        with pytest.raises(DegenerateTripleError):
            cos_theta_prime(x, xp, y, z)


class TestThetaOfSuperposition:
    def test_equal_tests_give_zero(self, axis_diag):
        y, z = axis_diag
        spec = SuperpositionSpec(y=y, z=z, r=0.4)
        x1 = ray_from([1.0, 0.3])
        assert theta(superpose(spec), x1, x1) == pytest.approx(0.0, abs=1e-12)

    def test_real_coplanar_is_flat(self, axis_diag):
        y, z = axis_diag
        spec = SuperpositionSpec(y=y, z=z, r=0.7)
        x1 = ray_from([1.0, 0.3])
        x2 = ray_from([0.2, 1.0])
        t = theta(superpose(spec), x1, x2)
        assert min(abs(t), abs(abs(t) - math.pi)) < 1e-10

    def test_vanishes_against_components(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            z = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            r = float(rng.uniform(0.05, 0.95))
            spec = SuperpositionSpec(y=y, z=z, r=r)
            s = superpose(spec)
            assert theta(s, y, z) == pytest.approx(0.0, abs=1e-8)
