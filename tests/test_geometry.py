"""Similarity, triple phase, coplanarity, reciprocity, primed triples.

The complex worked triple used throughout: x on the first axis,
y the real diagonal, z the circular diagonal in C².  Its phase is
arg<u,v> + arg<v,w> + arg<w,u> = 0 + (−π/4) + 0 = −π/4, by hand.
"""

import math

import numpy as np
import pytest

from raygeo import (
    DegenerateTripleError,
    DimensionMismatchError,
    OrthogonalPairError,
    Ray,
    RegularMap,
    Subspace,
    SuperpositionSpec,
    a_sim,
    apply_ray,
    check_interference_inequality,
    check_total_probability,
    coplanar,
    is_orthogonal,
    omega,
    p_of_superposition_closed_form,
    p_prop,
    p_sim,
    prime_triple,
    ray_from,
    rays_equal,
    reciprocity_holds,
    theta,
    triple_phase,
)
from raygeo.geometry import complement_projections
from raygeo.linalg import circular_distances

RT2 = math.sqrt(2.0)
RT3 = math.sqrt(3.0)


@pytest.fixture
def worked_triple():
    return ray_from([1.0, 0.0]), ray_from([1.0, 1.0]), ray_from([1.0, 1.0j])


class TestOverlap:
    def test_self_overlap_is_one(self):
        x = ray_from([0.3, 0.4j, 1.0])
        assert a_sim(x, x) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert a_sim(ray_from([1.0, 0.0]), ray_from([0.0, 1.0])) == 0.0

    def test_diagonal_overlap(self):
        assert a_sim(ray_from([1.0, 0.0]), ray_from([1.0, 1.0])) == pytest.approx(1 / RT2)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            y = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            assert 0.0 <= a_sim(x, y) <= 1.0
            assert a_sim(x, y) == pytest.approx(a_sim(y, x))


class TestSimilarity:
    def test_self(self):
        x = ray_from([1.0, 2.0])
        assert p_sim(x, x) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert p_sim(ray_from([1.0, 0.0]), ray_from([0.0, 1.0])) == 0.0

    def test_square_of_overlap(self):
        assert p_sim(ray_from([1.0, 0.0]), ray_from([1.0, 1.0])) == pytest.approx(0.5)

    def test_born_ratio(self):
        x = ray_from([1.0, 1.0, 1.0])
        plane = Subspace.from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert p_prop(x, plane) == pytest.approx(2.0 / 3.0)

    def test_member_gets_one(self):
        plane = Subspace.from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert p_prop(ray_from([1.0, 2.0, 0.0]), plane) == pytest.approx(1.0)

    def test_orthogonal_gets_zero(self):
        plane = Subspace.from_vectors([[1.0, 0.0, 0.0]])
        assert p_prop(ray_from([0.0, 0.0, 1.0]), plane) == 0.0


class TestTheta:
    def test_real_positive_triple_is_flat(self):
        x = ray_from([1.0, 0.2, 0.1])
        y = ray_from([0.5, 1.0, 0.3])
        z = ray_from([0.4, 0.2, 1.0])
        assert theta(x, y, z) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_repeat_cancels(self):
        x = ray_from([1.0, 0.0])
        y = ray_from([1.0, 1.0j])
        assert theta(x, y, x) == pytest.approx(0.0, abs=1e-12)

    def test_worked_value(self, worked_triple):
        x, y, z = worked_triple
        assert theta(x, y, z) == pytest.approx(-math.pi / 4)

    def test_orthogonal_pair_named(self):
        x = ray_from([1.0, 0.0])
        y = ray_from([0.0, 1.0])
        z = ray_from([1.0, 1.0])
        with pytest.raises(OrthogonalPairError) as err:
            theta(x, y, z)
        assert err.value.pair == ("x", "y")

    def test_cyclic_and_antisymmetric(self, worked_triple):
        x, y, z = worked_triple
        t = theta(x, y, z)
        assert circular_distances(theta(y, z, x), t) < 1e-12
        assert circular_distances(theta(x, z, y), -t) < 1e-12

    def test_representative_independence(self, worked_triple):
        x, y, z = worked_triple
        reference = theta(x, y, z)
        scrambled = triple_phase(
            x.rep * np.exp(0.7j), y.rep * (-2.0), z.rep * (3.0 * np.exp(-1.2j))
        )
        assert circular_distances(reference, scrambled) < 1e-12


class TestCoplanarity:
    def test_two_equal(self):
        x = ray_from([1.0, 0.0, 0.0])
        z = ray_from([0.0, 1.0, 1.0])
        assert coplanar(x, x, z)

    def test_orthogonal_basis_triple_not_coplanar(self):
        e = np.eye(3)
        assert not coplanar(ray_from(e[0]), ray_from(e[1]), ray_from(e[2]))

    def test_mixture_is_coplanar(self):
        y = ray_from([1.0, 0.5, 0.0])
        z = ray_from([0.2, 1.0, 0.0j])
        x = ray_from(y.rep + 0.7 * z.rep)
        assert coplanar(x, y, z)

    def test_everything_coplanar_in_two_dims(self):
        rng = np.random.default_rng(4)
        rays = [ray_from(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(3)]
        assert coplanar(*rays)

    def test_permutation_invariance(self):
        import itertools

        y = ray_from([1.0, 0.3, 0.1j])
        z = ray_from([0.3, 1.0, 0.0])
        x = ray_from(y.rep + (0.4 - 0.2j) * z.rep)
        verdicts = {coplanar(*p) for p in itertools.permutations((x, y, z))}
        assert verdicts == {True}


class TestComplementProjection:
    def test_matches_subspace_route(self):
        from raygeo import ortho_complement, project_ray

        rng = np.random.default_rng(6)
        for _ in range(25):
            x = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            y = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            rep, zero = complement_projections(x.rep, y.rep)
            via_subspace = project_ray(ortho_complement(Subspace.from_ray(x)), y)
            assert not zero and rays_equal(Ray(rep=rep), via_subspace)

    def test_collapses_on_the_ray_itself(self):
        x = ray_from([1.0, 1.0j])
        _, zero = complement_projections(x.rep, x.rep)
        assert zero  # the projection is ZERO


class TestPrimeTriple:
    def test_worked_negation(self, worked_triple):
        x, y, z = worked_triple
        primed = prime_triple(x, y, z)
        assert theta(primed.x, primed.y, primed.z) == pytest.approx(math.pi / 4)

    def test_primes_are_orthogonal_to_originals(self, worked_triple):
        x, y, z = worked_triple
        primed = prime_triple(x, y, z)
        assert is_orthogonal(primed.x, x)
        assert is_orthogonal(primed.y, y)
        assert is_orthogonal(primed.z, z)

    def test_real_triple_flat_both_ways(self):
        x = ray_from([1.0, 0.1])
        y = ray_from([1.0, 0.9])
        z = ray_from([0.5, 1.0])
        primed = prime_triple(x, y, z)
        assert theta(primed.x, primed.y, primed.z) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_equal_rays(self):
        x = ray_from([1.0, 0.0])
        z = ray_from([1.0, 1.0])
        with pytest.raises(DegenerateTripleError):
            prime_triple(x, x, z)

    def test_rejects_non_coplanar(self):
        x = ray_from([1.0, 0.1, 0.1])
        y = ray_from([0.1, 1.0, 0.1])
        z = ray_from([0.1, 0.1, 1.0])
        with pytest.raises(DegenerateTripleError):
            prime_triple(x, y, z)


class TestReciprocity:
    def test_coplanar_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            y = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            z = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x = ray_from(c[0] * y.rep + c[1] * z.rep)
            assert reciprocity_holds(x, y, z)

    def test_generic_triple_vacuous(self):
        x = ray_from([1.0, 0.2, 0.1])
        y = ray_from([0.1, 1.0, 0.4])
        z = ray_from([0.3, 0.1, 1.0])
        assert reciprocity_holds(x, y, z)

    def test_classical_model_vacuous(self):
        e = np.eye(4)
        assert reciprocity_holds(ray_from(e[0]), ray_from(e[1]), ray_from(e[2]))


# x2, y2 live in C^2 and x3, b3 in C^3: each call mixes the two dimensions.
_X2, _Y2, _X3 = ray_from([1.0, 0.5]), ray_from([0.5, 1.0]), ray_from([1.0, 0.5, 0.2])
_B3 = Subspace.from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: a_sim(_X2, _X3),
        lambda: p_sim(_X2, _X3),
        lambda: p_prop(_X2, _B3),
        lambda: theta(_X2, _Y2, _X3),
        lambda: rays_equal(_X2, _X3),
        lambda: SuperpositionSpec(y=_X2, z=_X3, r=0.5),
        lambda: omega(0.5, _X2, _X3),
        lambda: p_of_superposition_closed_form(SuperpositionSpec(y=_X2, z=_Y2, r=0.5), _X3),
        lambda: check_interference_inequality(_X2, Subspace.truth(2), _B3),
        lambda: check_total_probability(_X2, Subspace.truth(3), Subspace.falsehood(3)),
        lambda: triple_phase(_X2.rep, _Y2.rep, _X3.rep),
        lambda: apply_ray(RegularMap(np.eye(3)), _X2),
    ],
    ids=[
        "a_sim", "p_sim", "p_prop", "theta", "rays_equal", "SuperpositionSpec", "omega",
        "p_of_superposition_closed_form", "check_interference_inequality",
        "check_total_probability", "triple_phase", "apply_ray",
    ],
)
def test_mixed_dimensions_raise(call):
    with pytest.raises(DimensionMismatchError):
        call()
