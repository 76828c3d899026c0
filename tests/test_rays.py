"""Rays, subspaces, projections, lattice operations, commutation."""

import math

import numpy as np
import pytest

from raygeo import (
    ZERO,
    DimensionMismatchError,
    Ray,
    Subspace,
    ZeroVectorError,
    commutes,
    is_member,
    is_orthogonal,
    join,
    meet,
    ortho_complement,
    project_ray,
    ray_from,
    rays_equal,
    subspaces_equal,
)

from raygeo.rays import project_rows, projectors, rays_from

RT2 = math.sqrt(2.0)


class TestRayFrom:
    def test_phase_canonicalization(self):
        x = ray_from([0.0, 2.0j])
        np.testing.assert_allclose(x.rep, [0.0, 1.0], atol=1e-15)

    def test_normalization(self):
        x = ray_from([1.0, 1.0])
        np.testing.assert_allclose(x.rep, [1 / RT2, 1 / RT2])

    def test_sign_canonicalization(self):
        x = ray_from([-1.0, 0.0])
        np.testing.assert_allclose(x.rep, [1.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for c in (2.0, -3.5, 1j, 0.1 - 0.7j):
            assert rays_equal(ray_from(v), ray_from(c * v))
            np.testing.assert_allclose(ray_from(v).rep, ray_from(c * v).rep, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            ray_from([0.0, 0.0])

    @pytest.mark.parametrize("v", [[], [[1.0, 0.0], [0.0, 1.0]]], ids=["empty", "2-D"])
    def test_not_a_vector_rejected(self, v):
        with pytest.raises(ValueError, match="non-empty one-dimensional vector"):
            ray_from(v)

    @pytest.mark.parametrize("v", [1.0, np.zeros((3, 0))], ids=["scalar", "empty-rows"])
    def test_stack_not_of_vectors_rejected(self, v):
        with pytest.raises(ValueError, match="stack of non-empty vectors"):
            rays_from(v)

    def test_rep_is_read_only(self):
        x = ray_from([1.0, 2.0])
        with pytest.raises(ValueError):
            x.rep[0] = 5.0

    def test_hash_consistent_with_equality(self):
        x, same, other = ray_from([1.0, 2.0]), ray_from([1.0, 2.0]), ray_from([2.0, 1.0])
        assert x == same and hash(x) == hash(same)
        assert x != other and len({x, same, other}) == 2


class TestSubspaceDim:
    """Every constructor refuses a ``dim`` that is not a positive integer
    before it builds an array, where ``int()`` would coerce it."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda dim: Subspace.from_vectors([[1.0, 0.0]], dim=dim),
            lambda dim: Subspace.from_vectors([], dim=dim),
            lambda dim: Subspace.from_orthonormal(np.eye(2)[:1], dim),
            Subspace.falsehood,
            Subspace.truth,
        ],
        ids=["from_vectors", "from_vectors_empty", "from_orthonormal", "falsehood", "truth"],
    )
    @pytest.mark.parametrize("dim", [2.5, 2.0, 0, -1, True, "2"])
    def test_dim_not_a_positive_integer_refused(self, build, dim):
        with pytest.raises(ValueError, match="dim must be a positive integer") as err:
            build(dim)
        assert not isinstance(err.value, DimensionMismatchError)

    def test_numpy_dim_held_as_int(self):
        for s in (Subspace.truth(np.int64(2)), Subspace.from_vectors([], dim=np.int32(2))):
            assert type(s.dim) is int and s.dim == 2

    def test_no_vectors_without_dim_refused(self):
        with pytest.raises(ValueError, match="dim is required"):
            Subspace.from_vectors([[0.0, 0.0]])

    def test_declared_dim_must_match(self):
        with pytest.raises(DimensionMismatchError, match="declared dim 3, vectors have dim 2"):
            Subspace.from_vectors([[1.0, 0.0]], dim=3)


class TestSubspaceFromOrthonormal:
    def test_holds_a_copy_of_its_rows(self):
        rows = np.eye(3, dtype=complex)[:2]
        s = Subspace.from_orthonormal(rows, 3)
        before = hash(s)
        rows[0, 0] = 5.0
        np.testing.assert_array_equal(s.basis, np.eye(3)[:2])
        assert hash(s) == before
        assert s == Subspace.from_orthonormal(np.eye(3)[:2], 3)


class TestProjectVec:
    """One vector projected by the stacked kernel, ``project_rows(a.basis.T, u)``."""

    def test_coordinate_projection(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        np.testing.assert_allclose(project_rows(a.basis.T, np.array([1.0, 1.0])), [1.0, 0.0])

    def test_truth_is_identity(self):
        a = Subspace.truth(3)
        u = np.array([1.0, 2.0, 3.0j])
        np.testing.assert_allclose(project_rows(a.basis.T, u), u)

    def test_diagonal_line_by_hand(self):
        a = Subspace.from_vectors([[1 / RT2, 1 / RT2]])
        u = np.array([1.0, 0.0])
        np.testing.assert_allclose(project_rows(a.basis.T, u), [0.5, 0.5], atol=1e-15)

    def test_falsehood_annihilates(self):
        a = Subspace.falsehood(2)
        np.testing.assert_allclose(project_rows(a.basis.T, np.array([1.0, 1.0])), [0.0, 0.0])

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(5)
        a = Subspace.from_vectors(rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        resid = u - project_rows(a.basis.T, u)
        assert np.max(np.abs(a.basis.conj() @ resid)) < 1e-12

    def test_dimension_mismatch(self):
        # the kernel leaves the dimension check to its single form
        with pytest.raises(DimensionMismatchError):
            project_ray(Subspace.truth(3), ray_from([1.0, 0.0]))


class TestProjectRay:
    def test_member_is_fixed(self):
        a = Subspace.from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x = ray_from([1.0, 1.0, 0.0])
        assert rays_equal(project_ray(a, x), x)

    def test_orthogonal_gives_zero(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        assert project_ray(a, ray_from([0.0, 1.0])) is ZERO

    def test_diagonal_to_axis(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        got = project_ray(a, ray_from([1.0, 1.0]))
        assert rays_equal(got, ray_from([1.0, 0.0]))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        a = Subspace.from_vectors(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        x = ray_from(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        once = project_ray(a, x)
        assert rays_equal(project_ray(a, once), once)

    def test_zero_maps_to_zero(self):
        a = Subspace.truth(2)
        assert project_ray(a, ZERO) is ZERO


class TestComplement:
    def test_truth_to_falsehood(self):
        assert ortho_complement(Subspace.truth(3)).rank == 0
        assert ortho_complement(Subspace.falsehood(3)).rank == 3

    def test_axis_complement(self):
        na = ortho_complement(Subspace.from_vectors([[1.0, 0.0]]))
        assert subspaces_equal(na, Subspace.from_vectors([[0.0, 1.0]]))

    def test_diagonal_plane_complement(self):
        a = Subspace.from_vectors([[1 / RT2, 1 / RT2, 0.0]])
        na = ortho_complement(a)
        assert na.rank == 2
        assert is_member(ray_from([0.0, 0.0, 1.0]), na)

    def test_double_complement(self):
        rng = np.random.default_rng(9)
        a = Subspace.from_vectors(rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
        assert subspaces_equal(ortho_complement(ortho_complement(a)), a)


class TestMeetJoin:
    def test_meet_with_truth(self):
        a = Subspace.from_vectors([[1.0, 0.0, 0.0]])
        assert subspaces_equal(meet(a, Subspace.truth(3)), a)

    def test_meet_with_complement_is_falsehood(self):
        a = Subspace.from_vectors([[1.0, 2.0, 0.0]])
        assert meet(a, ortho_complement(a)).rank == 0

    def test_plane_intersection(self):
        e = np.eye(3)
        ab = meet(Subspace.from_vectors([e[0], e[1]]), Subspace.from_vectors([e[1], e[2]]))
        assert subspaces_equal(ab, Subspace.from_vectors([e[1]]))

    def test_join_with_falsehood(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        assert subspaces_equal(join(a, Subspace.falsehood(2)), a)

    def test_join_with_complement_is_truth(self):
        a = Subspace.from_vectors([[1.0, 1.0j, 0.0]])
        assert join(a, ortho_complement(a)).rank == 3

    def test_join_spans(self):
        e = np.eye(2)
        got = join(Subspace.from_vectors([e[0]]), Subspace.from_vectors([[1.0, 1.0]]))
        assert got.rank == 2


class TestMembershipOrthogonality:
    def test_basis_ray_in_own_span(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        assert is_member(ray_from([1.0, 0.0]), a)

    def test_orthogonal_not_member(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        assert not is_member(ray_from([0.0, 1.0]), a)

    def test_diagonal_in_plane(self):
        a = Subspace.from_vectors([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert is_member(ray_from([1.0, 1.0, 0.0]), a)

    def test_orthogonal_rays(self):
        assert is_orthogonal(ray_from([1.0, 0.0]), ray_from([0.0, 1.0]))
        assert not is_orthogonal(ray_from([1.0, 0.0]), ray_from([1.0, 0.0]))

    def test_antidiagonal(self):
        assert is_orthogonal(ray_from([1.0, 1.0]), ray_from([1.0, -1.0]))

    def test_falsehood_is_orthogonal_to_everything(self):
        assert is_orthogonal(Subspace.falsehood(2), Subspace.truth(2))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            is_orthogonal(ray_from([1.0, 0.0]), Subspace.truth(3))

    def test_non_lattice_argument_raises(self):
        with pytest.raises(TypeError, match="expected Ray or Subspace, got str"):
            is_orthogonal(ray_from([1.0, 0.0]), "x")


class TestCommutes:
    def test_complement_commutes(self):
        a = Subspace.from_vectors([[1.0, 2.0j, 0.5]])
        assert commutes(a, ortho_complement(a))

    def test_self_commutes(self):
        a = Subspace.from_vectors([[1.0, 1.0]])
        assert commutes(a, a)

    def test_tilted_lines_do_not_commute(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        b = Subspace.from_vectors([[1.0, 1.0]])
        assert not commutes(a, b)

    def test_projector_matrix_laws(self):
        rng = np.random.default_rng(13)
        a = Subspace.from_vectors(rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        p = projectors(a.basis.T)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)


def test_subspace_json_shape_roundtrip_is_orthonormalized():
    # from_vectors cleans whatever a round trip produces
    a = Subspace.from_vectors([[2.0, 0.0, 0.0], [2.0, 2.0, 0.0]])
    assert a.rank == 2
    gram = a.basis @ a.basis.conj().T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_orthomodular_smoke():
    # for nested a <= b: b = a v (~a ^ b)
    rng = np.random.default_rng(21)
    frame = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0].T
    a = Subspace.from_vectors(frame[:1])
    b = Subspace.from_vectors(frame[:3])
    rebuilt = join(a, meet(ortho_complement(a), b))
    assert subspaces_equal(rebuilt, b)
