"""Substrate checks: inner products, norms, angles, orthonormalization.

Expected values are hand-derived from the defining formulas (the inner
product expansion, Pythagoras, Gram-Schmidt by hand).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raygeo import (
    DimensionMismatchError,
    inner,
    norm,
    orthonormalize,
)
from raygeo.linalg import ANGLE_GUARD, EPS_ABS, check_count, circular_distances, wrap_angles

RT2 = math.sqrt(2.0)


class TestInner:
    def test_unit_self_product(self):
        assert inner([1, 0], [1, 0]) == 1

    def test_orthogonal_basis_vectors(self):
        assert inner([1, 0], [0, 1]) == 0

    def test_hand_expansion(self):
        # sum u_i conj(v_i) with u = (1,1)/sqrt2, v = (1,i)/sqrt2
        got = inner([1 / RT2, 1 / RT2], [1 / RT2, 1j / RT2])
        assert got == pytest.approx(0.5 - 0.5j)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner([1, 0], [1, 0, 0])

    @pytest.mark.parametrize("u", [np.eye(2), 1.0], ids=["matrix", "scalar"])
    def test_not_a_vector(self, u):
        with pytest.raises(ValueError, match="one-dimensional"):
            inner(u, u)


class TestNorm:
    def test_pythagoras(self):
        assert norm([3, 4]) == pytest.approx(5.0)

    def test_zero_vector(self):
        assert norm([0, 0]) == 0.0

    def test_complex_unit(self):
        assert norm([1 / RT2, 1j / RT2]) == pytest.approx(1.0)

    @pytest.mark.parametrize("u", [np.eye(2), 1.0], ids=["matrix", "scalar"])
    def test_not_a_vector(self, u):
        with pytest.raises(ValueError, match="one-dimensional"):
            norm(u)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi), (2 * math.pi, 0.0)],
    )
    def test_branch(self, raw, expected):
        assert wrap_angles(raw) == pytest.approx(expected)

    def test_circular_distance_crosses_cut(self):
        assert circular_distances(math.pi - 0.01, -math.pi + 0.01) == pytest.approx(0.02)


class TestOrthonormalize:
    def test_normalization(self):
        (b,) = orthonormalize([np.array([2.0, 0.0])])
        np.testing.assert_allclose(b, [1.0, 0.0])

    def test_dependent_vector_dropped(self):
        basis = orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert len(basis) == 1

    def test_gram_schmidt_by_hand(self):
        basis = orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert len(basis) == 2
        np.testing.assert_allclose(basis[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(basis[1], [0.0, 1.0], atol=1e-15)

    def test_empty_input(self):
        assert orthonormalize([]) == []

    @pytest.mark.parametrize("vectors", [[[[1.0, 0.0]]], [[]], [[], []]], ids=["2-D", "empty", "two-empty"])
    def test_not_vectors_refused(self, vectors):
        with pytest.raises(ValueError, match="non-empty one-dimensional vectors"):
            orthonormalize(vectors)

    def test_mixed_lengths_refused(self):
        with pytest.raises(DimensionMismatchError, match=r"dims \[2, 3\]"):
            orthonormalize([[1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_rank_matches_and_idempotent(self):
        rng = np.random.default_rng(3)
        vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
        vecs.append(vecs[0] + 2 * vecs[1])
        basis = orthonormalize(vecs)
        assert len(basis) == 3
        stack = np.array(basis)
        np.testing.assert_allclose(stack @ stack.conj().T, np.eye(3), atol=1e-12)
        again = orthonormalize(basis)
        for a, b in zip(basis, again):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_agrees_with_qr_rank(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            vecs = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(k)]
            assert len(orthonormalize(vecs)) == np.linalg.matrix_rank(np.array(vecs))

    @pytest.mark.parametrize("row", [[1e200, 0.0], [1e155 + 1e155j, 0.0]])
    def test_overflowing_norm_rescaled(self, row):
        # the row is rescaled before Gram–Schmidt, where w / inf would
        # keep a zero row; its span is e1
        (basis,) = orthonormalize([np.array(row), [1e200, 0.0]])
        assert abs(inner(basis, [1.0, 0.0])) ** 2 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("row", [[math.nan, 0.0], [1.0, math.inf], [complex(0.0, -math.inf), 1e200]])
    def test_nonfinite_entry_rejected(self, row):
        with pytest.raises(ValueError, match="must be finite"):
            orthonormalize([np.array(row, dtype=complex)])


class TestCounts:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(2)])
    def test_positive_integer_returned_as_int(self, value):
        count = check_count(value, "dim")
        assert count == value and type(count) is int

    @pytest.mark.parametrize("value", [0, -1, 2.5, 2.0, True, "3", None, np.float64(2.0)])
    def test_other_values_refused(self, value):
        # int() would truncate 2.5, parse "3" and read True as 1
        with pytest.raises(ValueError, match=r"^dim must be a positive integer, got "):
            check_count(value, "dim")

class TestTolerance:
    def test_defaults(self):
        assert EPS_ABS == 1e-10
        assert ANGLE_GUARD == 1e-8


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=6, max_size=6), st.lists(finite, min_size=6, max_size=6))
def test_conjugate_symmetry(re_parts, im_parts):
    u = np.array(re_parts[:3]) + 1j * np.array(im_parts[:3])
    v = np.array(re_parts[3:]) + 1j * np.array(im_parts[3:])
    assert inner(v, u) == pytest.approx(np.conj(inner(u, v)), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, min_size=8, max_size=8))
def test_cauchy_schwarz(parts):
    u = np.array(parts[:4])
    v = np.array(parts[4:])
    assert abs(inner(u, v)) <= norm(u) * norm(v) + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_wrap_angle_is_canonical(angle):
    wrapped = float(wrap_angles(angle))
    assert -math.pi < wrapped <= math.pi
    assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
    assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)
