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
    circular_distance,
    inner,
    norm,
    orthonormalize,
    wrap_angle,
)
from raygeo.linalg import ANGLE_GUARD, EPS_ABS

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


class TestNorm:
    def test_pythagoras(self):
        assert norm([3, 4]) == pytest.approx(5.0)

    def test_zero_vector(self):
        assert norm([0, 0]) == 0.0

    def test_complex_unit(self):
        assert norm([1 / RT2, 1j / RT2]) == pytest.approx(1.0)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi), (3 * math.pi, math.pi), (2 * math.pi, 0.0)],
    )
    def test_branch(self, raw, expected):
        assert wrap_angle(raw) == pytest.approx(expected)

    def test_circular_distance_crosses_cut(self):
        assert circular_distance(math.pi - 0.01, -math.pi + 0.01) == pytest.approx(0.02)


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
    wrapped = wrap_angle(angle)
    assert -math.pi < wrapped <= math.pi
    assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
    assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)
