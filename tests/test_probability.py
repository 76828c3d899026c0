"""Probability calculus checks and the interference-inequality search.

The frozen witness below is the first real 3-dimensional instance the
seeded search (seed 42, per-trial substreams) finds where the
NON-squared inequality fails; its values are pinned as a regression
fixture and it must still satisfy the squared inequality.
"""

import math

import numpy as np
import pytest

from raygeo import (
    NotCommutingError,
    NotContainedError,
    NotOrthogonalError,
    PreconditionUnmetError,
    Subspace,
    check_chain_rule,
    check_complement,
    check_inclusion_exclusion,
    check_interference_inequality,
    check_monotone,
    check_ortho_additivity,
    check_total_probability,
    decompose_commuting,
    join,
    meet,
    ortho_complement,
    p_prop,
    project_ray,
    ray_from,
    search_nonsquared_counterexample,
    subspaces_equal,
)

E3 = np.eye(3)
E5 = np.eye(5)


def _random_commuting(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    frame = np.linalg.qr(g)[0].T
    in_a = rng.random(dim) < 0.5
    in_b = rng.random(dim) < 0.5
    return (
        Subspace.from_orthonormal(frame[in_a], dim),
        Subspace.from_orthonormal(frame[in_b], dim),
    )


class TestOrthoAdditivity:
    def test_with_falsehood(self):
        a = Subspace.from_vectors([E3[0]])
        x = ray_from([1.0, 1.0, 1.0])
        assert check_ortho_additivity(x, a, Subspace.falsehood(3)) < 1e-14

    def test_complementary_axes_sum_to_one(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        b = Subspace.from_vectors([[0.0, 1.0]])
        x = ray_from([0.6, 0.8j])
        assert check_ortho_additivity(x, a, b) < 1e-14
        assert p_prop(x, a) + p_prop(x, b) == pytest.approx(1.0)

    def test_random_orthogonal_pair(self):
        rng = np.random.default_rng(0)
        frame = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0].T
        a = Subspace.from_orthonormal(frame[:2], 5)
        b = Subspace.from_orthonormal(frame[2:4], 5)
        x = ray_from(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert check_ortho_additivity(x, a, b) < 1e-10

    def test_rejects_non_orthogonal(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        b = Subspace.from_vectors([[1.0, 1.0]])
        with pytest.raises(NotOrthogonalError):
            check_ortho_additivity(ray_from([1.0, 2.0]), a, b)


class TestComplement:
    def test_truth(self):
        x = ray_from([1.0, 1.0j, 0.0])
        assert check_complement(x, Subspace.truth(3)) < 1e-14

    def test_member(self):
        a = Subspace.from_vectors([E3[0], E3[1]])
        assert check_complement(ray_from([1.0, 1.0, 0.0]), a) < 1e-14

    def test_random(self):
        rng = np.random.default_rng(1)
        a = Subspace.from_vectors(rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        x = ray_from(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert check_complement(x, a) < 1e-10


class TestInclusionExclusion:
    def test_complement_pair_reduces(self):
        a = Subspace.from_vectors([E3[0]])
        x = ray_from([1.0, 0.5, 0.25])
        assert check_inclusion_exclusion(x, a, ortho_complement(a)) < 1e-12

    def test_nested_telescopes(self):
        a = Subspace.from_vectors([E3[0], E3[1]])
        b = Subspace.from_vectors([E3[0]])
        assert check_inclusion_exclusion(ray_from([1.0, 1.0, 1.0]), a, b) < 1e-12

    def test_random_commuting(self):
        rng = np.random.default_rng(2)
        a, b = _random_commuting(rng, 5)
        x = ray_from(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert check_inclusion_exclusion(x, a, b) < 1e-10

    def test_rejects_non_commuting(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        b = Subspace.from_vectors([[1.0, 1.0]])
        with pytest.raises(NotCommutingError):
            check_inclusion_exclusion(ray_from([1.0, 2.0]), a, b)


class TestChainRule:
    def test_truth_is_identity(self):
        b = Subspace.from_vectors([E3[0], E3[1]])
        x = ray_from([1.0, 1.0, 1.0])
        assert check_chain_rule(x, Subspace.truth(3), b) < 1e-12

    def test_member_state(self):
        a = Subspace.from_vectors([E3[0], E3[1]])
        b = Subspace.from_vectors([E3[1], E3[2]])
        x = ray_from([1.0, 1.0, 0.0])  # inside a, so a(x) = x
        assert check_chain_rule(x, a, b) < 1e-12

    def test_random_commuting(self):
        rng = np.random.default_rng(3)
        a, b = _random_commuting(rng, 6)
        x = ray_from(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert check_chain_rule(x, a, b) < 1e-10

    def test_orthogonal_state_branch(self):
        a = Subspace.from_vectors([E3[0]])
        b = Subspace.from_vectors([E3[0], E3[1]])
        x = ray_from([0.0, 1.0, 1.0])  # orthogonal to a
        assert check_chain_rule(x, a, b) < 1e-12  # p(x, a^b) itself must vanish


class TestMonotone:
    def test_equal(self):
        a = Subspace.from_vectors([E3[0]])
        assert check_monotone(ray_from([1.0, 1.0, 0.0]), a, a)

    def test_falsehood_below_everything(self):
        assert check_monotone(ray_from([1.0, 1.0]), Subspace.falsehood(2), Subspace.truth(2))

    def test_random_nested(self):
        rng = np.random.default_rng(4)
        frame = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0].T
        a = Subspace.from_orthonormal(frame[:2], 6)
        b = Subspace.from_orthonormal(frame[:4], 6)
        x = ray_from(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert check_monotone(x, a, b)

    def test_rejects_unrelated(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        b = Subspace.from_vectors([[1.0, 1.0]])
        with pytest.raises(NotContainedError):
            check_monotone(ray_from([1.0, 2.0]), a, b)


class TestTotalProbability:
    def test_commuting_pair(self):
        rng = np.random.default_rng(5)
        a, b = _random_commuting(rng, 5)
        x = ray_from(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert check_total_probability(x, a, b) < 1e-10

    def test_noncommuting_2d_family_violates(self):
        # alpha = first axis, x at angle t, beta = the ray of x itself:
        # identity fails by exactly |1 − cos⁴t − sin⁴t|
        t = 0.7
        alpha = Subspace.from_vectors([[1.0, 0.0]])
        x = ray_from([math.cos(t), math.sin(t)])
        beta = Subspace.from_ray(x)
        with pytest.raises(PreconditionUnmetError):
            check_total_probability(x, alpha, beta)
        lhs = p_prop(x, beta)
        ax = project_ray(alpha, x)
        nax = project_ray(ortho_complement(alpha), x)
        rhs = p_prop(x, alpha) * p_prop(ax, beta) + p_prop(x, ortho_complement(alpha)) * p_prop(nax, beta)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(math.cos(t) ** 4 + math.sin(t) ** 4, abs=1e-12)

    def test_orthomodular_equality_case(self):
        # both conditional projections inside beta force both sides to one
        rng = np.random.default_rng(6)
        a = Subspace.from_vectors(rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        x = ray_from(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        ax = project_ray(a, x)
        nax = project_ray(ortho_complement(a), x)
        beta = Subspace.from_vectors([ax.rep, nax.rep], dim=5)
        assert p_prop(x, beta) == pytest.approx(1.0)
        rhs = p_prop(x, a) * p_prop(ax, beta) + p_prop(x, ortho_complement(a)) * p_prop(nax, beta)
        assert rhs == pytest.approx(1.0)

    def test_local_commutation_suffices(self):
        # shared direction + support orthogonal to both wings
        rng = np.random.default_rng(7)
        frame = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0].T
        shared, w1, w2, outside = frame[0], frame[1], frame[2], frame[3]
        a = Subspace.from_vectors([shared, w1 + 0.5 * w2], dim=5)
        b = Subspace.from_vectors([shared, w1 - 0.8 * w2], dim=5)
        from raygeo import commutes

        assert not commutes(a, b)
        x = ray_from(0.6 * shared + 0.8 * outside)
        assert check_total_probability(x, a, b) < 1e-10


class TestInterferenceInequality:
    def test_beta_equals_alpha(self):
        a = Subspace.from_vectors([E3[0], E3[1]])
        x = ray_from([1.0, 1.0, 0.0])
        assert check_interference_inequality(x, a, a) == pytest.approx(0.0, abs=1e-14)

    def test_x_inside_beta(self):
        a = Subspace.from_vectors([E3[0], E3[1]])
        b = Subspace.from_vectors([E3[0], E3[1], E3[2]])
        x = ray_from([1.0, 0.5, 0.0])
        assert check_interference_inequality(x, a, b) >= -1e-14

    def test_random_margins_nonnegative(self):
        rng = np.random.default_rng(8)
        count = 0
        while count < 200:
            dim = int(rng.integers(3, 8))
            frame = np.linalg.qr(
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            )[0].T
            ra = int(rng.integers(1, dim))
            a = Subspace.from_orthonormal(frame[:ra], dim)
            b = Subspace.from_vectors(
                rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
            )
            coeff = rng.standard_normal(ra) + 1j * rng.standard_normal(ra)
            x = ray_from(a.basis.T @ coeff)
            try:
                margin = check_interference_inequality(x, a, b)
            except PreconditionUnmetError:
                continue
            assert margin >= -1e-12
            count += 1

    def test_precondition_x_in_alpha(self):
        a = Subspace.from_vectors([E3[0]])
        with pytest.raises(PreconditionUnmetError):
            check_interference_inequality(ray_from([0.0, 1.0, 0.0]), a, a)


FROZEN_WITNESS = {
    "seed": 42,
    "budget": 100_000,
    "trial_index": 4,
    "p_x_beta": 0.8787737043950477,
    "p_bx_alpha": 0.8940300018220175,
    "p_abx_beta": 0.9089470587217393,
    "nonsquared_excess": 0.011719586596698653,
    "squared_margin": 0.07153574846353015,
}


class TestNonsquaredSearch:
    def test_budget_zero_finds_nothing(self):
        assert search_nonsquared_counterexample(seed=42, budget=0) is None

    def test_seeded_witness_regression(self):
        w = search_nonsquared_counterexample(seed=FROZEN_WITNESS["seed"], budget=FROZEN_WITNESS["budget"])
        assert w is not None
        assert w.trial_index == FROZEN_WITNESS["trial_index"]
        for key in ("p_x_beta", "p_bx_alpha", "p_abx_beta", "nonsquared_excess", "squared_margin"):
            assert getattr(w, key) == pytest.approx(FROZEN_WITNESS[key], abs=1e-12)

    def test_witness_is_real_3d_and_consistent(self):
        w = search_nonsquared_counterexample(seed=42, budget=1000)
        assert w.x.dim == 3
        assert np.max(np.abs(w.x.rep.imag)) < 1e-14
        # non-squared fails, squared still holds
        lhs_ns = w.p_x_beta * (1 - w.p_bx_alpha)
        rhs_ns = w.p_bx_alpha * (1 - w.p_abx_beta)
        assert lhs_ns - rhs_ns == pytest.approx(w.nonsquared_excess)
        assert w.nonsquared_excess > 1e-10
        assert w.squared_margin >= -1e-12
        # and the recorded p values reproduce from the stored instance
        assert p_prop(w.x, w.beta) == pytest.approx(w.p_x_beta, abs=1e-12)


class TestDecomposeCommuting:
    def test_equal_pair(self):
        a = Subspace.from_vectors([E3[0], E3[1]])
        parts = decompose_commuting(a, a)
        assert subspaces_equal(parts.gamma1, a)
        assert parts.gamma2.rank == 0
        assert parts.gamma3.rank == 0

    def test_orthogonal_pair(self):
        a = Subspace.from_vectors([E3[0]])
        b = Subspace.from_vectors([E3[1]])
        parts = decompose_commuting(a, b)
        assert parts.gamma1.rank == 0
        assert subspaces_equal(parts.gamma2, a)
        assert subspaces_equal(parts.gamma3, b)

    def test_random_commuting_verified(self):
        rng = np.random.default_rng(9)
        a, b = _random_commuting(rng, 6)
        parts = decompose_commuting(a, b)
        assert subspaces_equal(join(parts.gamma1, parts.gamma2), a)
        assert subspaces_equal(join(parts.gamma1, parts.gamma3), b)

    def test_rejects_non_commuting(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        b = Subspace.from_vectors([[1.0, 1.0]])
        with pytest.raises(NotCommutingError):
            decompose_commuting(a, b)


def test_finite_additivity_four_parts():
    rng = np.random.default_rng(10)
    frame = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0].T
    parts = [Subspace.from_orthonormal(frame[i : i + 1], 6) for i in range(4)]
    x = ray_from(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    joined = parts[0]
    for part in parts[1:]:
        joined = join(joined, part)
    assert p_prop(x, joined) == pytest.approx(sum(p_prop(x, p) for p in parts), abs=1e-12)


def test_batched_interference_margins_match_scalar_check():
    # the high-volume law checks its instances in stacks; pin its margins
    # and residuals to the scalar reference on the same instances
    from raygeo.laws import _batch_interference_inequality
    from raygeo.sampling import substream

    compared = 0
    for dim in (3, 4, 6):
        block = _batch_interference_inequality(substream(99, "pin.interference", dim, 0), dim, 100)
        stacks = block.instance
        for i in range(100):
            x = ray_from(stacks["x"][i])
            a, b = (
                Subspace.from_vectors(stacks[name][i].T[: stacks[f"{name}_rank"][i]], dim=dim)
                for name in ("alpha", "beta")
            )
            assert a.rank == stacks["alpha_rank"][i] and 1 <= a.rank < dim
            try:
                margin = check_interference_inequality(x, a, b)
            except PreconditionUnmetError:
                assert block.skipped[i]
                continue
            if block.skipped[i]:
                continue
            assert stacks["margin"][i] == pytest.approx(margin, abs=1e-12)
            assert block.residuals[i] == pytest.approx(max(0.0, -margin), abs=1e-12)
            compared += 1
    assert compared >= 290
