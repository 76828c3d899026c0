"""Probability calculus checks and the interference-inequality search.

The frozen witness below is the first real 3-dimensional instance the
seeded search (seed 42, per-trial substreams) finds where the
NON-squared inequality fails; its values are pinned as a regression
fixture and it must still satisfy the squared inequality.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from raygeo import (
    ZERO,
    NotCommutingError,
    NotOrthogonalError,
    PreconditionUnmetError,
    Subspace,
    check_chain_rule,
    check_complement,
    check_inclusion_exclusion,
    check_interference_inequality,
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
from raygeo import probability, sampling
from raygeo.linalg import EPS_ABS
from raygeo.probability import interference_margins, measurement_chain
from raygeo.sampling import keyed_generator, keyed_generators

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

    def test_non_commuting_pair_refused(self):
        a = Subspace.from_vectors([[1.0, 0.0]])
        b = Subspace.from_vectors([[1.0, 1.0]])
        with pytest.raises(NotCommutingError, match="chain rule"):
            check_chain_rule(ray_from([1.0, 2.0]), a, b)


class TestMonotone:
    """p(x, a) ≤ p(x, b) for nested a ⊆ b."""

    def test_equal(self):
        a = Subspace.from_vectors([E3[0]])
        b = Subspace.from_vectors([2j * E3[0]])  # the same proposition
        x = ray_from([1.0, 1.0, 0.0])
        assert p_prop(x, a) == pytest.approx(0.5)
        assert p_prop(x, b) == pytest.approx(p_prop(x, a))

    def test_falsehood_below_everything(self):
        x = ray_from([1.0, 1.0])
        assert p_prop(x, Subspace.falsehood(2)) == 0.0
        assert p_prop(x, Subspace.truth(2)) == pytest.approx(1.0)

    def test_random_nested(self):
        rng = np.random.default_rng(4)
        frame = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0].T
        a = Subspace.from_orthonormal(frame[:2], 6)
        b = Subspace.from_orthonormal(frame[:4], 6)
        x = ray_from(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert p_prop(x, a) <= p_prop(x, b)


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

    def test_raises_where_stacked_form_is_undefined(self):
        # p(x,b) = p(b(x),a) ≈ 1e-14 lies above EPS_ABS² and below
        # MIN_CONDITIONING_P: the stacked form marks the row undefined,
        # so the scalar check has no margin to return
        a = Subspace.from_vectors([E3[0], E3[1]])
        b = Subspace.from_vectors([[1e-7, 0.0, 1.0]])
        x = ray_from(E3[0])
        _, undefined = interference_margins(a.basis.T, b.basis.T, x.rep)
        assert undefined
        with pytest.raises(PreconditionUnmetError):
            check_interference_inequality(x, a, b)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_margins_are_unitarily_invariant(self, dim):
        # the interference law draws its instances in alpha's own
        # coordinates, which is sound because one unitary U acting on the
        # whole instance (x, alpha, beta) leaves every margin unchanged
        rng = keyed_generator(29, dim)
        qa, qb = (sampling.random_subspaces(rng, 200, dim, 1, dim - 1) for _ in range(2))
        x = sampling.member_rays(rng, qa)
        u = sampling.random_frames(rng, 200, dim, dim)
        margin, undefined = interference_margins(qa, qb, x)
        moved, moved_undefined = interference_margins(u @ qa, u @ qb, (u @ x[..., np.newaxis])[..., 0])
        assert (moved_undefined == undefined).all()
        assert np.abs(moved - margin).max() <= 1e-13


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


#: The trial index of the first witness for seeds 0..19.
FIRST_WITNESS_INDICES = [1, 4, 1, 0, 1, 1, 4, 1, 1, 7, 0, 7, 1, 8, 0, 0, 9, 1, 0, 6]


def _reference_candidate(seed, trial):
    """Candidate ``trial`` of the search for ``seed``, drawn in full and
    scored alone: its ranks and, unless the search's filters drop it,
    its floats (the three p values, the excess and the squared margin),
    state and frames."""
    dim = 3
    rng = keyed_generator(seed, trial)
    ranks = tuple(int(r) for r in rng.integers(1, dim, size=2))
    qa = np.linalg.qr(rng.standard_normal((dim, ranks[0])))[0]
    qb = np.linalg.qr(rng.standard_normal((dim, ranks[1])))[0]
    vec = qa @ rng.standard_normal(ranks[0])
    nrm = float(np.linalg.norm(vec))
    if nrm <= EPS_ABS:
        return ranks, None
    qa, qb, vec = (t.astype(np.complex128) for t in (qa, qb, vec))
    p_xb, p_bx_a, p_abx_b = (float(p) for p in measurement_chain(vec / nrm, qb, qa, qb))
    if p_xb <= 1e-6 or p_bx_a <= 1e-6:
        return ranks, None
    excess = p_xb * (1.0 - p_bx_a) - p_bx_a * (1.0 - p_abx_b)
    margin = p_bx_a * (1.0 - p_abx_b) - p_xb * (1.0 - p_bx_a) ** 2
    return ranks, ((p_xb, p_bx_a, p_abx_b, excess, margin), ray_from(vec), qa.T, qb.T)


def _reference_search(seed, budget):
    """The search over every candidate, with the draws and arithmetic
    that the search must reproduce bit for bit."""
    for trial in range(budget):
        _, scored = _reference_candidate(seed, trial)
        if scored is not None and scored[0][3] > EPS_ABS:
            return (trial, *scored)
    return None


def _assert_same_witness(w, ref):
    trial, floats, x, alpha, beta = ref
    assert w.trial_index == trial
    got = (w.p_x_beta, w.p_bx_alpha, w.p_abx_beta, w.nonsquared_excess, w.squared_margin)
    assert [f.hex() for f in got] == [f.hex() for f in floats]
    for array, expected in ((w.x.rep, x.rep), (w.alpha.basis, alpha), (w.beta.basis, beta)):
        assert array.shape == expected.shape
        assert array.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestNonsquaredSearch:
    def test_budget_zero_finds_nothing(self):
        assert search_nonsquared_counterexample(seed=42, budget=0) is None

    def test_negative_budget_finds_nothing(self):
        assert search_nonsquared_counterexample(seed=42, budget=-3) is None

    @pytest.mark.parametrize("budget", [0, -3])
    def test_bad_seed_rejected_at_any_budget(self, budget):
        # the seed is checked when the first generator is requested, even of no words
        with pytest.raises(ValueError):
            search_nonsquared_counterexample(seed=-1, budget=budget)

    @pytest.mark.parametrize("budget", [2.7, 5.0, True, "5", None])
    def test_non_integer_budget_rejected(self, budget):
        # int() would scan 2, 5, 1 and 5 candidates for the first four
        with pytest.raises(ValueError, match="budget"):
            search_nonsquared_counterexample(seed=42, budget=budget)

    def test_numpy_integer_budget_accepted(self):
        w = search_nonsquared_counterexample(seed=42, budget=np.int64(1000))
        assert w is not None
        assert w.trial_index == search_nonsquared_counterexample(seed=42, budget=1000).trial_index

    def test_seeded_witness_regression(self):
        w = search_nonsquared_counterexample(seed=FROZEN_WITNESS["seed"], budget=FROZEN_WITNESS["budget"])
        assert w is not None
        assert w.trial_index == FROZEN_WITNESS["trial_index"]
        for key in ("p_x_beta", "p_bx_alpha", "p_abx_beta", "nonsquared_excess", "squared_margin"):
            assert getattr(w, key) == pytest.approx(FROZEN_WITNESS[key], abs=1e-12)

    def test_first_witnesses_pinned(self):
        # the trial index of the first witness for seeds 0..19, and its p
        # values against the public projections of its own objects
        for seed, index in enumerate(FIRST_WITNESS_INDICES):
            w = search_nonsquared_counterexample(seed=seed, budget=100_000)
            assert w.trial_index == index, seed
            bx = project_ray(w.beta, w.x)
            abx = project_ray(w.alpha, bx)
            assert p_prop(w.x, w.beta) == pytest.approx(w.p_x_beta, abs=1e-12)
            assert p_prop(bx, w.alpha) == pytest.approx(w.p_bx_alpha, abs=1e-12)
            assert p_prop(abx, w.beta) == pytest.approx(w.p_abx_beta, abs=1e-12)

    def test_chunked_scan_matches_one_candidate_scan(self):
        for seed in range(200):
            _assert_same_witness(
                search_nonsquared_counterexample(seed=seed, budget=100_000),
                _reference_search(seed, 100_000),
            )

    @pytest.mark.parametrize("seed", [9, 11, 13, 16])
    def test_budget_ends_just_before_the_witness(self, seed):
        # these witnesses lie at trial 7 or later: a budget one short of
        # the witness finds nothing, and one more candidate finds it
        index = FIRST_WITNESS_INDICES[seed]
        assert search_nonsquared_counterexample(seed=seed, budget=index) is None
        w = search_nonsquared_counterexample(seed=seed, budget=index + 1)
        _assert_same_witness(w, _reference_search(seed, index + 1))

    def test_rank_one_candidate_is_never_a_witness(self):
        # the search skips a candidate with a rank-1 frame unscored: its
        # excess is at most 0 in exact arithmetic (see the search's
        # docstring), and computed it stays far below EPS_ABS
        excesses = []
        for seed in range(50):
            for trial in range(100):
                ranks, scored = _reference_candidate(seed, trial)
                if ranks != (2, 2) and scored is not None:
                    excesses.append(scored[0][3])
        assert len(excesses) > 3000
        assert max(excesses) <= 1e-13

    def test_scores_only_rank_two_candidates(self, monkeypatch):
        # one scored row per (2, 2) candidate up to the witness, and none
        # for a candidate with a rank-1 frame or beyond the witness
        rows = []
        chain = probability.measurement_chain

        def counting_chain(x, *qs):
            rows.append(x.size // x.shape[-1])
            return chain(x, *qs)

        monkeypatch.setattr(probability, "measurement_chain", counting_chain)
        for seed, index in enumerate(FIRST_WITNESS_INDICES):
            rows.clear()
            assert search_nonsquared_counterexample(seed=seed, budget=100_000).trial_index == index
            rngs = keyed_generators(seed, range(index + 1))
            expected = sum(rng.integers(1, 3, size=2).tolist() == [2, 2] for rng in rngs)
            assert sum(rows) == expected, seed

    def test_rank_word_matches_integer_draws(self):
        # the search reads its two ranks off bits 31 and 63 of one raw
        # word; numpy's bounded draw below 2**32 reads next_uint32, the
        # low half of a word and then its high half, both as two scalar
        # draws and as one draw of size 2, and leaves the same state; the
        # stored half ``uinteger`` is then spent, and never read again
        def state(rng):
            s = rng.bit_generator.state
            assert s["has_uint32"] == 0
            return s["state"]["counter"].tolist(), s["buffer"].tolist(), s["buffer_pos"]

        both = 0
        for seed in (0, 3, 42, 2**64 - 1):
            streams = zip(*(keyed_generators(seed, range(3000)) for _ in range(3)))
            for raw, scalar, pair in streams:
                word = raw.bit_generator.random_raw()
                ranks = [1 + (word >> 31 & 1), 1 + (word >> 63)]
                assert [int(scalar.integers(1, 3)), int(scalar.integers(1, 3))] == ranks
                assert pair.integers(1, 3, size=2).tolist() == ranks
                assert state(raw) == state(scalar) == state(pair)
                normals = raw.standard_normal(14).tolist()
                assert scalar.standard_normal(14).tolist() == normals == pair.standard_normal(14).tolist()
                both += ranks == [2, 2]
        assert 2700 < both < 3300  # a quarter of the 12 000 keys

    def test_concurrent_searches_match_pinned(self):
        # every call keys its own generator, so threads need no lock; ten
        # rounds give a shared generator many chances to interleave
        seeds = list(range(20)) * 10
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(search_nonsquared_counterexample, seed, 100_000) for seed in seeds]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [w.trial_index for w in results] == FIRST_WITNESS_INDICES * 10
        assert results == [search_nonsquared_counterexample(seed, 100_000) for seed in seeds]

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


def _interference_reference(x, a, b):
    """The margin of the interference inequality written out with the
    public projections, or None where b(x) or a(b(x)) is ZERO."""
    bx = project_ray(b, x)
    if bx is ZERO:
        return None
    p_bx_a = p_prop(bx, a)
    abx = project_ray(a, bx)
    if abx is ZERO:
        return None
    return p_bx_a * (1.0 - p_prop(abx, b)) - p_prop(x, b) * (1.0 - p_bx_a) ** 2


def test_batched_interference_margins_match_scalar_check():
    # the high-volume law checks its instances in stacks; pin its margins
    # and residuals, and the scalar check's, to the reference chain
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
            margin = _interference_reference(x, a, b)
            if margin is None:
                assert block.skipped[i]
            if block.skipped[i]:
                # the scalar check shares its stacked form's domain
                with pytest.raises(PreconditionUnmetError):
                    check_interference_inequality(x, a, b)
                continue
            assert check_interference_inequality(x, a, b) == pytest.approx(margin, abs=1e-12)
            assert stacks["margin"][i] == pytest.approx(margin, abs=1e-12)
            assert block.residuals[i] == pytest.approx(max(0.0, -margin), abs=1e-12)
            compared += 1
    assert compared >= 290
