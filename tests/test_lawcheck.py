"""Harness contract: determinism, registry completeness, negative controls."""

import json
import math

import numpy as np
import pytest

from raygeo import lawcheck
from raygeo.lawcheck import Block, Law
from raygeo import (
    GeneratorSpec,
    UnknownLawError,
    all_passed,
    law_ids,
    registry,
    run_all,
    run_law,
)
from raygeo.geometry import triple_phases
from raygeo.linalg import EPS_ABS, circular_distances
from raygeo.sampling import STREAM_VERSION, law_stream_key, substream
from raygeo.serialize import dumps_reports, to_jsonable


class TestGeneratorSpec:
    def test_defaults(self):
        gen = GeneratorSpec()
        assert gen.dims == (2, 3, 4, 5, 6, 7, 8)
        assert gen.trials_per_dim == 1000
        assert gen.seed == 42

    @pytest.mark.parametrize("dims", [(), (1,), (33,), (2, 3, 2)])
    def test_dims_validated(self, dims):
        with pytest.raises(ValueError):
            GeneratorSpec(dims=dims)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            GeneratorSpec(trials_per_dim=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            GeneratorSpec(seed=seed)

    @pytest.mark.parametrize(
        "field",
        [dict(seed=1.5), dict(seed=True), dict(dims=(2.5,)), dict(trials_per_dim=2.5), dict(trials_per_dim=True)],
        ids=["seed", "bool_seed", "dims", "trials", "bool_trials"],
    )
    def test_non_integer_fields_rejected(self, field):
        # refused at construction, not by a TypeError in every law
        with pytest.raises(ValueError, match="integer"):
            GeneratorSpec(**field)

    def test_numpy_integer_fields_held_as_ints(self):
        # a numpy seed would overflow against a law key above 2**63, and
        # JSON cannot encode one in a report
        gen = GeneratorSpec(dims=(np.int64(2),), trials_per_dim=np.int32(5), seed=np.uint64(2**64 - 1))
        assert gen == GeneratorSpec(dims=(2,), trials_per_dim=5, seed=2**64 - 1)
        assert all(type(v) is int for v in (*gen.dims, gen.trials_per_dim, gen.seed))
        dumps_reports(run_all(gen, "lemma.conjunction_chain"))


class TestSubstreams:
    def test_same_cell_same_numbers(self):
        a = substream(42, "some.law", 3, 17).standard_normal(4)
        b = substream(42, "some.law", 3, 17).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_cells_differ(self):
        base = substream(42, "some.law", 3, 17).standard_normal(4)
        for other in (
            substream(43, "some.law", 3, 17),
            substream(42, "other.law", 3, 17),
            substream(42, "some.law", 4, 17),
            substream(42, "some.law", 3, 18),
        ):
            assert not np.allclose(base, other.standard_normal(4))

    def test_law_key_is_stable(self):
        # pinned: the key derives from a blake2b-8 digest of the id
        assert law_stream_key("lemma.p_basis") == law_stream_key("lemma.p_basis")
        assert law_stream_key("a") != law_stream_key("b")


class TestRunLaw:
    def test_unknown_law(self):
        with pytest.raises(UnknownLawError):
            run_law("no.such.law", GeneratorSpec())

    def test_deterministic_reports(self):
        gen = GeneratorSpec(dims=(2, 4), trials_per_dim=40, seed=99)
        a = run_law("lemma.p_basis", gen)
        b = run_law("lemma.p_basis", gen)
        assert dumps_reports([a]) == dumps_reports([b])

    def test_seed_changes_draws_not_verdicts(self):
        gen1 = GeneratorSpec(dims=(3,), trials_per_dim=50, seed=1)
        gen2 = GeneratorSpec(dims=(3,), trials_per_dim=50, seed=2)
        r1 = run_law("theorem.p_chain", gen1)
        r2 = run_law("theorem.p_chain", gen2)
        assert r1.passed and r2.passed
        # different instances: the first checked trial as the runner draws it
        # under each seed (the worst residuals are rounding noise and may coincide)
        law = registry()["theorem.p_chain"]
        records = []
        for gen in (gen1, gen2):
            block = law.batch(substream(gen.seed, law.id, 3, 0), 3, gen.trials_per_dim)
            first = int(np.argmin(block.skipped))
            records.append({name: to_jsonable(stack[first]) for name, stack in block.instance.items()})
        assert records[0] and records[1] and records[0] != records[1]

    def test_dims_pinned_by_law(self):
        gen = GeneratorSpec(dims=(2,), trials_per_dim=5, seed=3)
        report = run_law("lemma.local_total_probability", gen)
        assert report.dim_range == (4, 5, 6, 7, 8)  # the law needs room

    def test_report_counts(self):
        gen = GeneratorSpec(dims=(2, 3), trials_per_dim=25, seed=4)
        report = run_law("principle.triviality", gen)
        assert report.trials_run + report.trials_skipped == 50
        assert report.trials_skipped <= 2  # skip cap 5%

    def test_noniso_law_names_a_sampled_isometry(self, monkeypatch):
        # the law's own failure path: a sampled "non-isometry" that is an
        # isometry fails with residual 1.0 and the map, not with an error
        from raygeo import laws

        monkeypatch.setattr(laws, "isometry_scales", lambda m: np.ones(len(m)))
        gen = GeneratorSpec(dims=(2,), trials_per_dim=5, seed=1)
        report = run_law("morphism.noniso_breaks_superpositions", gen)
        assert not report.passed
        assert report.worst_residual == 1.0
        assert "map" in report.counterexample and "error" not in report.counterexample


class TestSuperpositionRounds:
    """The morphism laws check a map's superpositions in two rounds:
    sample 0 of every map, then the other ``count - 1`` samples only for
    the maps that preserved it."""

    LAWS = ["morphism.noniso_breaks_superpositions", "theorem.char_morph"]
    GEN = GeneratorSpec(dims=(2, 3), trials_per_dim=20, seed=9)

    @pytest.mark.parametrize("count", [120, 200])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_a_broken_sample_settles_the_verdict(self, monkeypatch, dim, count):
        from raygeo import laws
        from raygeo.linalg import EPS_ABS
        from raygeo.morphisms import isometry_maps, non_isometry_maps

        residuals, samples = laws.superposition_residuals, laws._samples
        drawn, calls = [], []

        def spy_samples(rng, n, per_map, dim):
            drawn.append(n * per_map)
            return samples(rng, n, per_map, dim)

        def spy_residuals(m, y, z, r):
            calls.append((m, y, z, r))
            return residuals(m, y, z, r)

        monkeypatch.setattr(laws, "_samples", spy_samples)
        monkeypatch.setattr(laws, "superposition_residuals", spy_residuals)
        rng = substream(31, "rounds", dim, count)
        m = np.concatenate([isometry_maps(rng, 40, dim)[0], non_isometry_maps(rng, 40, dim)[0]])
        preserved = laws._preserved(rng, m, count)

        seen = [[] for _ in m]  # (y, z, r) of every sample each map was checked on
        for chunk, y, z, r in calls:
            assert y.shape[0] * y.shape[1] <= laws.SUPERPOSITION_ROWS
            for j, one in enumerate(chunk):
                (i,) = np.flatnonzero((m == one).all(axis=(1, 2)))
                seen[i] += zip(y[j], z[j], r[j])
        assert max(drawn) <= laws.SUPERPOSITION_ROWS
        assert sum(drawn) == 2 * sum(map(len, seen))
        sizes = []
        for i, samples_i in enumerate(seen):
            y, z, r = (np.array(part) for part in zip(*samples_i))
            residual = residuals(m[i], y, z, r)[0]
            assert len(residual) == (1 if residual[0] > EPS_ABS else count), i
            assert preserved[i] == (residual <= EPS_ABS).all(), i
            sizes.append(len(residual))
        assert preserved[:40].all() and not preserved[40:].any()
        assert sizes.count(1) >= 30 and sizes[:40] == [count] * 40

    @pytest.mark.parametrize("law_id", LAWS)
    def test_round_two_is_read(self, monkeypatch, law_id):
        # with every sample 0 preserved, only round 2 can break a non-isometry
        from raygeo import laws

        residuals = laws.superposition_residuals

        def first_round_preserved(m, y, z, r):
            residual, kept = residuals(m, y, z, r)
            return (np.zeros_like(residual) if y.shape[-2] == 1 else residual), kept

        monkeypatch.setattr(laws, "superposition_residuals", first_round_preserved)
        assert run_law(law_id, self.GEN).passed

    @pytest.mark.parametrize("law_id", LAWS)
    def test_all_preserved_fails(self, monkeypatch, law_id):
        from raygeo import laws

        residuals = laws.superposition_residuals

        def all_preserved(m, y, z, r):
            residual, kept = residuals(m, y, z, r)
            return np.zeros_like(residual), kept

        monkeypatch.setattr(laws, "superposition_residuals", all_preserved)
        report = run_law(law_id, self.GEN)
        assert not report.passed
        assert "map" in report.counterexample and "error" not in report.counterexample

    def test_no_maps(self):
        from raygeo import laws

        m = np.zeros((0, 5, 3), dtype=complex)
        rng = np.random.default_rng(0)
        assert laws._preserved(rng, m, 200).shape == (0,)
        residual = laws._superposition_residuals(rng, m, 10)
        assert residual.shape == (0, 10)


class TestPMax:
    """``corollary.p_max`` checks the gap p(x,α) − p(x,y_ε) of four
    candidates y_ε in α at distance ε = 10⁻¹ … 10⁻⁴ from α(x)."""

    EPS = 10.0 ** -np.arange(1, 5)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_rank_two_at_least_and_nothing_skipped(self, dim):
        from raygeo import laws
        from raygeo.rays import ranks

        block = laws._batch_p_max(substream(5, "corollary.p_max", dim, 0), dim, 500)
        rank = ranks(block.instance["alpha"])
        assert rank.min() >= 2 and rank.max() == max(2, dim - 1)
        assert not block.skipped.any()
        assert block.residuals.max() < 1e-13
        assert (block.instance["gaps"] > 0.0).all()

    def test_hand_built_gaps(self, monkeypatch):
        # α = span(e₁, e₂) and x = (1, 1, 1)/√3: p(x,α) = 2/3, and every
        # unit w in α orthogonal to α(x) is (1, −1, 0)/√2 up to a phase
        from raygeo import laws, sampling

        alpha = np.eye(3, dtype=complex)[np.newaxis] * [1, 1, 0]
        x = np.full((1, 3), 3**-0.5, dtype=complex)
        ranges = []

        def subspaces(rng, n, dim, low, high):
            ranges.append((low, high))
            return alpha

        monkeypatch.setattr(sampling, "random_subspaces", subspaces)
        monkeypatch.setattr(sampling, "random_rays", lambda rng, n, dim: x)
        block = laws._batch_p_max(substream(5, "corollary.p_max", 3, 0), 3, 1)
        assert ranges == [(2, 2)]
        expected = 2.0 / 3.0 * self.EPS**2 / (1.0 + self.EPS**2)
        np.testing.assert_allclose(block.instance["gaps"][0], expected, rtol=0, atol=1e-15)
        assert block.residuals[0] <= 1e-15 and not block.skipped[0]

    def test_a_gap_not_positive_reads_one(self, monkeypatch):
        # p(x,α) lowered by 1e-6 puts α(x) below the ε = 1e-4 candidate
        from raygeo import laws

        p_props = laws.p_props
        monkeypatch.setattr(laws, "p_props", lambda q, x: p_props(q, x) - 1e-6)
        block = laws._batch_p_max(substream(5, "corollary.p_max", 4, 0), 4, 50)
        assert (block.residuals == 1.0).all()

    @pytest.mark.parametrize("seed", [42, 7, 21])
    def test_passes_tightly_at_default_dims(self, seed):
        report = run_law("corollary.p_max", GeneratorSpec(seed=seed))
        assert report.passed and report.tolerance == 1e-10
        assert report.worst_residual <= 1e-13
        assert report.trials_run == 7 * 500 and report.trials_skipped == 0


class TestComplementInvolution:
    """``subspace.complement_involution`` reports the largest of the two
    containment defects between ¬¬a and a and the orthogonality defect
    of a and ¬a, and 1.0 on a rank mismatch."""

    @pytest.mark.parametrize("seed", [42, 7, 21])
    def test_passes_tightly_at_default_dims(self, seed):
        report = run_law("subspace.complement_involution", GeneratorSpec(seed=seed))
        assert report.passed and report.tolerance == 1e-10
        assert report.worst_residual <= 1e-13
        assert report.trials_run == 7 * 400 and report.trials_skipped == 0

    def test_lengthened_complement_fails(self, monkeypatch):
        # the 0/1 verdict form passed complements lengthened by 1 + 1e-6
        from raygeo import laws

        complements = laws.complements
        monkeypatch.setattr(laws, "complements", lambda q: complements(q) * (1.0 + 1e-6))
        report = run_law("subspace.complement_involution", GeneratorSpec(dims=(2, 3, 4), seed=42))
        assert not report.passed
        assert report.worst_residual == pytest.approx(2e-6, rel=1e-3)

    def test_rank_mismatch_reads_one(self, monkeypatch):
        # null complements: ¬¬a has rank 0, so a mismatches a rank unless
        # it is null, and then ¬a does
        from raygeo import laws

        monkeypatch.setattr(laws, "complements", lambda q: np.zeros_like(q))
        block = laws._batch_complement_involution(substream(5, "subspace.complement_involution", 4, 0), 4, 200)
        assert (block.residuals == 1.0).all() and not block.skipped.any()


class TestReciprocity:
    """``principle.reciprocity`` reports, where its antecedent holds, the
    gap 1 − a between the two projections its consequent compares."""

    @pytest.mark.parametrize("seed", [42, 7, 21])
    def test_passes_tightly_at_default_dims(self, seed):
        report = run_law("principle.reciprocity", GeneratorSpec(seed=seed))
        assert report.passed and report.tolerance == 1e-10
        assert report.worst_residual <= 1e-13
        assert report.trials_run == 7 * 400 and report.trials_skipped == 0

    def test_shortened_overlap_fails(self, monkeypatch):
        # the residual is the gap itself: overlaps shortened by 1 − 1e-6
        # read as 1e-6, where the 0/1 verdict form passed
        from raygeo import geometry

        a_sims = geometry.a_sims
        monkeypatch.setattr(geometry, "a_sims", lambda u, v: a_sims(u, v) * (1.0 - 1e-6))
        report = run_law("principle.reciprocity", GeneratorSpec(dims=(2, 3, 4), seed=42))
        assert not report.passed
        assert report.worst_residual == pytest.approx(1e-6, rel=1e-3)


class TestRunAll:
    def test_filter_glob(self):
        gen = GeneratorSpec(dims=(2, 3), trials_per_dim=10, seed=5)
        reports = run_all(gen, pattern="tensor.*")
        assert [r.law_id for r in reports] == [
            "tensor.inner_factorization",
            "tensor.p_product",
            "tensor.theta_additive",
        ]

    def test_registry_order_preserved(self):
        gen = GeneratorSpec(dims=(2,), trials_per_dim=5, seed=6)
        reports = run_all(gen, pattern="principle.*")
        ids = [r.law_id for r in reports]
        assert ids == [i for i in law_ids() if i.startswith("principle.")]

    def test_same_config_byte_identical(self):
        gen = GeneratorSpec(dims=(2, 3), trials_per_dim=15, seed=7)
        first = dumps_reports(run_all(gen, pattern="lemma.theta*"))
        second = dumps_reports(run_all(gen, pattern="lemma.theta*"))
        assert first == second


class TestRegistryCompleteness:
    def test_duplicate_declaration_rejected(self):
        before = registry()
        with pytest.raises(ValueError, match="duplicate"):
            lawcheck.law("linalg.cauchy_schwarz", "declared twice")(_constant_blocks(0.0))
        assert registry() == before
        assert law_ids() == list(before)

    def test_ids_unique_and_described(self):
        reg = registry()
        assert len(law_ids()) == len(set(law_ids()))
        for law in reg.values():
            assert law.description


class TestNegativeControls:
    @pytest.mark.parametrize("seed", [42, 7, 21])
    def test_total_probability_fails_by_its_interference_term(self, seed):
        # the identity fails on every generic trial, by exactly its cross term
        law = registry()["counterexample.total_probability"]
        report = run_law(law.id, GeneratorSpec(seed=seed))
        assert report.negative_control and report.passed
        assert report.tolerance == 1e-10 and report.worst_residual < 1e-13
        assert report.trials_skipped == 0
        for dim in report.dim_range:
            for _, block in lawcheck._blocks(law, seed, dim, law.trials_per_dim):
                checked = block.instance["interference"][~block.skipped]
                assert (np.abs(checked) > EPS_ABS).all()

    def test_2d_family_matches_analytic(self):
        gen = GeneratorSpec(dims=(2,), trials_per_dim=200, seed=9)
        report = run_law("counterexample.total_probability_2d", gen)
        assert report.passed and report.worst_residual < 1e-9

    def test_dominance_boundary_is_equality(self):
        gen = GeneratorSpec(dims=(2, 3), trials_per_dim=100, seed=10)
        report = run_law("counterexample.dominance_boundary", gen)
        assert report.passed and report.worst_residual < 1e-10


def test_small_full_run_all_passes():
    gen = GeneratorSpec(dims=(2, 3), trials_per_dim=25, seed=17)
    reports = run_all(gen)
    assert len(reports) == len(law_ids())
    failing = [r.law_id for r in reports if not r.passed]
    assert all_passed(reports), failing


def test_every_law_samples_its_block_as_stacks():
    # one protocol: a block's instance is a dict of stacks whose leading
    # axis is the trial, at d = 2 or the smallest dimension a law pins
    n = 5
    for law in registry().values():
        dim = 2 if law.dims is None or 2 in law.dims else min(law.dims)
        block = law.batch(substream(23, law.id, dim, 0), dim, n)
        assert np.shape(block.residuals) == np.shape(block.skipped) == (n,), law.id
        assert isinstance(block.instance, dict) and block.instance, law.id
        for name, stack in block.instance.items():
            assert isinstance(stack, np.ndarray) and stack.shape[:1] == (n,), (law.id, name)


def _raise(*_args):
    raise RuntimeError("boom")


def _constant_blocks(value, skipped=False):
    def batch(rng, dim, n):
        return Block(np.full(n, value), np.full(n, skipped), {"value": np.full(n, value)})

    return batch


def _misshapen(rng, dim, n):
    """A law that returns one residual too many."""
    return Block(np.zeros(n + 1), np.zeros(n, dtype=bool), {"value": np.zeros(n)})


def _phase_guard(rng, dim, n):
    """A θ law that forgets to skip its orthogonal triples: the stacked
    phase kernel marks them with NaN instead of raising."""
    x = np.tile(np.eye(dim, dtype=complex)[0], (n, 1))
    y = np.tile(np.eye(dim, dtype=complex)[1], (n, 1))
    residuals = circular_distances(triple_phases(x, y, x), 0.0)
    return Block(residuals, np.zeros(n, dtype=bool), {"x": x, "y": y})


#: Each broken law as a batch function.
BROKEN = {
    "-inf": _constant_blocks(-math.inf),
    "inf": _constant_blocks(math.inf),
    "nan": _constant_blocks(math.nan),
    "raise": _raise,
    "misshapen": _misshapen,
    "wrong": _constant_blocks(0.5),
    "skip_all": _constant_blocks(0.0, True),
    "phase_guard": _phase_guard,
}


def _uniform_blocks(fails):
    """A law whose trial draws one uniform value and fails where
    ``fails(dim, value)``; the instance records the value."""

    def batch(rng, dim, n):
        value = rng.uniform(0.0, 1.0, n)
        failed = np.array([fails(dim, v) for v in value])
        return Block(failed.astype(float), np.zeros(n, dtype=bool), {"value": value})

    return batch


class TestBrokenLawsFail:
    """The harness never passes a law silently: a NaN, an exception, a
    wrong answer or a skip flood fails it.  The broken laws live in a
    registry copy that monkeypatch restores."""

    GEN = GeneratorSpec(dims=(2, 3), trials_per_dim=3, seed=18)

    @pytest.fixture
    def private_registry(self, monkeypatch):
        registry()  # the real laws register before the copy is taken
        monkeypatch.setattr(lawcheck, "_REGISTRY", dict(lawcheck._REGISTRY))

        def add(law_id, **kwargs):
            lawcheck.register(Law(id=law_id, description="broken", **kwargs))
            return run_law(law_id, self.GEN)

        return add

    @pytest.mark.parametrize("form", ["batched"])
    @pytest.mark.parametrize("kind", sorted(BROKEN))
    def test_broken_law_fails(self, private_registry, kind, form):
        law_id = f"broken.{kind}"
        report = private_registry(law_id, batch=BROKEN[kind])
        assert not report.passed
        assert report.counterexample is not None
        text = dumps_reports([report])
        rows = json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name} in report"))
        assert rows[0]["pass"] is False
        if kind == "skip_all":
            assert report.trials_skipped == 6 and report.trials_run == 0
            assert report.counterexample == {"note": "skip rate above cap", "skip_rate": 1.0}
        else:
            assert report.trials_run == 6
            assert report.counterexample["dim"] == 2 and report.counterexample["trial"] == 0
        if kind in ("nan", "phase_guard"):
            assert rows[0]["worst_residual"] == "NaN"
            assert "error" not in report.counterexample  # a marked row, not a raise
        if kind in ("inf", "raise", "misshapen"):
            assert rows[0]["worst_residual"] == "Infinity"
        if kind == "-inf":  # a non-finite residual is worse than any finite one
            assert rows[0]["worst_residual"] == "-Infinity"
        if kind == "raise":
            assert "RuntimeError: boom" in report.counterexample["error"]
        if kind == "misshapen":
            assert report.counterexample["error"] == "ValueError: block of 3 trials gave shapes (4,), (3,)"

    def test_unserializable_row_still_names_the_failure(self, private_registry):
        # a (n, 2, 2, 2) instance stack has 3-D rows, which to_jsonable refuses
        def batch(rng, dim, n):
            return Block(np.full(n, 0.5), np.zeros(n, dtype=bool), {"cube": np.zeros((n, 2, 2, 2))})

        report = private_registry("broken.unserializable", batch=batch)
        assert not report.passed
        assert report.counterexample == {"dim": 2, "trial": 0, "residual": 0.5}

    def test_broken_laws_left_no_trace(self):
        assert not any(i.startswith("broken.") for i in law_ids())

    def test_first_failure_is_named_not_the_last(self, private_registry):
        stream = substream(18, "broken.late", 2, 0)
        first_value, second_value = stream.uniform(0.0, 1.0, 2)
        fails_after_trial_0 = _uniform_blocks(lambda dim, value: dim != 2 or value != first_value)
        report = private_registry("broken.late", batch=fails_after_trial_0)
        assert not report.passed
        assert (report.counterexample["dim"], report.counterexample["trial"]) == (2, 1)
        assert report.counterexample["value"] == second_value  # row 1 of the block's stacks

    def test_tolerance_is_inclusive(self, private_registry):
        tol = Law.tolerance
        assert tol == EPS_ABS  # the default
        at = private_registry("broken.at_tolerance", batch=_constant_blocks(tol))
        assert at.passed and at.counterexample is None and at.worst_residual == tol
        above = np.nextafter(tol, 1)
        report = private_registry("broken.above_tolerance", batch=_constant_blocks(above))
        assert not report.passed and report.worst_residual == above
        assert (report.counterexample["dim"], report.counterexample["trial"]) == (2, 0)

    def test_nan_in_skipped_rows_passes(self, private_registry):
        # a stacked kernel marks an out-of-domain row with NaN; when the law
        # skips that row, its residual is never read
        def batch(rng, dim, n):
            skipped = np.arange(n) == 0
            return Block(np.where(skipped, math.nan, 0.0), skipped, {"skipped": skipped})

        lawcheck.register(Law(id="broken.skipped_nan", description="broken", batch=batch))
        report = run_law("broken.skipped_nan", GeneratorSpec(dims=(2, 3), trials_per_dim=50, seed=18))
        assert report.passed and report.counterexample is None
        assert report.trials_run == 98 and report.trials_skipped == 2
        assert report.worst_residual == 0.0

    def test_nan_fails_a_negative_control(self, private_registry):
        report = private_registry(
            "counterexample.broken_nan",
            batch=_constant_blocks(math.nan),
        )
        assert report.negative_control
        assert not report.passed

    def test_one_trial_failure_in_a_later_block(self, private_registry):
        # trial 300 of dim 8 is trial 300 - 256 = 44 of block 1, of 144 trials
        block = lawcheck.block_trials(8)
        assert block < 300 < 400 < 2 * block
        stream = substream(18, "broken.trial300", 8, 1)
        target = stream.uniform(0.0, 1.0, 400 - block)[300 - block]
        fails_at_trial_300 = _uniform_blocks(lambda dim, value: dim == 8 and value == target)
        lawcheck.register(Law(id="broken.trial300", description="broken", batch=fails_at_trial_300))
        report = run_law("broken.trial300", GeneratorSpec(dims=(3, 8), trials_per_dim=400, seed=18))
        assert not report.passed and report.trials_run == 800
        assert (report.counterexample["dim"], report.counterexample["trial"]) == (8, 300)
        assert report.counterexample["value"] == target


class TestBlockRunner:
    def test_block_boundary(self, monkeypatch):
        registry()
        monkeypatch.setattr(lawcheck, "_REGISTRY", dict(lawcheck._REGISTRY))
        trials = 1000
        dims = (7, 8)
        layout = {d: divmod(trials, lawcheck.block_trials(d)) for d in dims}
        assert all(full >= 1 and last > 5 for full, last in layout.values())  # each ends in a partial block
        sizes = []
        instances = []

        def batch(rng, dim, n):
            sizes.append((dim, n))
            residuals = rng.uniform(0.0, 1e-11, n)
            skipped = residuals > 9.8e-12
            if n == layout[dim][1]:  # the partial block: trials full * block .. 999
                residuals[5], skipped[5] = 1.0, False
            instance = {"u": rng.standard_normal((n, dim)) + 1j, "r": residuals.copy(), "kept": ~skipped}
            instances.append(instance)
            return Block(residuals, skipped, instance)

        lawcheck.register(Law(id="blocks.boundary", description="d", batch=batch))
        gen = GeneratorSpec(dims=dims, trials_per_dim=trials, seed=19)
        first = run_law("blocks.boundary", gen)
        one_dim = {d: [lawcheck.block_trials(d)] * full + [last] for d, (full, last) in layout.items()}
        assert sizes == [(d, n) for d in dims for n in one_dim[d]]  # no block is replayed
        full, last = layout[7]
        failing = instances[full]  # the partial block of dim 7
        second = run_law("blocks.boundary", gen)
        assert first.trials_run + first.trials_skipped == 2 * trials
        assert 0 < first.trials_skipped < 2 * trials * 0.05
        assert not first.passed
        assert first.counterexample["dim"] == 7
        assert first.counterexample["trial"] == full * lawcheck.block_trials(7) + 5
        assert first.counterexample["residual"] == 1.0
        # the counterexample is row 5 of that block's instance stacks, serialized
        row = {name: to_jsonable(stack[5]) for name, stack in failing.items()}
        assert {k: v for k, v in first.counterexample.items() if k in row} == row
        assert set(first.counterexample) == {"dim", "trial", "residual"} | set(row)
        assert row["r"] == 1.0 and row["kept"] is True and len(row["u"]) == 7
        assert dumps_reports([first]) == dumps_reports([second])

    def test_blocks_shrink_beyond_dimension_8(self, monkeypatch):
        registry()
        monkeypatch.setattr(lawcheck, "_REGISTRY", dict(lawcheck._REGISTRY))
        sizes = []

        def batch(rng, dim, n):
            sizes.append((dim, n))
            return Block(np.zeros(n), np.zeros(n, dtype=bool), {"u": rng.standard_normal((n, dim))})

        lawcheck.register(Law(id="blocks.shrink", description="d", batch=batch))
        report = run_law("blocks.shrink", GeneratorSpec(dims=(8, 16), trials_per_dim=100, seed=19))
        assert report.passed and report.trials_run == 200
        assert sizes == [(8, 100), (16, 32), (16, 32), (16, 32), (16, 4)]
        table = [lawcheck.block_trials(d) for d in (2, 3, 4, 5, 6, 7, 8, 9, 16, 32)]
        assert table == [4096, 1820, 1024, 655, 455, 334, 256, 179, 32, 4]

    def test_block_stacks_hold_no_more_than_the_dimension_8_block(self):
        # a block's (n, d, d) stacks never outgrow the d = 8 block's, and
        # beyond d = 8 the block shrinks at least as fast as 1/d³
        for d in range(lawcheck.MIN_DIM, lawcheck.MAX_DIM + 1):
            assert lawcheck.block_trials(d) * d**2 <= 256 * 64
            if d >= 8:
                assert lawcheck.block_trials(d) * d**3 <= 256 * 512

    def test_interference_law_is_blocked_and_valid(self):
        gen = GeneratorSpec(seed=20)
        report = run_law("theorem.interference_inequality", gen)
        assert report.passed
        assert report.trials_run + report.trials_skipped == 6 * 10_000
        assert report.worst_residual <= 1e-12
        row = json.loads(dumps_reports([report]))[0]
        assert row["stream_version"] == STREAM_VERSION
