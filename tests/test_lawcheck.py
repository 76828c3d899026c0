"""Harness contract: determinism, registry completeness, negative controls."""

import importlib.resources
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
from raygeo.sampling import STREAM_VERSION, law_stream_key, substream
from raygeo.serialize import dumps_reports, to_jsonable


class TestGeneratorSpec:
    def test_defaults(self):
        gen = GeneratorSpec()
        assert gen.dims == (2, 3, 4, 5, 6, 7, 8)
        assert gen.trials_per_dim == 1000
        assert gen.seed == 42

    @pytest.mark.parametrize("dims", [(), (1,), (33,)])
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
        # different instances: trial 0 as the runner draws it under each seed
        # (the worst residuals are rounding noise and may coincide)
        law = registry()["theorem.p_chain"]
        records = []
        for gen in (gen1, gen2):
            record = {}
            law.checker(substream(gen.seed, law.id, 3, 0), 3, record)
            records.append(record)
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
    def _manifest(self):
        text = (
            importlib.resources.files("raygeo")
            .joinpath("laws_manifest.json")
            .read_text(encoding="utf-8")
        )
        return json.loads(text)

    def test_manifest_matches_registry(self):
        manifest = self._manifest()
        manifest_laws = {entry["law"] for entry in manifest["items"]}
        assert manifest_laws == set(registry().keys())

    def test_every_item_is_covered(self):
        manifest = self._manifest()
        for entry in manifest["items"]:
            assert entry["item"]
            assert entry["law"] in registry()

    def test_named_operations_resolve(self):
        import importlib

        manifest = self._manifest()
        for entry in manifest["items"]:
            target = entry.get("operation")
            if target is None:
                continue
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr)) or isinstance(
                getattr(module, attr), type
            )

    def test_ids_unique_and_described(self):
        reg = registry()
        assert len(law_ids()) == len(set(law_ids()))
        for law in reg.values():
            assert law.description


class TestNegativeControls:
    def test_total_probability_control_fails_often(self):
        gen = GeneratorSpec(dims=(2, 3, 4), trials_per_dim=120, seed=8)
        report = run_law("counterexample.total_probability", gen)
        assert report.negative_control
        assert report.passed  # i.e. the identity failed on > 90% of trials
        assert report.worst_residual <= 0.1  # 1 − failing fraction

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


def _raise(*_args):
    raise RuntimeError("boom")


def _constant_trials(value):
    return lambda rng, dim, record: value


def _constant_blocks(value, skipped=False):
    def batch(rng, dim, n):
        return Block(np.full(n, value), np.full(n, skipped), {"value": np.full(n, value)})

    return batch


#: Each broken law in its per-trial and its batched form.
BROKEN = {
    "nan": (dict(checker=_constant_trials(math.nan)), dict(batch=_constant_blocks(math.nan))),
    "raise": (dict(checker=_raise), dict(batch=_raise)),
    "wrong": (dict(checker=_constant_trials(0.5)), dict(batch=_constant_blocks(0.5))),
    "skip_all": (dict(checker=_constant_trials(None)), dict(batch=_constant_blocks(0.0, True))),
}


class TestBrokenLawsFail:
    """The harness never passes a law silently: a NaN, an exception, a
    wrong answer or a skip flood fails it, trial by trial or in blocks.
    The broken laws live in a registry copy that monkeypatch restores."""

    GEN = GeneratorSpec(dims=(2, 3), trials_per_dim=3, seed=18)

    @pytest.fixture
    def private_registry(self, monkeypatch):
        registry()  # the real laws register before the copy is taken
        monkeypatch.setattr(lawcheck, "_REGISTRY", dict(lawcheck._REGISTRY))
        monkeypatch.setattr(lawcheck, "_ORDER", list(lawcheck._ORDER))

        def add(law_id, **kwargs):
            lawcheck.register(Law(id=law_id, description="broken", **kwargs))
            return run_law(law_id, self.GEN)

        return add

    @pytest.mark.parametrize("form", [0, 1], ids=["per_trial", "batched"])
    @pytest.mark.parametrize("kind", sorted(BROKEN))
    def test_broken_law_fails(self, private_registry, kind, form):
        law_id = f"broken.{kind}"
        report = private_registry(law_id, **BROKEN[kind][form])
        assert not report.passed
        assert report.counterexample is not None
        text = dumps_reports([report])
        rows = json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name} in report"))
        assert rows[0]["pass"] is False
        if kind == "skip_all":
            assert report.trials_skipped == 6 and report.trials_run == 0
        else:
            assert report.trials_run == 6
            assert report.counterexample["dim"] == 2 and report.counterexample["trial"] == 0
        if kind == "nan":
            assert rows[0]["worst_residual"] == "NaN"
        if kind == "raise":
            assert rows[0]["worst_residual"] == "Infinity"
            assert "RuntimeError: boom" in report.counterexample["error"]

    def test_broken_laws_left_no_trace(self):
        assert not any(i.startswith("broken.") for i in law_ids())

    def test_first_failure_is_named_not_the_last(self, private_registry):
        def fails_from_trial_one(rng, dim, record=None):
            value = float(rng.uniform(0.0, 1.0))
            if record is not None:
                record["value"] = value
            return 0.0 if dim == 2 and value == first_value[0] else 1.0

        first_value = [float(substream(18, "broken.late", 2, 0).uniform(0.0, 1.0))]
        report = private_registry("broken.late", checker=fails_from_trial_one)
        assert not report.passed
        assert (report.counterexample["dim"], report.counterexample["trial"]) == (2, 1)
        expected = float(substream(18, "broken.late", 2, 1).uniform(0.0, 1.0))
        assert report.counterexample["value"] == expected  # replayed record of that cell

    def test_nan_fails_a_negative_control(self, private_registry):
        report = private_registry(
            "broken.nan_control",
            checker=lambda rng, dim, record: math.nan,
            negative_control=True,
            aggregate=lambda residuals: (True, 0.0),
        )
        assert not report.passed

    def test_law_needs_exactly_one_checker(self, private_registry):
        with pytest.raises(ValueError):
            private_registry("broken.none")
        with pytest.raises(ValueError):
            private_registry("broken.both", checker=_constant_trials(0.0), batch=_constant_blocks(0.0))


class TestBlockRunner:
    def test_block_boundary(self, monkeypatch):
        registry()
        monkeypatch.setattr(lawcheck, "_REGISTRY", dict(lawcheck._REGISTRY))
        monkeypatch.setattr(lawcheck, "_ORDER", list(lawcheck._ORDER))
        block = lawcheck.BLOCK_TRIALS
        trials = 1000
        full, last = divmod(trials, block)
        assert full >= 1 and last > 5  # 1000 trials end in a partial block
        sizes = []
        instances = []

        def batch(rng, dim, n):
            sizes.append((dim, n))
            residuals = rng.uniform(0.0, 1e-11, n)
            skipped = residuals > 9.8e-12
            if n == last:  # the partial block: trials full * block .. 999
                residuals[5], skipped[5] = 1.0, False
            instance = {"u": rng.standard_normal((n, dim)) + 1j, "r": residuals.copy(), "kept": ~skipped}
            instances.append(instance)
            return Block(residuals, skipped, instance)

        lawcheck.register(Law(id="blocks.boundary", description="d", batch=batch))
        gen = GeneratorSpec(dims=(2, 3), trials_per_dim=trials, seed=19)
        first = run_law("blocks.boundary", gen)
        one_dim = [block] * full + [last]
        assert [n for _, n in sizes] == one_dim + one_dim  # no block is replayed
        assert [d for d, _ in sizes] == [2] * (full + 1) + [3] * (full + 1)
        failing = instances[full]  # the partial block of dim 2
        second = run_law("blocks.boundary", gen)
        assert first.trials_run + first.trials_skipped == 2 * trials
        assert 0 < first.trials_skipped < 2 * trials * 0.05
        assert not first.passed
        assert first.counterexample["dim"] == 2
        assert first.counterexample["trial"] == full * block + 5
        assert first.counterexample["residual"] == 1.0
        # the counterexample is row 5 of that block's instance stacks, serialized
        row = {name: to_jsonable(stack[5]) for name, stack in failing.items()}
        assert {k: v for k, v in first.counterexample.items() if k in row} == row
        assert set(first.counterexample) == {"dim", "trial", "residual"} | set(row)
        assert row["r"] == 1.0 and row["kept"] is True and len(row["u"]) == 2
        assert dumps_reports([first]) == dumps_reports([second])

    def test_interference_law_is_blocked_and_valid(self):
        gen = GeneratorSpec(seed=20)
        report = run_law("theorem.interference_inequality", gen)
        assert registry()["theorem.interference_inequality"].batch is not None
        assert report.passed
        assert report.trials_run + report.trials_skipped == 6 * 10_000
        assert report.worst_residual <= 1e-12
        row = json.loads(dumps_reports([report]))[0]
        assert row["stream_version"] == STREAM_VERSION
