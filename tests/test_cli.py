"""CLI contract: commands, JSON outputs, and the exit-code table
(0 success, 1 law/search negative, 2 usage, 3 domain precondition)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import raygeo
from raygeo.cli import main


def loads(text):
    """``json.loads`` that refuses ``NaN`` and ``Infinity``, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def ray_json(*entries):
    return {"dim": len(entries), "rep": [[float(c.real), float(c.imag)] for c in map(complex, entries)]}


@pytest.fixture
def rays(tmp_path):
    return {
        "e1": write_json(tmp_path / "e1.json", ray_json(1, 0)),
        "e2": write_json(tmp_path / "e2.json", ray_json(0, 1)),
        "diag": write_json(tmp_path / "diag.json", ray_json(1, 1)),
        "circ": write_json(tmp_path / "circ.json", ray_json(1, 1j)),
    }


@pytest.mark.parametrize(
    "argv",
    [[], ["frobnicate"], ["verify", "--trials", "x"], ["verify", "--format", "xml"], ["compute", "norm", "--a", "a", "--b", "b"]],
    ids=["no_command", "unknown_command", "trials_not_int", "unknown_format", "unknown_quantity"],
)
def test_argparse_usage_error_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "usage: raygeo" in err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exit_0(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: raygeo")


class TestVerify:
    def test_small_run_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "reports.json"
        code, _, _ = run_cli(
            capsys,
            "verify", "--dims", "2,3", "--trials", "10", "--seed", "1",
            "--laws", "principle.*", "--output", str(out_file),
        )
        assert code == 0
        reports = loads(out_file.read_text())
        assert all(r["pass"] for r in reports)
        assert {r["law_id"] for r in reports} >= {"principle.triviality"}

    def test_filter_runs_only_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--dims", "2", "--trials", "5", "--laws", "lemma.p*"
        )
        assert code == 0
        ids = [r["law_id"] for r in loads(out)]
        assert ids and all(i.startswith("lemma.p") for i in ids)

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--dims", "2", "--trials", "5",
            "--laws", "tensor.*", "--format", "table",
        )
        assert code == 0
        assert "tensor.p_product" in out
        assert "ok" in out

    def test_no_match_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--laws", "zzz.*", "--trials", "5")
        assert code == 2
        assert "no law" in err

    def test_bad_dims_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--dims", "1..1", "--trials", "5")
        assert code == 2

    @pytest.mark.parametrize("dims", ["2..1000000000000000", "-1000000000000000..3"])
    def test_huge_dims_range_is_usage_error(self, capsys, dims):
        # the bounds are checked before the range is built, so nothing is allocated
        code, out, err = run_cli(capsys, "verify", f"--dims={dims}", "--trials", "5")
        assert code == 2
        assert out == ""
        assert "dims must lie within [2, 32]" in err

    def test_repeated_dims_is_usage_error(self, capsys):
        # a repeated dimension would rerun the same substreams and count them twice
        code, out, err = run_cli(capsys, "verify", "--dims", "2,2", "--trials", "5", "--laws", "linalg.inner*")
        assert code == 2
        assert out == ""
        assert "dims must be distinct" in err

    @pytest.mark.parametrize("trials", ["1000000000000", "1000001", "0"])
    def test_trial_count_outside_bounds_is_usage_error(self, capsys, trials):
        # rejected when the run is configured, before any law draws a trial
        code, out, err = run_cli(capsys, "verify", "--dims", "2", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "trials_per_dim must lie within [1, 1000000]" in err

    def test_determinism_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        argv = ["verify", "--dims", "2,3", "--trials", "25", "--seed", "9",
                "--laws", "lemma.theta*"]
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestCompute:
    def test_p_orthogonal_rays(self, capsys, rays):
        code, out, _ = run_cli(capsys, "compute", "p", "--a", rays["e1"], "--b", rays["e2"])
        assert code == 0
        assert loads(out) == {"value": 0.0}

    def test_theta_worked_triple(self, capsys, rays):
        code, out, _ = run_cli(
            capsys, "compute", "theta",
            "--a", rays["e1"], "--b", rays["diag"], "--c", rays["circ"],
        )
        assert code == 0
        assert loads(out)["value"] == pytest.approx(-math.pi / 4)

    def test_theta_orthogonal_pair_exit_3(self, capsys, rays):
        code, out, _ = run_cli(
            capsys, "compute", "theta",
            "--a", rays["e1"], "--b", rays["e2"], "--c", rays["diag"],
        )
        assert code == 3
        err = loads(out)["error"]
        assert err["type"] == "OrthogonalPairError"
        assert err["pair"] == ["x", "y"]

    def test_theta_missing_argument_is_usage(self, capsys, rays):
        code, _, err = run_cli(capsys, "compute", "theta", "--a", rays["e1"], "--b", rays["e2"])
        assert code == 2

    def test_coplanar_missing_argument_is_usage(self, capsys, rays):
        code, out, err = run_cli(capsys, "compute", "coplanar", "--a", rays["e1"], "--b", rays["e2"])
        assert code == 2
        assert out == ""
        assert err == "error: compute coplanar needs --a, --b and --c\n"

    def test_project_to_zero_is_null(self, capsys, rays, tmp_path):
        sub = write_json(
            tmp_path / "axis.json",
            {"dim": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]]]},
        )
        code, out, _ = run_cli(capsys, "compute", "project", "--a", rays["e2"], "--b", sub)
        assert code == 0
        assert loads(out) == {"value": None}

    def test_project_diagonal(self, capsys, rays, tmp_path):
        sub = write_json(
            tmp_path / "axis2.json",
            {"dim": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]]]},
        )
        code, out, _ = run_cli(capsys, "compute", "project", "--a", rays["diag"], "--b", sub)
        assert code == 0
        rep = loads(out)["value"]["rep"]
        assert rep[0] == pytest.approx([1.0, 0.0])

    def test_project_onto_ray_file(self, capsys, rays):
        # a ray as --b projects onto its one-dimensional subspace
        code, out, _ = run_cli(capsys, "compute", "project", "--a", rays["diag"], "--b", rays["e1"])
        assert code == 0
        np.testing.assert_allclose(loads(out)["value"]["rep"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_coplanar(self, capsys, rays):
        code, out, _ = run_cli(
            capsys, "compute", "coplanar",
            "--a", rays["e1"], "--b", rays["diag"], "--c", rays["circ"],
        )
        assert code == 0
        assert loads(out) == {"value": True}

    def test_malformed_input_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", "p", "--a", str(bad), "--b", str(bad))
        assert code == 2

    def test_subspace_dim_mismatch_exit_2(self, capsys, tmp_path, rays):
        # a basis vector longer than the stated dim is malformed input, not a domain error
        bad = write_json(tmp_path / "bad.json", {"dim": 2, "basis": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]})
        code, out, err = run_cli(capsys, "compute", "p", "--a", rays["e1"], "--b", bad)
        assert code == 2
        assert out == ""
        assert err == "error: subspace dim does not match basis vector length\n"

    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": 2, "rep": 5},
            {"dim": 2, "rep": [[1], [0, 1]]},
            5,
            # Python's json reads NaN and Infinity, and 1e400 as inf
            {"dim": 2, "rep": [[math.nan, 0.0], [1.0, 0.0]]},
            {"dim": 2, "rep": [[1.0, 0.0], [1.0, -math.inf]]},
            {"dim": 2, "basis": [[[math.nan, 0.0], [0.0, 0.0]]]},
            {"dim": 2, "basis": [[[math.inf, 0.0], [1e200, 0.0]]]},
        ],
        ids=[
            "rep-not-a-list", "entry-not-a-pair", "not-an-object", "entry-nan",
            "entry-inf", "subspace-entry-nan", "subspace-entry-inf",
        ],
    )
    def test_malformed_shape_exit_2(self, capsys, tmp_path, rays, payload):
        bad = write_json(tmp_path / "bad.json", payload)
        code, out, err = run_cli(capsys, "compute", "p", "--a", rays["e1"], "--b", bad)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, unit",
        [
            ({"dim": 2, "rep": [[1e200, 0.0], [1e200, 0.0]]}, {"dim": 2, "rep": [[1.0, 0.0], [1.0, 0.0]]}),
            # np.vecdot reads these squared norms as NaN
            ({"dim": 2, "rep": [[1e308, 1e308], [1e308, 0.0]]}, {"dim": 2, "rep": [[1.0, 1.0], [1.0, 0.0]]}),
            ({"dim": 2, "rep": [[1e155, 1e155], [1e155, 0.0]]}, {"dim": 2, "rep": [[1.0, 1.0], [1.0, 0.0]]}),
            ({"dim": 2, "basis": [[[1e200, 0.0], [0.0, 0.0]]]}, {"dim": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]]]}),
        ],
        ids=["norm-overflows", "norm-nan", "norm-nan-1e155", "subspace-norm-overflows"],
    )
    def test_overflowing_norm_rescaled(self, capsys, tmp_path, rays, payload, unit):
        # a ray has no scale: a finite vector whose squared norm overflows
        # gives the p of the same vector at unit scale
        big = write_json(tmp_path / "big.json", payload)
        small = write_json(tmp_path / "small.json", unit)
        code, out, err = run_cli(capsys, "compute", "p", "--a", rays["e1"], "--b", big)
        assert code == 0 and err == ""
        _, expected, _ = run_cli(capsys, "compute", "p", "--a", rays["e1"], "--b", small)
        assert loads(out)["value"] == pytest.approx(loads(expected)["value"], abs=1e-15)


    def test_deeply_nested_json_exit_2(self, capsys, tmp_path, rays):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, _, err = run_cli(capsys, "compute", "p", "--a", rays["e1"], "--b", str(bad))
        assert code == 2 and "nested too deeply" in err


class TestSuperpose:
    def test_weight_one_echoes_first_as_bare_ray(self, capsys, tmp_path, rays):
        spec = write_json(
            tmp_path / "spec.json",
            {"y": ray_json(1, 0), "z": ray_json(1, 1), "r": 1.0},
        )
        code, out, _ = run_cli(capsys, "superpose", "--spec", spec)
        assert code == 0
        payload = loads(out)
        assert payload["rep"] == [[1.0, 0.0], [0.0, 0.0]]  # ray JSON, directly reusable

    def test_output_feeds_compute(self, capsys, tmp_path, rays):
        spec = write_json(
            tmp_path / "spec.json",
            {"y": ray_json(1, 0), "z": ray_json(1, 1), "r": 0.5},
        )
        out_ray = tmp_path / "built.json"
        assert main(["superpose", "--spec", spec, "--output", str(out_ray)]) == 0
        code, out, _ = run_cli(capsys, "compute", "p", "--a", str(out_ray), "--b", rays["e1"])
        assert code == 0
        assert loads(out)["value"] == pytest.approx((2 + math.sqrt(2)) / 4)

    def test_orthogonal_components_refused(self, capsys, tmp_path):
        spec = write_json(
            tmp_path / "spec.json",
            {"y": ray_json(1, 0), "z": ray_json(0, 1), "r": 0.5},
        )
        code, out, _ = run_cli(capsys, "superpose", "--spec", spec)
        assert code == 3
        assert loads(out)["error"]["type"] == "OrthogonalComponentsError"

    def test_worked_example_with_report(self, capsys, tmp_path, rays):
        spec = write_json(
            tmp_path / "spec.json",
            {"y": ray_json(1, 0), "z": ray_json(1, 1), "r": 0.5},
        )
        code, out, _ = run_cli(
            capsys, "superpose", "--spec", spec, "--report-p", rays["e1"]
        )
        assert code == 0
        payload = loads(out)
        rt2 = math.sqrt(2.0)
        norm = math.hypot(1 / rt2 + 0.5, 0.5)
        assert payload["ray"]["rep"][0][0] == pytest.approx((1 / rt2 + 0.5) / norm)
        assert payload["p_report"]["closed_form"] == pytest.approx(
            payload["p_report"]["direct"], rel=1e-9
        )
        assert payload["p_report"]["direct"] == pytest.approx((2 + rt2) / 4)

    def test_report_for_nearly_orthogonal_components(self, capsys, tmp_path, rays):
        # overlap 5e-9 of y and z: a valid spec whose triple phase is unreadable
        spec = write_json(
            tmp_path / "spec.json",
            {"y": ray_json(1, 0), "z": ray_json(5e-9, 1), "r": 0.5},
        )
        code, out, _ = run_cli(capsys, "superpose", "--spec", spec, "--report-p", rays["diag"])
        assert code == 0
        report = loads(out)["p_report"]
        assert report["closed_form"] == pytest.approx(report["direct"], abs=1e-9)
        assert report["direct"] == pytest.approx(1.0, abs=1e-9)


class TestSearch:
    def test_budget_exhausted_not_found(self, capsys):
        # seed 0 finds its first witness at trial index 1
        code, out, _ = run_cli(capsys, "search", "--seed", "0", "--budget", "1")
        assert code == 1
        assert loads(out)["result"] == "NotFound"

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run_cli(capsys, "search", "--budget", budget)
        assert code == 2
        assert out == ""
        assert "--budget" in err

    def test_invalid_witness_is_a_failure(self, capsys, monkeypatch):
        # a witness that breaks the squared inequality, which is a theorem, is a fault
        monkeypatch.setattr(
            "raygeo.cli.search_nonsquared_counterexample",
            lambda seed, budget: types.SimpleNamespace(squared_margin=-1e-9),
        )
        code, out, _ = run_cli(capsys, "search", "--seed", "0", "--budget", "10")
        assert code == 1
        assert loads(out) == {"result": "InvalidWitness"}

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, seed):
        code, out, err = run_cli(capsys, "search", "--seed", seed, "--budget", "10")
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--seed", str(2**64 - 1), "--budget", "100000")
        assert code == 0
        assert loads(out)["margin"] > 0

    def test_default_seed_finds_witness(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--seed", "42", "--budget", "100000")
        assert code == 0
        payload = loads(out)
        assert payload["margin"] > 1e-10
        assert payload["squared_margin"] >= -1e-12
        p = payload["p_values"]
        lhs = p["p_x_beta"] * (1 - p["p_beta_x_alpha"])
        rhs = p["p_beta_x_alpha"] * (1 - p["p_alpha_beta_x_beta"])
        assert lhs - rhs == pytest.approx(payload["margin"])


class TestDemoTwoSlit:
    def test_equal_slits_no_interference(self, capsys, tmp_path):
        config = write_json(
            tmp_path / "cfg.json",
            {
                "y": ray_json(1, 0.3),
                "z": ray_json(1, 0.3),
                "r": 0.5,
                "detectors": [ray_json(1, 0), ray_json(1, 1)],
            },
        )
        code, out, _ = run_cli(capsys, "demo-two-slit", "--config", config, "--format", "json")
        assert code == 0
        for row in loads(out)["rows"]:
            assert abs(row["interference"]) < 1e-12

    def test_real_config_matches_formula(self, capsys, tmp_path):
        from raygeo import SuperpositionSpec, omega, p_sim, ray_from, superpose

        y, z, r = ray_from([1.0, 0.2]), ray_from([0.2, 1.0]), 0.3
        detectors = [[1, 0.5], [0.7, 1]]
        config = write_json(
            tmp_path / "cfg.json",
            {
                "y": ray_json(1, 0.2),
                "z": ray_json(0.2, 1),
                "r": r,
                "detectors": [ray_json(*d) for d in detectors],
            },
        )
        code, out, _ = run_cli(capsys, "demo-two-slit", "--config", config, "--format", "json")
        assert code == 0
        rows = loads(out)["rows"]
        w = omega(r, y, z)
        state = superpose(SuperpositionSpec(y=y, z=z, r=r))
        for row, d in zip(rows, detectors):
            x = ray_from([float(d[0]), float(d[1])])
            # real regime: cos(theta) = 1, so the interference column is
            # 2 sqrt(r(1-r) p(y,x) p(z,x))/w minus the normalization shift
            expected = p_sim(state, x) - (r * p_sim(y, x) + (1 - r) * p_sim(z, x))
            assert row["interference"] == pytest.approx(expected, abs=1e-12)
            closed = (
                r * p_sim(y, x)
                + (1 - r) * p_sim(z, x)
                + 2.0 * math.sqrt(r * (1 - r) * p_sim(y, x) * p_sim(z, x))
            ) / w
            assert row["quantum"] == pytest.approx(closed, abs=1e-12)

    def test_orthogonal_slits_exit_3(self, capsys, tmp_path):
        config = write_json(
            tmp_path / "cfg.json",
            {"y": ray_json(1, 0), "z": ray_json(0, 1), "r": 0.5, "detectors": [ray_json(1, 1)]},
        )
        code, out, _ = run_cli(capsys, "demo-two-slit", "--config", config)
        assert code == 3

    @pytest.mark.parametrize("detectors", [None, {"dim": 2}, "e1"], ids=["missing", "object", "string"])
    def test_detectors_not_a_list_is_usage_error(self, capsys, tmp_path, detectors):
        config = {"y": ray_json(1, 0.3), "z": ray_json(0.3, 1), "r": 0.5}
        if detectors is not None:
            config["detectors"] = detectors
        code, out, err = run_cli(capsys, "demo-two-slit", "--config", write_json(tmp_path / "cfg.json", config))
        assert code == 2
        assert out == "" and "needs a list of detector rays" in err

    def test_default_config_table(self, capsys):
        code, out, _ = run_cli(capsys, "demo-two-slit")
        assert code == 0
        assert "interference" in out
        assert len(out.strip().splitlines()) == 10  # header + 9 detectors


def run_child(*argv, **env):
    """Run the CLI in a child process, with ``env`` over a copy of this
    process's environment from which ``OPENBLAS_CORETYPE`` is removed."""
    # the child imports the package under test, not whichever copy is installed
    package_dir = os.path.dirname(os.path.dirname(raygeo.__file__))
    path = os.pathsep.join(filter(None, [package_dir, os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    return subprocess.run(
        [sys.executable, "-m", "raygeo.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**inherited, "PYTHONPATH": path, **env},
    )


def test_installed_entry_point_runs():
    result = run_child("verify", "--dims", "2", "--trials", "5", "--laws", "linalg.*")
    assert result.returncode == 0
    assert loads(result.stdout)


def test_reports_agree_across_blas_kernels():
    """Across CPU kernels every report field but ``worst_residual`` holds,
    and ``worst_residual`` stays within tolerance.

    The second run forces OpenBLAS's Prescott kernel through
    ``OPENBLAS_CORETYPE``, which acts on that child process only.  Where
    numpy is not built on OpenBLAS the variable does nothing, and both
    runs use the same kernel.
    """
    argv = ("verify", "--dims", "2,3", "--trials", "50", "--seed", "7")
    runs = [run_child(*argv), run_child(*argv, OPENBLAS_CORETYPE="Prescott")]
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    default, prescott = (loads(r.stdout) for r in runs)

    def fixed(rows):
        return [{k: v for k, v in row.items() if k != "worst_residual"} for row in rows]

    assert fixed(default) == fixed(prescott)
    for row in default + prescott:
        assert row["worst_residual"] <= row["tolerance"], row["law_id"]


def test_env_seed_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("RAYGEO_SEED", "123")
    code, out, _ = run_cli(capsys, "verify", "--dims", "2", "--trials", "5", "--laws", "linalg.cauchy*")
    assert code == 0
    assert loads(out)[0]["seed"] == 123
    # explicit flag wins over the environment
    code, out, _ = run_cli(
        capsys, "verify", "--dims", "2", "--trials", "5", "--laws", "linalg.cauchy*", "--seed", "7"
    )
    assert loads(out)[0]["seed"] == 7


SMALL_VERIFY = ("verify", "--dims", "2", "--trials", "5", "--laws", "linalg.cauchy*")


def test_env_seed_not_an_integer_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RAYGEO_SEED", "abc")
    code, out, err = run_cli(capsys, *SMALL_VERIFY)
    assert code == 2
    assert out == ""
    assert "RAYGEO_SEED" in err


@pytest.mark.parametrize("command", [SMALL_VERIFY, ("search", "--budget", "10")])
def test_env_seed_outside_64_bits_is_usage_error(capsys, monkeypatch, command):
    monkeypatch.setenv("RAYGEO_SEED", str(2**64))
    code, out, err = run_cli(capsys, *command)
    assert code == 2
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_verify_seed_outside_64_bits_is_usage_error(capsys, seed):
    code, out, err = run_cli(capsys, *SMALL_VERIFY, "--seed", str(seed))
    assert code == 2
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_verify_seed_bounds_accepted(capsys, seed):
    code, out, _ = run_cli(capsys, *SMALL_VERIFY, "--seed", str(seed))
    assert code == 0
    assert loads(out)[0]["seed"] == seed


# -- fuzz: arbitrary JSON into every decoder ------------------------------

_numbers = st.integers(-2, 4) | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
_vectors = st.lists(st.lists(_numbers, max_size=3), max_size=4)
_rays = st.fixed_dictionaries({"dim": _numbers, "rep": _vectors})
_subspaces = st.fixed_dictionaries({"dim": _numbers, "basis": st.lists(_vectors, max_size=3)})
_any_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["dim", "rep", "basis", "y", "z", "r", "detectors"]) | st.text(max_size=3),
        inner,
        max_size=5,
    ),
    max_leaves=16,
)
_specs = st.fixed_dictionaries(
    {"y": _rays | _any_json, "z": _rays | _any_json, "r": _numbers | _any_json},
    optional={"detectors": st.lists(_rays | _any_json, max_size=3) | _any_json},
)
_payloads = _any_json | _rays | _subspaces | _specs

GOOD_RAY = ray_json(1, 1j)
GOOD_SPEC = {"y": ray_json(1, 0), "z": ray_json(1, 1), "r": 0.5}


def _fuzz_commands(bad, good_ray, good_spec):
    return [
        ["compute", "p", "--a", good_ray, "--b", bad],
        ["compute", "p", "--a", bad, "--b", good_ray],
        ["compute", "project", "--a", good_ray, "--b", bad],
        ["compute", "theta", "--a", good_ray, "--b", good_ray, "--c", bad],
        ["superpose", "--spec", bad],
        ["superpose", "--spec", good_spec, "--report-p", bad],
        ["demo-two-slit", "--config", bad, "--format", "json"],
    ]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_payloads, which=st.integers(0, 6))
def test_decoders_never_raise(tmp_path, payload, which):
    """Arbitrary JSON, non-finite numbers included, exits 0, 2 or 3."""
    bad = write_json(tmp_path / "fuzz.json", payload)
    good_ray = write_json(tmp_path / "ray.json", GOOD_RAY)
    good_spec = write_json(tmp_path / "spec.json", GOOD_SPEC)
    argv = _fuzz_commands(bad, good_ray, good_spec)[which]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)  # an exception here is a traceback for the user
    assert code in (0, 2, 3), (argv, payload)
    if out.getvalue():
        loads(out.getvalue())
