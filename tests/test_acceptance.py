"""Acceptance gate: one test per criterion, at its stated tolerance.

The default verification sweep (dims 2..8, seed 42, 1000 trials per law
per dimension unless a law pins its own count) runs once per session;
criteria then interrogate its reports or compute directly.  Each test
prints a single CRITERION line; run with ``pytest -v -s`` to see them
all on a green suite.
"""

import ctypes
import glob
import hashlib
import json
import math
import os
import pathlib
import re
import time

import numpy as np
import pytest

from raygeo import (
    GeneratorSpec,
    OrthogonalComponentsError,
    SuperpositionSpec,
    check_char_morph,
    check_preserves_p_theta,
    isometry_scale,
    preserves_superpositions,
    ray_from,
    reciprocity_holds,
    run_all,
    search_nonsquared_counterexample,
    tensor_ray,
    theta,
)
from raygeo import lawcheck, serialize
from raygeo.cli import main as cli_main
from raygeo.morphisms import RegularMap, isometry_maps, non_isometry_maps
from raygeo.sampling import STREAM_VERSION, substream

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="session")
def sweep():
    started = time.perf_counter()
    reports = run_all(GeneratorSpec())
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance] default sweep: {len(reports)} laws in {elapsed:.1f}s")
    return {r.law_id: r for r in reports}


def _criterion(number, ok, message):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} {verdict}: {message}")
    assert ok, f"criterion {number}: {message}"


def _law_ok(sweep, law_id, max_residual=None):
    report = sweep[law_id]
    if not report.passed:
        return False
    if max_residual is not None and report.worst_residual > max_residual:
        return False
    return True


def test_criterion_1_superposition_definition_consistency(sweep):
    report = sweep["lemma.p_basis"]
    cells = len(report.dim_range) * 1000
    skip_rate = report.trials_skipped / cells
    ok = (
        report.passed
        and report.tolerance == 1e-9
        and report.dim_range == (2, 3, 4, 5, 6, 7, 8)
        and report.worst_residual <= 1e-9
        and skip_rate < 0.05
    )
    _criterion(
        1,
        ok,
        f"closed form vs direct p within 1e-9 over {report.trials_run} trials "
        f"(worst {report.worst_residual:.2e}, skip rate {skip_rate:.2%})",
    )


def test_criterion_2_principles_hold(sweep):
    checks = {
        "principle.triviality": 1e-10,
        "lemma.superpose_identity_commutative": 1e-10,
        "principle.coplanarity": None,
        "lemma.prop1_theta_zero": 1e-8,
        "principle.superposition_domain": 1e-10,
    }
    ok = all(_law_ok(sweep, law, tol) for law, tol in checks.items())
    worst = max(sweep[law].worst_residual for law in checks)
    _criterion(
        2,
        ok,
        f"triviality/commutativity/identity/coplanarity/theta-vanishing all hold "
        f"(worst residual {worst:.2e})",
    )


def test_criterion_3_projection_chain_and_argmax(sweep):
    chain = sweep["theorem.p_chain"]
    argmax = sweep["corollary.p_max"]
    ok = chain.passed and chain.worst_residual < 1e-10 and argmax.passed and argmax.worst_residual < 1e-10
    _criterion(
        3,
        ok,
        f"chain rule residual {chain.worst_residual:.2e} < 1e-10; projection strictly "
        f"maximal against 4 candidates at distance 1e-1..1e-4, gap residual "
        f"{argmax.worst_residual:.2e} < 1e-10, across {argmax.trials_run} trials",
    )


def test_criterion_4_probability_calculus(sweep):
    positive = [
        "lemma.complement_sum",
        "lemma.ortho_additivity",
        "corollary.ortho_additivity_family",
        "lemma.inclusion_exclusion",
        "lemma.conjunction_chain",
        "corollary.monotone",
        "corollary.total_probability",
    ]
    ok = all(_law_ok(sweep, law, 1e-10) for law in positive)
    control = sweep["counterexample.total_probability"]
    family = sweep["counterexample.total_probability_2d"]
    ok = ok and control.passed and control.worst_residual <= 1e-10
    ok = ok and family.passed and family.worst_residual <= 1e-9
    _criterion(
        4,
        ok,
        f"calculus laws < 1e-10 on constructed pairs; non-commuting control fails by its "
        f"interference term within {control.worst_residual:.2e}; planar family matches "
        f"analytic residual within {family.worst_residual:.2e}",
    )


def test_criterion_5_interference_inequality_and_search(sweep):
    report = sweep["theorem.interference_inequality"]
    ok = (
        report.passed
        and report.dim_range == (3, 4, 5, 6, 7, 8)
        and report.trials_run + report.trials_skipped == 6 * 10_000
        and report.worst_residual <= 1e-12
    )
    witness = search_nonsquared_counterexample(seed=42, budget=100_000)
    ok = ok and witness is not None and witness.nonsquared_excess > 1e-10
    ok = ok and witness.squared_margin >= -1e-12
    _criterion(
        5,
        ok,
        f"margin >= -1e-12 over 10^4 trials x dims 3..8; non-squared witness found at "
        f"trial {witness.trial_index if witness else '-'} and passes the squared form",
    )


def test_criterion_6_theta_laws(sweep):
    laws = [
        "lemma.theta_cyclic",
        "lemma.theta_cocycle",
        "theta.representative_independence",
        "lemma.theta_prime",
        "corollary.cos_theta_prime",
    ]
    ok = all(_law_ok(sweep, law, 1e-8) for law in laws)
    worst = max(sweep[law].worst_residual for law in laws)
    _criterion(
        6,
        ok,
        f"cyclic/antisymmetry/cocycle/representative-independence/primed-triple/"
        f"complement-cosine within 1e-8 (worst {worst:.2e})",
    )


def test_criterion_7_morphisms():
    iso_ok = 0
    noniso_ok = 0
    agreements = 0
    worst_p = 0.0
    worst_t = 0.0
    for i in range(100):
        rng = substream(42, "acceptance.morphisms", 3, i)
        dim = int(rng.integers(2, 6))
        m, dim_out = isometry_maps(rng, 1, dim)
        f = RegularMap(m[0, : dim_out[0]])
        report = preserves_superpositions(f, trials=60, seed=i)
        quantities = check_preserves_p_theta(f, trials=40, seed=i)
        worst_p = max(worst_p, quantities.p_residual)
        worst_t = max(worst_t, quantities.theta_residual)
        if report.preserves and quantities.p_residual < 1e-10 and quantities.theta_residual < 1e-10:
            iso_ok += 1
        m, dim_out = non_isometry_maps(rng, 1, dim)
        g = RegularMap(m[0, : dim_out[0]])
        g_report = preserves_superpositions(g, trials=200, seed=i)
        if (not g_report.preserves) and g_report.witness is not None and isometry_scale(g) is None:
            noniso_ok += 1
        if check_char_morph(f, trials=60, seed=i) and check_char_morph(g, trials=200, seed=i):
            agreements += 1
    ok = iso_ok == 100 and noniso_ok == 100 and agreements == 100
    _criterion(
        7,
        ok,
        f"{iso_ok}/100 isometries preserve (p,theta residuals {worst_p:.1e},{worst_t:.1e}); "
        f"{noniso_ok}/100 non-isometries break with a witness; characterization agreement "
        f"{agreements}/100",
    )


def test_criterion_8_tensor_formulas(sweep):
    ok = _law_ok(sweep, "tensor.p_product", 1e-10) and _law_ok(
        sweep, "tensor.theta_additive", 1e-10
    )
    x = ray_from([1.0, 0.0])
    y = ray_from([1.0, 1.0])
    z = ray_from([1.0, 1.0j])
    t_single = theta(x, y, z)
    t_double = theta(
        tensor_ray(x, x), tensor_ray(y, y), tensor_ray(z, z)
    )
    fixture_ok = (
        abs(t_single + math.pi / 4) < 1e-12 and abs(t_double + math.pi / 2) < 1e-12
    )
    ok = ok and fixture_ok
    _criterion(
        8,
        ok,
        f"p multiplicative and theta additive on C2xC2 and C2xC3 within 1e-10; "
        f"hand fixture -pi/4 doubled to {t_double:.6f}",
    )


def test_criterion_9_classical_regime(sweep):
    errors = 0
    requests = 0
    vacuous = True
    for dim in range(2, 9):
        eye = np.eye(dim)
        rays = [ray_from(eye[k]) for k in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    continue
                requests += 1
                try:
                    SuperpositionSpec(y=rays[i], z=rays[j], r=0.5)
                except OrthogonalComponentsError:
                    errors += 1
        if dim >= 3:
            for i in range(dim - 2):
                vacuous = vacuous and reciprocity_holds(rays[i], rays[i + 1], rays[i + 2])
    ok = errors == requests and vacuous and _law_ok(sweep, "classical.no_disturbance", 1e-10)
    _criterion(
        9,
        ok,
        f"{errors}/{requests} nontrivial classical superposition requests refused; "
        f"reciprocity vacuously true on all sampled classical triples",
    )


def test_criterion_10_determinism(tmp_path):
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    argv = ["verify", "--dims", "2,3,4", "--trials", "100", "--seed", "20260809"]
    assert cli_main(argv + ["--output", str(first)]) == 0
    assert cli_main(argv + ["--output", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    reports = json.loads(first.read_text())
    _criterion(
        10,
        identical and len(reports) > 0,
        f"two verify runs with identical config produced byte-identical JSON "
        f"({len(first.read_bytes())} bytes, {len(reports)} laws)",
    )


def _readme_fact(text, pattern):
    """The one match of ``pattern``'s group in the README: a fact stated
    twice, or not at all, fails."""
    found = re.findall(pattern, text, re.MULTILINE)
    assert len(found) == 1, f"README states {pattern!r} {len(found)} times"
    return found[0]


def _running_blas():
    """(OpenBLAS version, kernel) as numpy's bundled OpenBLAS reports them
    at run time, or None where numpy bundles no such library.  Loading
    the library numpy already loaded returns that instance, so the kernel
    is the one it picked for this CPU, not the one its build names."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    if len(libs) != 1:
        return None
    lib = ctypes.CDLL(libs[0])
    config, corename = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
    config.restype = corename.restype = ctypes.c_char_p
    return config().decode().split()[1], corename().decode()


def test_readme_states_current_facts(sweep, tmp_path):
    text = README.read_text(encoding="utf-8")
    assert int(_readme_fact(text, r"the (\d+) laws")) == len(lawcheck.registry())
    assert int(_readme_fact(text, r"^\| `stream_version` \| (\d+) \|$")) == STREAM_VERSION
    recorded = (
        _readme_fact(text, r"^\| numpy \| (\S+) \|$"),
        _readme_fact(text, r"^\| OpenBLAS \(bundled with numpy\) \| (\S+) \|$"),
        _readme_fact(text, r"^\| OpenBLAS kernel, picked at run time \| (\S+) \|$"),
    )
    verify_digest = _readme_fact(text, r"^\| sha256 of the file `raygeo verify --seed 42 .* \| `(\w{64})` \|$")
    search_digest = _readme_fact(text, r"^\| sha256 of what `raygeo search --budget 100000 --seed 42` .* \| `(\w{64})` \|$")
    # the digests hold only on the build they were taken on (the "Bytes" tier)
    if "OPENBLAS_CORETYPE" in os.environ:
        pytest.skip("OPENBLAS_CORETYPE is set; the README's digests were taken without it")
    running = (np.__version__, *(_running_blas() or ("no bundled OpenBLAS", "")))
    if running != recorded:
        pytest.skip(f"numpy, OpenBLAS and kernel {running} are not the README's recorded build {recorded}")
    # the session sweep is the default run of `raygeo verify --seed 42`
    assert hashlib.sha256(serialize.dumps_reports(list(sweep.values())).encode()).hexdigest() == verify_digest
    witness = tmp_path / "witness.json"
    assert cli_main(["search", "--budget", "100000", "--seed", "42", "--output", str(witness)]) == 0
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == search_digest


def test_all_laws_green(sweep):
    failing = [law_id for law_id, report in sweep.items() if not report.passed]
    print(f"[acceptance] full registry: {len(sweep)} laws, failing: {failing or 'none'}")
    assert not failing
