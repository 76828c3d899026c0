"""Self-test of the benchmark, at minimal sizes (about a minute).

    python3 bench/selftest.py

Checks that:

* every workload runs, traced and untraced, and emits every metric
  named in BENCHMARK.json with its unit, and nothing fails;
* the traced self times (the layers' ``self_s`` plus the time outside
  any span) sum to the traced wall time within timer resolution, and
  in ``sweep`` the layers alone cover the wall time within 5 %;
* one seed gives identical trial counts and output digests in two runs;
* a second seed also runs with no failed operation;
* in a directory holding only BENCHMARK.json and the benchmark, a run
  fails fast without printing a result.

Exits with code 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = (
    "sampling", "rays", "linalg", "geometry", "superposition", "probability",
    "morphisms", "tensor", "lawcheck", "serialize", "cli",
)
SELF_SUM_TOL_S = 1e-6
SWEEP_COVERAGE = 0.05

failures: list[str] = []


def check(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-3000:])
        return None, None
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_metrics(tag: str, result: dict, declared: list[dict]):
    metrics = result["metrics"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: correct, {result['failed']} of {result['attempted']} failed")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    check(not missing, f"{tag}: every declared metric emitted (missing {missing[:5]})")
    wrong = [m["name"] for m in declared
             if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]]
    check(not wrong, f"{tag}: units as declared (wrong {wrong[:5]})")
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    check(not extra, f"{tag}: no undeclared metric (extra {extra[:5]})")


def check_self_times(tag: str, workload: str, metrics: dict):
    value = {name: m["value"] for name, m in metrics.items()}
    layers = sum(value[f"{layer}.self_s"] for layer in LAYERS)
    wall = value["trace.wall_s"]
    total = layers + value["trace.unattributed_s"]
    check(abs(total - wall) <= SELF_SUM_TOL_S,
          f"{tag}: self times sum to traced wall ({total:.9f} vs {wall:.9f} s)")
    if workload == "sweep":
        check(abs(layers - wall) <= SWEEP_COVERAGE * wall,
              f"{tag}: layer self times cover {layers / wall:.1%} of traced wall")


def main() -> int:
    for workload in WORKLOADS:
        first_info, first = result_of(run(workload, 1, 0))
        check(first is not None, f"{workload}: untraced run exits 0 with a result")
        if first is not None:
            check_metrics(f"{workload} untraced", first, SPEC["end_to_end"])

        again_info, again = result_of(run(workload, 1, 0))
        if first_info and again_info:
            check(first_info["trials_per_pass"][0] == again_info["trials_per_pass"][0],
                  f"{workload}: same seed, same trial count")
            check(first_info["digest"] == again_info["digest"],
                  f"{workload}: same seed, same output digest")

        _, other = result_of(run(workload, 2, 0))
        check(other is not None and other["correct"] and other["failed"] == 0,
              f"{workload}: second seed, failed share 0")

        _, traced = result_of(run(workload, 1, 1))
        check(traced is not None, f"{workload}: traced run exits 0 with a result")
        if traced is not None:
            check_metrics(f"{workload} traced", traced, SPEC["per_layer"])
            check_self_times(f"{workload} traced", workload, traced["metrics"])

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 1, 0, cwd=bare, script=bare / HERE.relative_to(ROOT) / "run.py")
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
