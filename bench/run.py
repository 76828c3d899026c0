"""raygeo benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,lattice,search} --seed N \
        --seconds S --trace {0,1} [--quick]

Workloads (README.md in this directory says why each was chosen):

* ``sweep``   -- ``raygeo.cli.main(["verify", ...])`` in process over all
  60 laws: the command users run, at a reduced size (see SWEEP_ARGS).
* ``lattice`` -- ``lawcheck.run_law`` on 15 subspace-lattice laws at
  dimension 16.
* ``search``  -- a batch of independent
  ``probability.search_nonsquared_counterexample`` calls.

A run repeats one *pass* of its workload on the same inputs until
``--seconds`` have been spent (at least one pass), then checks every
output.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics, every time scaled to a reference speed (see reference.py).
With ``--trace 1`` the first half of the time runs untraced passes and
the rest traced passes, and the line holds the per-layer metrics.  The line before it is an ``info`` record: versions, BLAS and
its thread setting, nproc, git SHA, load averages, per-pass counts, the
output digest and the failures.

The program under test is imported from ``src/`` next to this
directory; the run exits with code 2 and prints no result if it is
missing.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc): the workloads multiply matrices of
# dimension <= 32, where extra threads only add scheduling noise.  Must
# be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import fnmatch
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out" / str(os.getpid())

sys.path.insert(0, str(HERE))
from reference import Reference  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("sweep", "lattice", "search")

# The default sweep (--dims 2..8 --trials 1000) takes about a minute,
# and 30 laws pin their own trial counts, so --trials alone cannot
# shrink it.  One dimension keeps every law at its default or pinned size.
SWEEP_ARGS = ["verify", "--dims", "2", "--trials", "1000"]
QUICK_SWEEP_ARGS = ["verify", "--dims", "2", "--trials", "5", "--laws", "corollary.*"]

# A fixed list of ids, never a selection by law attributes, so that
# the workload survives changes to the Law record.
LATTICE_IDS = (
    "linalg.orthonormalize_contract",
    "subspace.complement_involution",
    "subspace.orthomodular_identity",
    "subspace.commutes_complement",
    "lemma.commuting_decomposition",
    "lemma.ortho_additivity",
    "lemma.complement_sum",
    "lemma.inclusion_exclusion",
    "lemma.conjunction_chain",
    "lemma.orthomodular_equality",
    "corollary.contained_or_orthogonal_commute",
    "corollary.ortho_additivity_family",
    "corollary.monotone",
    "corollary.total_probability",
    "corollary.interference_membership",
)
LATTICE_DIMS = (16,)
QUICK_LATTICE_DIMS = (4,)

SEARCH_BATCH = 4000
QUICK_SEARCH_BATCH = 50
SEARCH_BUDGET = 100_000
SQUARED_MARGIN_FLOOR = -1e-12

SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import raygeo; from raygeo import lawcheck; lawcheck.registry()"
)

# Per-layer metrics named by function: "<layer>.<function>".
TRACED_FUNCTIONS = (
    "sampling.substream",
    "sampling.random_ray",
    "sampling.random_subspace",
    "sampling.random_frame",
    "rays.ray_from",
    "rays.project_ray",
    "rays.project_vec",
    "rays.ortho_complement",
    "rays.join",
    "rays.meet",
    "rays.commutes",
    "linalg.orthonormalize",
    "geometry.p_sim",
    "geometry.p_prop",
    "geometry.theta",
)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def strict_loads(text: str):
    """json.loads that refuses NaN and +/-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class Pass:
    """Outcome of one pass: timings, counts, output digest, failures."""

    def __init__(self):
        self.start = self.end = 0.0
        # Start and duration of each successful operation; arrays, so that
        # memory does not grow with the number of passes.
        self.op_starts = array("d")
        self.op_seconds = array("d")
        self.attempted = 0
        self.failures: list[str] = []
        self.trials = 0
        self.skipped = 0
        self.report_bytes = 0
        self.digest = ""
        self.outputs = None  # kept for checks that call raygeo after tracing

    def failed_keys(self) -> set[str]:
        """The failed operations: each failure message starts with its key."""
        return {f.split(":", 1)[0] for f in self.failures}

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failed_keys()))

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def add_op(self, start: float, seconds: float) -> None:
        self.op_starts.append(start)
        self.op_seconds.append(seconds)


class Workload:
    """Base: a workload runs passes and checks their outputs."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed

    def warm_up(self):
        """Untimed work that loads lazily initialised code paths."""

    def run_pass(self, law_timer: Tracer) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass):
        """Checks that call raygeo; run after the tracer is removed."""


def expected_cells(ids, dims, trials) -> dict[str, int]:
    from raygeo import lawcheck

    reg = lawcheck.registry()
    cells = {}
    for law_id in ids:
        law = reg[law_id]
        law_dims = getattr(law, "dims", None) or dims
        law_trials = getattr(law, "trials_per_dim", None) or trials
        cells[law_id] = len(law_dims) * law_trials
    return cells


def check_reports(rows, cells: dict[str, int], p: Pass):
    """Fill trial counts and failures from serialized law reports."""
    seen = []
    for row in rows:
        if not isinstance(row, dict):
            p.failures.append(f"report rejected: entry {row!r} is not an object")
            continue
        law_id = row.get("law_id")
        seen.append(law_id)
        done = row.get("trials_run", 0) + row.get("trials_skipped", 0)
        p.trials += done
        p.skipped += row.get("trials_skipped", 0)
        if row.get("pass") is not True:
            p.failures.append(f"{law_id}: law failed: {row.get('counterexample')}")
        elif law_id not in cells:
            p.failures.append(f"{law_id}: unexpected law")
        elif done != cells[law_id]:
            p.failures.append(f"{law_id}: {done} cells, expected {cells[law_id]}")
    missing = [i for i in cells if i not in seen]
    p.failures.extend(f"{i}: no report" for i in missing)


class Sweep(Workload):
    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        from raygeo import lawcheck

        self.args = list(QUICK_SWEEP_ARGS if quick else SWEEP_ARGS)
        opts = dict(zip(self.args[1::2], self.args[2::2]))
        dims = tuple(int(d) for d in opts["--dims"].split(","))
        pattern = opts.get("--laws")
        ids = [i for i in lawcheck.law_ids() if pattern is None or fnmatch.fnmatch(i, pattern)]
        self.cells = expected_cells(ids, dims, int(opts["--trials"]))
        OUT.mkdir(parents=True, exist_ok=True)
        self.report_path = OUT / "sweep.json"

    def warm_up(self):
        import raygeo.cli

        argv = ["verify", "--dims", "2", "--trials", "2", "--laws", "linalg.*",
                "--seed", str(self.seed), "--output", str(self.report_path)]
        raygeo.cli.main(argv)

    def run_pass(self, law_timer):
        import raygeo.cli

        p = Pass()
        argv = self.args + ["--seed", str(self.seed), "--output", str(self.report_path)]
        if self.report_path.exists():
            self.report_path.unlink()
        start_runs = len(law_timer.law_runs)
        p.start = time.perf_counter()
        try:
            code = raygeo.cli.main(argv)
        except Exception:
            code = None
            p.failures.append("cli.main raised: " + traceback.format_exc(limit=3))
        p.end = time.perf_counter()
        runs = law_timer.law_runs[start_runs:]
        p.attempted = len(self.cells)
        try:
            data = self.report_path.read_bytes()
        except OSError as exc:
            p.failures.append(f"no report file: {exc}")
            data = b""
        p.report_bytes = len(data)
        p.digest = hashlib.sha256(data).hexdigest()
        try:
            rows = strict_loads(data.decode("utf-8"))
            if not isinstance(rows, list):
                raise ValueError("report is not a list")
        except ValueError as exc:
            p.failures.append(f"report rejected: {exc}")
            rows = []
        check_reports(rows, self.cells, p)
        if code != 0 and not p.failures:
            p.failures.append(f"verify exited with {code}")
        failed = p.failed_keys()
        for law_id, t0, seconds in runs:
            if law_id not in failed:
                p.add_op(t0, seconds)
        return p


class Lattice(Workload):
    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.dims = QUICK_LATTICE_DIMS if quick else LATTICE_DIMS
        self.cells = expected_cells(LATTICE_IDS, self.dims, 1)

    def _gen(self):
        from raygeo import lawcheck

        return lawcheck.GeneratorSpec(dims=self.dims, trials_per_dim=1, seed=self.seed)

    def warm_up(self):
        from raygeo import lawcheck

        lawcheck.run_law(LATTICE_IDS[-1], lawcheck.GeneratorSpec(dims=(4,), trials_per_dim=1, seed=0))

    def run_pass(self, law_timer):
        from raygeo import lawcheck

        p = Pass()
        gen = self._gen()
        reports = []
        p.start = time.perf_counter()
        for law_id in LATTICE_IDS:
            t0 = time.perf_counter()
            try:
                report = lawcheck.run_law(law_id, gen)
            except Exception:
                p.failures.append(f"{law_id}: run_law raised: " + traceback.format_exc(limit=3))
                continue
            reports.append((report, t0, time.perf_counter() - t0))
        p.end = time.perf_counter()
        p.attempted = len(LATTICE_IDS)
        rows = []
        for report, _, _ in reports:
            row = {
                "law_id": report.law_id,
                "pass": report.passed,
                "trials_run": report.trials_run,
                "trials_skipped": report.trials_skipped,
                "worst_residual": report.worst_residual,
                "counterexample": report.counterexample,
            }
            try:
                rows.append(strict_loads(json.dumps(row, allow_nan=False, sort_keys=True)))
            except ValueError as exc:
                p.failures.append(f"{report.law_id}: report rejected: {exc}")
        check_reports(rows, self.cells, p)
        p.digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        failed = p.failed_keys()
        for report, t0, seconds in reports:
            if report.law_id not in failed:
                p.add_op(t0, seconds)
        return p


class Search(Workload):
    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        import numpy as np

        batch = QUICK_SEARCH_BATCH if quick else SEARCH_BATCH
        states = np.random.SeedSequence(seed).generate_state(batch, dtype=np.uint64)
        self.seeds = [int(s) for s in states]

    def warm_up(self):
        from raygeo import probability

        for s in range(20):
            probability.search_nonsquared_counterexample(seed=s, budget=SEARCH_BUDGET)

    def run_pass(self, law_timer):
        from raygeo import probability

        p = Pass()
        found = []
        clock = time.perf_counter
        p.start = clock()
        for s in self.seeds:
            t0 = clock()
            try:
                w = probability.search_nonsquared_counterexample(seed=s, budget=SEARCH_BUDGET)
            except Exception:
                w = None
                p.failures.append(f"seed {s}: search raised: " + traceback.format_exc(limit=3))
            found.append((s, w, t0, clock() - t0))
        p.end = clock()
        p.attempted = len(self.seeds)
        h = hashlib.sha256()
        for s, w, t0, seconds in found:
            if w is None:
                p.failures.append(f"seed {s}: no witness within {SEARCH_BUDGET} candidates")
                continue
            p.trials += w.trial_index + 1
            p.add_op(t0, seconds)
            h.update(repr((s, w.trial_index, w.nonsquared_excess, w.squared_margin)).encode())
            for arr in (w.x.rep, w.alpha.basis, w.beta.basis):
                h.update(arr.tobytes())
        p.digest = h.hexdigest()
        p.outputs = [(s, w) for s, w, _, _ in found if w is not None]
        return p

    def check(self, p):
        """Re-verify every witness with the public p_prop and project_ray."""
        from raygeo import geometry, rays

        for s, w in p.outputs:
            try:
                p_xb = geometry.p_prop(w.x, w.beta)
                bx = rays.project_ray(w.beta, w.x)
                p_bx_a = geometry.p_prop(bx, w.alpha)
                abx = rays.project_ray(w.alpha, bx)
                p_abx_b = geometry.p_prop(abx, w.beta)
            except Exception as exc:  # a degenerate witness is a failed search
                p.failures.append(f"seed {s}: witness does not re-verify: {exc!r}")
                continue
            excess = p_xb * (1.0 - p_bx_a) - p_bx_a * (1.0 - p_abx_b)
            squared = p_bx_a * (1.0 - p_abx_b) - p_xb * (1.0 - p_bx_a) ** 2
            if not excess > 0.0:
                p.failures.append(f"seed {s}: non-squared excess {excess!r} is not > 0")
            if not squared >= SQUARED_MARGIN_FLOOR:
                p.failures.append(f"seed {s}: squared margin {squared!r} < {SQUARED_MARGIN_FLOOR}")
        p.outputs = None


def make_workload(name: str, seed: int, quick: bool) -> Workload:
    return {"sweep": Sweep, "lattice": Lattice, "search": Search}[name](seed, quick)


# -- environment record -----------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "raygeo").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def measure_setup_s(ref: Reference) -> list[float]:
    """Scaled times for fresh interpreters to import raygeo and build the registry.

    A start is steadier than one reference chunk, so all starts share
    the scale of every chunk sampled between them.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)  # may compile bytecode
    first = time.perf_counter()
    times = []
    for _ in range(SETUP_REPEATS):
        ref.sample()
        ref.sample()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    ref.sample()
    scale = ref.scale(first, time.perf_counter())
    return [t * scale for t in times]


# -- running -----------------------------------------------------------


def run_passes(workload: Workload, budget_s: float, timer: Tracer) -> list[Pass]:
    """At least one pass; another only while it is expected to fit the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        p = workload.run_pass(timer)
        if passes and p.digest == passes[0].digest:
            p.outputs = None  # same inputs, same outputs: checking the first pass suffices
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if elapsed + typical > budget_s:
            return passes


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(passes: list[Pass], setup: list[float], ref: Reference) -> dict:
    """End-to-end metrics, every time scaled to the reference speed."""
    walls = [ref.scaled(p.start, p.end) for p in passes]
    latencies = [ref.scaled(t0, t0 + s) for p in passes for t0, s in zip(p.op_starts, p.op_seconds)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "trials_per_s": {"value": sum(p.trials for p in passes) / sum(walls), "unit": "1/s"},
        "op_p50_ms": {"value": 1000.0 * percentile(latencies, 0.50), "unit": "ms"},
        "op_p99_ms": {"value": 1000.0 * percentile(latencies, 0.99), "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass]) -> dict:
    n = len(traced)
    wall = sum(p.wall_s for p in traced) / n
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for fn in TRACED_FUNCTIONS:
        put(f"{fn}.calls", tracer.calls(fn) / n, "count")
        put(f"{fn}.self_s", tracer.self_s(fn) / n, "s")
    pairs = tracer.pairs_returned
    draws = tracer.calls("sampling.random_ray", parent="sampling.nonorthogonal_pair")
    put("sampling.draws_per_pair", draws / (2 * pairs) if pairs else 0.0, "ratio")
    for layer in LAYERS:
        put(f"{layer}.self_s", tracer.module_self_s(layer) / n, "s")
    put("lawcheck.run_law.self_s", tracer.self_s("lawcheck.run_law") / n, "s")
    cells = sum(p.trials for p in traced)
    put("lawcheck.skip_ratio", sum(p.skipped for p in traced) / cells if cells else 0.0, "ratio")
    from raygeo import lawcheck

    law_s = dict.fromkeys(lawcheck.law_ids(), 0.0)
    for law_id, _, seconds in tracer.law_runs:
        law_s[law_id] = law_s.get(law_id, 0.0) + seconds
    for law_id, seconds in law_s.items():
        put(f"lawcheck.law_s.{law_id}", seconds / n, "s")
    put("serialize.dumps_reports.self_s", tracer.self_s("serialize.dumps_reports") / n, "s")
    put("serialize.report_bytes", sum(p.report_bytes for p in traced) / n, "bytes")
    put("cli.main.self_s", tracer.self_s("cli.main") / n, "s")
    put("trace.wall_s", wall, "s")
    put("trace.unattributed_s", wall - tracer.root_child_s / n, "s")
    median = statistics.median
    put("trace.overhead", median(p.wall_s for p in traced) / median(p.wall_s for p in untraced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="minimal sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "raygeo" / "__init__.py").is_file():
        sys.stderr.write(f"no raygeo sources under {SRC}; run from a full checkout\n")
        return 2

    sys.path.insert(0, str(SRC))
    import raygeo

    if Path(raygeo.__file__).resolve().parent != SRC / "raygeo":
        sys.stderr.write(f"imported raygeo from {raygeo.__file__}, not from {SRC}\n")
        return 2

    # One CPU for the whole run: the reference chunks, the workload and
    # the interpreter starts for setup_s then share its speed.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    load_before = os.getloadavg()[0]
    ref = Reference()
    setup = [] if args.trace else measure_setup_s(ref)
    workload = make_workload(args.workload, args.seed, args.quick)
    workload.warm_up()

    law_timer = Tracer(only={"lawcheck.run_law"})
    try:
        if args.trace:  # raw times: reference chunks would land inside the spans
            with law_timer:
                untraced = run_passes(workload, args.seconds / 2.0, law_timer)
            tracer = Tracer()
            with tracer:
                traced = run_passes(workload, args.seconds / 2.0, tracer)
            passes = untraced + traced
        else:
            with law_timer, ref:
                passes = run_passes(workload, float(args.seconds), law_timer)
        for p in passes:
            if p.outputs is not None:
                workload.check(p)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        try:
            OUT.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    for p in passes[1:]:
        if p.digest != passes[0].digest:
            p.failures.append("digest: output differs from the first pass on the same inputs")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
    else:
        metrics = end_to_end(passes, setup, ref)

    info = environment()
    info.update(
        workload=args.workload,
        seed=args.seed,
        quick=args.quick,
        trace=args.trace,
        load_1m_before=load_before,
        load_1m_after=os.getloadavg()[0],
        passes=len(passes),
        pass_wall_s=[p.wall_s for p in passes],
        cpu=cpu,
        reference_chunk_s=ref.mean_chunk_s,
        reference_samples=len(ref.starts),
        setup_s=setup,
        trials_per_pass=[p.trials for p in passes],
        ops_per_pass=[p.attempted for p in passes],
        digest=passes[0].digest,
        failed_share=failed / attempted,
        failures=[f for p in passes for f in p.failures][:20],
    )
    print(json.dumps({"info": info}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
