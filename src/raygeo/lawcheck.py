"""Verification harness: named laws over seeded random instances.

Each registered law pairs a residual checker with its pass criteria.
Running a law evaluates the checker on every (dim, trial) cell and
produces a :class:`LawReport` that is a pure function of the law id
and the :class:`GeneratorSpec` — same seed, same bytes.

A law is checked in one of two ways (see :mod:`raygeo.sampling` for
the key scheme):

* trial by trial: ``checker`` runs once per cell on the substream
  keyed by (law, dim, trial);
* in blocks: ``batch`` runs once per block of at most
  :data:`BLOCK_TRIALS` trials on the substream keyed by (law, dim,
  block): it samples the whole block as stacks of instances (leading
  axis = trial) and returns their residuals at once.  Trial ``t`` of a
  dimension is row ``t % BLOCK_TRIALS`` of block ``t // BLOCK_TRIALS``.

Laws whose instances keep one shape from trial to trial (rays, phases,
superpositions, tensor products) are batched; laws whose instances
change shape (subspaces of random rank, the morphism samplers, the
search) run trial by trial.  Either way the runner holds at most one
block of :data:`BLOCK_TRIALS` trials at a time.

Checkers return the trial residual, or ``None`` to *skip* a trial whose
instance is too degenerate to measure (near-orthogonal where strict
non-orthogonality is required, vanishing closed-form denominators);
batched checkers return a skip mask instead.  A law passes when its
worst residual is within tolerance, every residual is finite (a
checker that raises counts as an infinite residual), and the skip rate
stays below the cap.  The counterexample of a failing law names its
first failing (dim, trial) cell and describes its instance: a
per-trial law replays the cell to record it, and a batched law's
counterexample is row ``i`` of the block's instance stacks.  The
library calls inside a checker apply the fixed thresholds of
:mod:`raygeo.linalg`; the law's ``tolerance`` judges the residual.

Negative-control laws invert the game: they assert that an identity
*fails* on generic instances exactly as predicted, and they pass when
it does.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import UnknownLawError
from .sampling import check_seed, substream
from .serialize import to_jsonable

#: Ceiling on the fraction of skipped trials before a law fails outright.
MAX_SKIP_RATE = 0.05

#: The range of ambient dimensions a run may sweep.
MIN_DIM, MAX_DIM = 2, 32

#: Trials per block of a batched law, and so per substream.  Bounds the
#: memory of one block's stacks: at d = 8 a block of 256 interference
#: trials peaks near 2 MB, and larger blocks run no faster.  Per-trial
#: laws are tallied in chunks of the same size.
BLOCK_TRIALS = 256

#: The largest trial count per law and dimension a run may ask for.
#: Memory stays bounded at any count (trials are streamed in blocks),
#: but at a few hundred microseconds per per-trial cell a million
#: trials already keep one law busy for minutes per dimension.
MAX_TRIALS = 1_000_000


@dataclass(frozen=True)
class GeneratorSpec:
    """Sampling configuration for a run.

    Attributes
    ----------
    dims : tuple of int
        Ambient dimensions to sweep (each in [MIN_DIM, MAX_DIM]).
    trials_per_dim : int
        Trials per law per dimension (laws may pin their own count).
    seed : int
        Base seed for the substream scheme, in [0, 2**64).
    """

    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    trials_per_dim: int = 1000
    seed: int = 42

    def __post_init__(self):
        if not self.dims:
            raise ValueError("dims must be non-empty")
        if any(d < MIN_DIM or d > MAX_DIM for d in self.dims):
            raise ValueError(f"dims must lie within [{MIN_DIM}, {MAX_DIM}]")
        if not 1 <= self.trials_per_dim <= MAX_TRIALS:
            raise ValueError(f"trials_per_dim must lie within [1, {MAX_TRIALS}]")
        check_seed(self.seed)


@dataclass
class LawReport:
    """Outcome of checking one law over its random instances."""

    law_id: str
    passed: bool
    negative_control: bool
    trials_run: int
    trials_skipped: int
    worst_residual: float
    tolerance: float
    seed: int
    dim_range: tuple[int, ...]
    counterexample: dict | None
    elapsed_ms: float


class Block(NamedTuple):
    """What a batched checker returns for a block of ``n`` trials.

    ``residuals`` and ``skipped`` have shape (n,); the residuals of
    skipped trials are ignored.  ``instance`` maps names to the stacks
    the block was checked on, each with leading axis n (trial); row
    ``i`` of every stack, through :func:`raygeo.serialize.to_jsonable`,
    is the counterexample record of trial ``i``.
    """

    residuals: np.ndarray
    skipped: np.ndarray
    instance: dict[str, np.ndarray]


@dataclass(frozen=True)
class Law:
    """A named law: checker + pass criteria.

    Exactly one of ``checker`` and ``batch`` is set.
    ``checker(rng, dim, record)`` returns the trial residual or
    None to skip; when ``record`` is a dict the checker fills it with a
    serializable description of the instance (used to attach a
    counterexample after a failing trial is replayed).
    ``batch(rng, dim, n)`` samples ``n`` trials as stacks from one
    stream, checks them at once and returns a :class:`Block`.

    ``aggregate``, when set, converts the full residual list into the
    (passed, reported_worst) verdict; used by negative controls that
    assert a failure *fraction* rather than a worst case.
    """

    id: str
    description: str
    checker: Callable | None = None
    tolerance: float = 1e-10
    dims: tuple[int, ...] | None = None
    trials_per_dim: int | None = None
    negative_control: bool = False
    aggregate: Callable | None = None
    batch: Callable | None = None


_REGISTRY: dict[str, Law] = {}
_ORDER: list[str] = []


def register(law: Law) -> Law:
    if law.id in _REGISTRY:
        raise ValueError(f"duplicate law id {law.id!r}")
    if (law.checker is None) == (law.batch is None):
        raise ValueError(f"law {law.id!r} needs exactly one of checker and batch")
    _REGISTRY[law.id] = law
    _ORDER.append(law.id)
    return law


def registry() -> dict[str, Law]:
    """The full law registry, keyed by id (registration order kept)."""
    from . import laws  # noqa: F401  (registers on first import)

    return dict(_REGISTRY)


def law_ids() -> list[str]:
    registry()
    return list(_ORDER)


def _worse(worst: float, value: float) -> float:
    """The worse of two residuals; NaN is worse than anything."""
    if math.isnan(worst):
        return worst
    return value if math.isnan(value) or value > worst else worst


class _Chunk(NamedTuple):
    """Consecutive trials of one dimension, starting at trial ``start``.

    ``errors`` maps chunk indices whose checker raised (residual +inf)
    to the error text; ``describe(i)`` returns the counterexample record
    of index ``i``.
    """

    start: int
    residuals: np.ndarray
    skipped: np.ndarray
    errors: dict[int, str]
    describe: Callable[[int], dict]


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _trial_chunks(law: Law, seed: int, dim: int, trials: int):
    """The trials of a per-trial law in one dimension, in chunks of at
    most :data:`BLOCK_TRIALS`; a failing cell is replayed for its record."""

    def describe(trial: int) -> dict:
        record: dict = {}
        try:
            law.checker(substream(seed, law.id, dim, trial), dim, record)
        except Exception:
            pass
        return record

    for start in range(0, trials, BLOCK_TRIALS):
        n = min(BLOCK_TRIALS, trials - start)
        residuals = np.zeros(n)
        skipped = np.zeros(n, dtype=bool)
        errors: dict[int, str] = {}
        for i in range(n):
            try:
                residual = law.checker(substream(seed, law.id, dim, start + i), dim, None)
            except Exception as exc:  # a checker must never raise on a legal instance
                residuals[i] = math.inf
                errors[i] = _error_text(exc)
                continue
            if residual is None:
                skipped[i] = True
            else:
                residuals[i] = float(residual)
        yield _Chunk(start, residuals, skipped, errors, lambda i, start=start: describe(start + i))


def _block_chunks(law: Law, seed: int, dim: int, trials: int):
    """The blocks of a batched law in one dimension, one chunk each."""
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        n = min(BLOCK_TRIALS, trials - start)
        try:
            residuals, skipped, instance = law.batch(substream(seed, law.id, dim, block), dim, n)
            residuals = np.asarray(residuals, dtype=np.float64)
            skipped = np.asarray(skipped, dtype=bool)
            if residuals.shape != (n,) or skipped.shape != (n,):
                raise ValueError(f"block of {n} trials gave shapes {residuals.shape}, {skipped.shape}")
        except Exception as exc:  # a checker must never raise on a legal instance
            yield _Chunk(start, np.full(n, math.inf), np.zeros(n, dtype=bool), {0: _error_text(exc)}, lambda i: {})
            continue

        def describe(i: int, instance=instance) -> dict:
            try:
                return {name: to_jsonable(stack[i]) for name, stack in instance.items()}
            except Exception:  # the residual and the cell still name the failure
                return {}

        yield _Chunk(start, residuals, skipped, {}, describe)


class _Tally:
    """Counts, worst residual and first failure of one law run."""

    def __init__(self, law: Law):
        self.law = law
        self.run = 0
        self.skipped = 0
        self.worst = 0.0
        self.nonfinite = False
        self.failure: dict | None = None
        self.values: list[float] | None = [] if law.aggregate is not None else None

    def add(self, dim: int, chunk: _Chunk) -> None:
        checked = np.flatnonzero(~chunk.skipped)
        residuals = chunk.residuals[checked]
        self.skipped += chunk.skipped.size - checked.size
        self.run += checked.size
        if checked.size == 0:
            return
        if self.values is not None:
            self.values.extend(residuals.tolist())
        self.worst = _worse(self.worst, float(residuals.max()))
        bad = ~np.isfinite(residuals)
        self.nonfinite = self.nonfinite or bool(bad.any())
        if self.law.aggregate is None:
            bad |= residuals > self.law.tolerance
        if self.failure is None and bad.any():
            i = int(checked[np.argmax(bad)])
            cell = {"dim": dim, "trial": chunk.start + i}
            if i in chunk.errors:
                self.failure = {**cell, "error": chunk.errors[i]}
            else:
                self.failure = {**cell, "residual": float(chunk.residuals[i]), **chunk.describe(i)}


def run_law(law_id: str, gen: GeneratorSpec) -> LawReport:
    """Check one law against seeded random instances.

    Deterministic given (law_id, gen): identical inputs produce an
    identical report (timing excluded).

    Raises
    ------
    UnknownLawError
        If the id is not registered.
    """
    reg = registry()
    if law_id not in reg:
        raise UnknownLawError(f"no law registered under id {law_id!r}")
    law = reg[law_id]
    dims = law.dims if law.dims is not None else gen.dims
    trials = law.trials_per_dim if law.trials_per_dim is not None else gen.trials_per_dim

    started = time.perf_counter()
    tally = _Tally(law)
    chunks = _trial_chunks if law.batch is None else _block_chunks
    for dim in dims:
        for chunk in chunks(law, gen.seed, dim, trials):
            tally.add(dim, chunk)

    failure = tally.failure
    total_cells = len(dims) * trials
    skip_rate = tally.skipped / total_cells if total_cells else 0.0
    if law.aggregate is not None:
        passed, worst = law.aggregate(tally.values)
        if not passed and failure is None:
            failure = {"note": "aggregate criterion not met", "metric": worst}
    else:
        worst = tally.worst
        passed = worst <= law.tolerance
    if tally.nonfinite:
        passed = False
    if skip_rate > MAX_SKIP_RATE:
        passed = False
        failure = failure or {
            "note": "skip rate above cap",
            "skip_rate": skip_rate,
        }

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return LawReport(
        law_id=law.id,
        passed=bool(passed),
        negative_control=law.negative_control,
        trials_run=tally.run,
        trials_skipped=tally.skipped,
        worst_residual=float(worst),
        tolerance=law.tolerance,
        seed=gen.seed,
        dim_range=tuple(dims),
        counterexample=failure if not passed else None,
        elapsed_ms=elapsed_ms,
    )


def run_all(gen: GeneratorSpec, pattern: str | None = None) -> list[LawReport]:
    """Run every registered law (optionally filtered by a glob on ids),
    in registration order.  Aggregate success means every report passed
    — negative controls included, which pass when their target identity
    fails as predicted."""
    registry()
    ids = [i for i in _ORDER if pattern is None or fnmatch.fnmatch(i, pattern)]
    return [run_law(law_id, gen) for law_id in ids]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
