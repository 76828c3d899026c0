"""Verification harness: named laws over seeded random instances.

Each law is declared once, by the :func:`law` decorator on its batch
function, which registers it with its pass criteria.  Running a law
evaluates it on every (dim, trial) cell and produces a
:class:`LawReport` that is a pure function of the law id and the
:class:`GeneratorSpec` — same seed, same bytes.

Every law runs in blocks: ``batch(rng, dim, n)`` runs once per block
of ``n =`` :func:`block_trials` trials (fewer in the last) on the
substream keyed by (law, dim, block) (see :mod:`raygeo.sampling`),
samples the block as stacks (leading axis = trial) and returns their
residuals, skip mask and instance stacks.  Trial ``t`` of a dimension
is trial ``t % n`` of block ``t // n``.  The runner holds one block at
a time.

A trial is *skipped* when its instance is too degenerate to measure
(near-orthogonal where strict non-orthogonality is required, vanishing
closed-form denominators); the stacked kernels mark such rows with a
value (NaN, a mask, a defect code) and never raise for them, and a
skipped row's residual is never read.  A law passes when its worst
residual is within tolerance, every residual of a checked trial is
finite, and the skip rate stays below the cap.  A block that raises is
a :class:`Block` like any other: an infinite residual on each of its
trials and an ``error`` column naming the exception.  The
counterexample of a failing law names its first failing (dim, trial)
cell and that row of its block's instance stacks; nothing is rerun.
The library calls inside a law apply the fixed thresholds of
:mod:`raygeo.linalg`; the law's ``tolerance`` judges the residual.

Negative-control laws, the ids ``counterexample.*``, invert the game:
they assert that an identity *fails* on generic instances exactly as
predicted, and they pass when it does.
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

#: Trials per block, and so per substream, up to d = 8.  Bounds the
#: memory of one block's stacks: at d = 8 a block of 256 interference
#: trials peaks near 2 MB, and larger blocks run no faster.
BLOCK_TRIALS = 256


def block_trials(dim: int) -> int:
    """Trials per block in dimension ``dim``: BLOCK_TRIALS·(8/d)³ rounded
    down, at most BLOCK_TRIALS, so that beyond d = 8 a block's (n, d, d)
    subspace stacks shrink as d grows (32 trials at d = 16)."""
    return min(BLOCK_TRIALS, BLOCK_TRIALS * 512 // dim**3)


#: The largest trial count per law and dimension a run may ask for.
#: Memory stays bounded at any count (trials are streamed in blocks),
#: but at a few hundred microseconds per trial of a lattice law a
#: million trials already keep one law busy for minutes per dimension.
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
    """What a law's batch function returns for a block of ``n`` trials.

    ``residuals`` and ``skipped`` have shape (n,); the residuals of
    skipped trials are ignored, so they may be NaN.  ``instance``
    describes the trials the block was checked on: a dict mapping names
    to stacks with leading axis n (trial), whose row ``i`` is trial
    ``i``.  Through :func:`raygeo.serialize.to_jsonable`, trial ``i``'s
    row is its counterexample record.  The runner turns a block that
    raises into one whose residuals are infinite and whose instance is
    a single ``error`` column of strings.
    """

    residuals: np.ndarray
    skipped: np.ndarray
    instance: dict[str, np.ndarray]


@dataclass(frozen=True)
class Law:
    """A named law: batch function + pass criteria.

    ``batch(rng, dim, n)`` checks ``n`` trials drawn from one stream
    and returns a :class:`Block`.

    ``aggregate``, when set, converts the full residual list into the
    (passed, reported_worst) verdict; used by negative controls that
    assert a failure *fraction* rather than a worst case.  The negative
    controls are exactly the laws whose id starts with
    ``counterexample.``.
    """

    id: str
    description: str
    batch: Callable
    tolerance: float = 1e-10
    dims: tuple[int, ...] | None = None
    trials_per_dim: int | None = None
    aggregate: Callable | None = None

    @property
    def negative_control(self) -> bool:
        return self.id.startswith("counterexample.")


_REGISTRY: dict[str, Law] = {}


def register(law: Law) -> Law:
    if law.id in _REGISTRY:
        raise ValueError(f"duplicate law id {law.id!r}")
    _REGISTRY[law.id] = law
    return law


def law(id: str, description: str, **criteria):
    """Decorator declaring a law on its batch function: registers
    ``Law(id, description, fn, ...)`` with the remaining :class:`Law`
    fields from ``criteria``."""

    def declare(fn: Callable) -> Callable:
        register(Law(id, description, fn, **criteria))
        return fn

    return declare


def registry() -> dict[str, Law]:
    """The full law registry, keyed by id (registration order kept)."""
    from . import laws  # noqa: F401  (registers on first import)

    return dict(_REGISTRY)


def law_ids() -> list[str]:
    return list(registry())


def _worse(worst: float, value: float) -> float:
    """The worse of two residuals; NaN is worse than anything."""
    if math.isnan(worst):
        return worst
    return value if math.isnan(value) or value > worst else worst


def _blocks(law: Law, seed: int, dim: int, trials: int):
    """The blocks of a law in one dimension, each with the trial it
    starts at.  A block that raises becomes an ordinary :class:`Block`:
    every residual infinite, nothing skipped, and an instance of one
    ``error`` column naming the exception."""
    size = block_trials(dim)
    for block, start in enumerate(range(0, trials, size)):
        n = min(size, trials - start)
        try:
            residuals, skipped, instance = law.batch(substream(seed, law.id, dim, block), dim, n)
            residuals = np.asarray(residuals, dtype=np.float64)
            skipped = np.asarray(skipped, dtype=bool)
            if residuals.shape != (n,) or skipped.shape != (n,):
                raise ValueError(f"block of {n} trials gave shapes {residuals.shape}, {skipped.shape}")
        except Exception as exc:  # a law must never raise on a legal instance
            error = np.full(n, f"{type(exc).__name__}: {exc}")
            residuals, skipped, instance = np.full(n, math.inf), np.zeros(n, dtype=bool), {"error": error}
        yield start, Block(residuals, skipped, instance)


def _record(block: Block, i: int) -> dict:
    """The counterexample record of trial ``i`` of a block: row ``i`` of
    its instance stacks, serialized."""
    try:
        return {name: to_jsonable(stack[i]) for name, stack in block.instance.items()}
    except Exception:  # the residual and the cell still name the failure
        return {}


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

    def add(self, dim: int, start: int, block: Block) -> None:
        checked = np.flatnonzero(~block.skipped)
        residuals = block.residuals[checked]
        self.skipped += block.skipped.size - checked.size
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
            cell = {"dim": dim, "trial": start + i, "residual": float(block.residuals[i])}
            self.failure = {**cell, **_record(block, i)}


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
    for dim in dims:
        for start, block in _blocks(law, gen.seed, dim, trials):
            tally.add(dim, start, block)

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
    ids = [i for i in registry() if pattern is None or fnmatch.fnmatch(i, pattern)]
    return [run_law(law_id, gen) for law_id in ids]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
