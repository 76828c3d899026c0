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
skipped row's residual is never read.  Every law passes by one rule:
no residual of a checked trial is NaN, infinite or above the law's
tolerance, and at most :data:`MAX_SKIP_RATE` of its trials are skipped.
A block that raises is a :class:`Block` like any other: an infinite
residual on each of its trials and an ``error`` column naming the
exception.  The counterexample of a failing law names its first failing
(dim, trial) cell and that row of its block's instance stacks; nothing
is rerun.
The library calls inside a law apply the fixed thresholds of
:mod:`raygeo.linalg`; the law's ``tolerance`` judges the residual.

Negative-control laws, the ids ``counterexample.*``, invert the game:
they assert that an identity *fails* on generic instances exactly as
predicted.  Their residual is the distance of the measured failure from
the predicted one, so they pass by the same rule.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import UnknownLawError
from .linalg import EPS_ABS, is_integer
from .sampling import check_seed, substream
from .serialize import to_jsonable

#: Ceiling on the fraction of skipped trials before a law fails outright.
MAX_SKIP_RATE = 0.05

#: The range of ambient dimensions a run may sweep.
MIN_DIM, MAX_DIM = 2, 32

#: Trials per block, and so per substream, at d = 8, the size that sets
#: the memory of every block's stacks.  At d = 8, by tracemalloc, a
#: block of 256 trials peaks at 0.82 MB for the interference law (β's
#: drawn frame and α's coordinate frame, whose first column is the
#: state) and at up to about 4.5 MB for the subspace lattice laws.
BLOCK_TRIALS = 256


def block_trials(dim: int) -> int:
    """Trials per block in dimension ``dim``: the lesser of
    BLOCK_TRIALS·(8/d)² and BLOCK_TRIALS·(8/d)³, rounded down.  Up to
    d = 8 a block's (n, d, d) stacks then hold as many entries as the
    d = 8 block's (4096 trials at d = 2, 1820 at d = 3), so a law pays
    its per-block overhead as seldom as that memory allows; beyond
    d = 8 they shrink as d grows (179 at d = 9, 32 at d = 16)."""
    return min(BLOCK_TRIALS * 64 // dim**2, BLOCK_TRIALS * 512 // dim**3)


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
        Ambient dimensions to sweep (distinct, each in [MIN_DIM, MAX_DIM]).
    trials_per_dim : int
        Trials per law per dimension (laws may pin their own count).
    seed : int
        Base seed for the substream scheme, an integer in [0, 2**64).
    """

    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    trials_per_dim: int = 1000
    seed: int = 42

    def __post_init__(self):
        if not self.dims:
            raise ValueError("dims must be non-empty")
        counts = (*self.dims, self.trials_per_dim)
        if not all(map(is_integer, counts)):
            raise ValueError("dims and trials_per_dim must be integers")
        if any(d < MIN_DIM or d > MAX_DIM for d in self.dims):
            raise ValueError(f"dims must lie within [{MIN_DIM}, {MAX_DIM}]")
        if len(set(self.dims)) != len(self.dims):  # a repeated dim redraws its substreams
            raise ValueError("dims must be distinct")
        if not 1 <= self.trials_per_dim <= MAX_TRIALS:
            raise ValueError(f"trials_per_dim must lie within [1, {MAX_TRIALS}]")
        check_seed(self.seed)
        # numpy integers are held as ints, which reports serialize
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))
        object.__setattr__(self, "trials_per_dim", int(self.trials_per_dim))
        object.__setattr__(self, "seed", int(self.seed))


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

    Every law, negative control or not, passes by the one rule of the
    module docstring, with its ``tolerance``.  The negative controls are
    exactly the laws whose id starts with ``counterexample.``.
    """

    id: str
    description: str
    batch: Callable
    tolerance: float = EPS_ABS
    dims: tuple[int, ...] | None = None
    trials_per_dim: int | None = None

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


def _severity(residual: float) -> tuple:
    """Order of residuals for a report's worst: NaN, then +inf, then
    −inf, each above every finite residual, which rank by size."""
    finite = math.isfinite(residual)
    return (math.isnan(residual), residual == math.inf, not finite, residual if finite else 0.0)


class _Tally:
    """Counts, worst residual and first failure of one law run."""

    def __init__(self, law: Law):
        self.law = law
        self.run = 0
        self.skipped = 0
        self.worst = 0.0
        self.failure: dict | None = None

    def add(self, dim: int, start: int, block: Block) -> None:
        checked = np.flatnonzero(~block.skipped)
        residuals = block.residuals[checked]
        self.skipped += block.skipped.size - checked.size
        self.run += checked.size
        if checked.size == 0:
            return
        finite = np.isfinite(residuals)
        worst = residuals.max() if finite.all() else max(residuals[~finite], key=_severity)
        self.worst = max(self.worst, float(worst), key=_severity)
        bad = ~finite | (residuals > self.law.tolerance)
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
    if failure is None and skip_rate > MAX_SKIP_RATE:
        failure = {"note": "skip rate above cap", "skip_rate": skip_rate}
    passed = failure is None

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return LawReport(
        law_id=law.id,
        passed=bool(passed),
        negative_control=law.negative_control,
        trials_run=tally.run,
        trials_skipped=tally.skipped,
        worst_residual=float(tally.worst),
        tolerance=law.tolerance,
        seed=gen.seed,
        dim_range=tuple(dims),
        counterexample=failure,
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
