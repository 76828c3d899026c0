"""Seeded random instance generators for the law harness.

Reproducibility contract: every stream is a substream of the
Philox-4x64 counter-based generator, keyed by the 2x64-bit key

    key = [ seed XOR blake2b-64(law_id),  (dim << 32) XOR index ]

where ``index`` is the block number: every law runs in blocks of
trials, and one substream feeds its block, drawn as stacks.  Reports
are therefore a pure function of (law id, generator spec, stream
version), and blocks can run in any order, or in parallel, without
changing a single drawn number.
:data:`STREAM_VERSION` names the scheme; it is bumped whenever a
change alters what a law draws:

* version 1: one substream per (law, dim, trial) for every law;
* version 2: batched laws draw one substream per (law, dim, block), and
  the morphism samplers draw their samples as stacks;
* version 3: the ray, phase, superposition and tensor laws are batched
  too, drawing their instances from the stacked samplers below
  (``random_rays``, ``nonorthogonal_pairs``, ``nonorthogonal_triples``,
  ``coplanar_triples``, ``classical_ray_stacks``), where a rejected
  draw is a skipped trial instead of a redraw; ``random_frames`` draws
  only the columns its caller uses;
* version 4: every law runs in blocks.  The laws whose instances change
  shape from trial to trial draw their trials one after another from
  the block's substream instead of from one substream per trial;
* version 5: every law draws its block as stacks.  Subspaces are frames
  with zero columns (``random_subspaces``, ``nested_pairs``,
  ``commuting_pairs``), maps are padded with zero rows, and blocks
  shrink beyond d = 8 (:func:`raygeo.lawcheck.block_trials`).

The library functions that take a base seed outside the harness (the
witness search and the morphism preservation checks) key their
generator as ``[seed, word]``, with a word of their own.  Every key is
built by :func:`keyed_generator`, which refuses base seeds outside
[0, 2**64), the range of the key's first word (:func:`check_seed`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .linalg import norms
from .rays import a_sims, rays_from

#: Rejection threshold where a law or a morphism sampler needs
#: non-orthogonality: trials whose pairs have overlap at or below this
#: are skipped.
MIN_OVERLAP = 1e-6

#: Version of the stream scheme, written into every serialized report;
#: the module docstring gives its history.
STREAM_VERSION = 5


def law_stream_key(law_id: str) -> int:
    """Stable 64-bit key for a law id (blake2b-8 digest)."""
    return int.from_bytes(hashlib.blake2b(law_id.encode(), digest_size=8).digest(), "little")


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` is a base seed in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"the seed must lie in [0, 2^64), got {seed}")


def keyed_generator(seed: int, word: int) -> np.random.Generator:
    """The Philox generator keyed by ``[seed, word]``.

    Raises
    ------
    ValueError
        If ``seed`` lies outside [0, 2**64).
    """
    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))


def substream(seed: int, law_id: str, dim: int, index: int) -> np.random.Generator:
    """The dedicated generator for one (law, dimension, block)."""
    return keyed_generator(seed ^ law_stream_key(law_id), (dim << 32) ^ index)


def gaussian_stack(rng: np.random.Generator, shape, real: bool = False) -> np.ndarray:
    """Standard complex Gaussian entries of the given shape (imaginary
    parts zero when ``real``)."""
    if real:
        return rng.standard_normal(shape).astype(np.complex128)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_rays(rng: np.random.Generator, count: int, dim: int, real: bool = False) -> np.ndarray:
    """Canonical representatives of ``count`` random rays, shape (count, dim)."""
    return rays_from(gaussian_stack(rng, (count, dim), real))


def nonorthogonal_pairs(rng: np.random.Generator, count: int, dim: int):
    """``count`` random ray pairs ``(x, y, skip)``: stacks of shape
    (count, dim) and the mask of the pairs with overlap at or below
    :data:`MIN_OVERLAP`, which a law skips."""
    x = random_rays(rng, count, dim)
    y = random_rays(rng, count, dim)
    return x, y, a_sims(x, y) <= MIN_OVERLAP


def nonorthogonal_triples(rng: np.random.Generator, count: int, dim: int, real: bool = False):
    """``count`` random ray triples ``(x, y, z, skip)``: stacks of shape
    (count, dim) and the mask of the triples with some pairwise overlap
    at or below :data:`MIN_OVERLAP`."""
    x, y, z = (random_rays(rng, count, dim, real) for _ in range(3))
    overlap = np.minimum(np.minimum(a_sims(x, y), a_sims(y, z)), a_sims(z, x))
    return x, y, z, overlap <= MIN_OVERLAP


def coplanar_triples(rng: np.random.Generator, count: int, dim: int):
    """``count`` ray triples ``(x, y, z, skip)`` inside one two-dimensional
    subspace each: x is a random combination of the pair (y, z).  A
    triple is skipped when y and z are near-orthogonal or the
    combination nearly vanishes (norm at most 1e-3)."""
    y, z, skip = nonorthogonal_pairs(rng, count, dim)
    c = gaussian_stack(rng, (count, 2))
    vec = c[:, :1] * y + c[:, 1:] * z
    small = norms(vec) <= 1e-3
    return rays_from(np.where(small[:, np.newaxis], y, vec)), y, z, skip | small


def classical_ray_stacks(rng: np.random.Generator, count: int, dim: int, k: int) -> np.ndarray:
    """``count`` sets of ``k`` distinct standard-basis rays, shape
    (k, count, dim): the regime where all distinct states are
    orthogonal."""
    if k > dim:
        raise ValueError("cannot draw more distinct basis rays than dim")
    idx = rng.permuted(np.tile(np.arange(dim), (count, 1)), axis=-1)[:, :k]
    return np.eye(dim, dtype=np.complex128)[idx.T]


def random_frames(rng: np.random.Generator, count: int, dim: int, cols: int) -> np.ndarray:
    """``count`` orthonormal column sets, shape (count, dim, cols): the Q
    factors of stacked Gaussian (dim, cols) draws.  Each spans a
    Haar-random ``cols``-dimensional subspace."""
    return np.linalg.qr(gaussian_stack(rng, (count, dim, cols)))[0]


def column_subsets(frames: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Stacked frames (count, dim, k) with the columns outside ``keep``
    (count, k) zeroed: subspaces in the stacked form of :mod:`raygeo.rays`."""
    return np.where(keep[..., np.newaxis, :], frames, 0.0)


def column_ranges(frames: np.ndarray, lo, hi) -> np.ndarray:
    """Stacked frames (count, dim, k) keeping the columns lo <= j < hi of
    each, with ``lo`` and ``hi`` integers or of shape (count,)."""
    j = np.arange(frames.shape[-1])
    keep = (j >= np.asarray(lo)[..., np.newaxis]) & (j < np.asarray(hi)[..., np.newaxis])
    return column_subsets(frames, keep)


def random_subspaces(rng: np.random.Generator, count: int, dim: int, low: int, high: int) -> np.ndarray:
    """``count`` Haar-random subspaces (count, dim, dim) of ranks drawn
    uniformly from low..high: frames, the columns beyond the rank zeroed."""
    rank = rng.integers(low, high + 1, count)
    return column_ranges(random_frames(rng, count, dim, dim), 0, rank)


def member_rays(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    """Random rays inside stacked subspaces (count, dim, k) of positive
    rank, shape (count, dim): Gaussian combinations of their columns."""
    return rays_from((q @ gaussian_stack(rng, q.shape[::2])[..., np.newaxis])[..., 0])


def commuting_pairs(rng: np.random.Generator, count: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` commuting pairs (count, dim, dim): two random column
    subsets of one frame.  Commuting pairs have measure zero among
    random pairs, so they are built, never found by rejection."""
    frames = random_frames(rng, count, dim, dim)
    in_a, in_b = rng.random((2, count, dim)) < 0.5
    return column_subsets(frames, in_a), column_subsets(frames, in_b)


def nested_pairs(rng: np.random.Generator, count: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` pairs a ⊆ b: leading columns of one frame, b of rank
    1..dim and a of rank 0..rank(b), shape (count, dim, dim) each."""
    frames = random_frames(rng, count, dim, dim)
    r2 = rng.integers(1, dim + 1, count)
    r1 = rng.integers(0, r2 + 1)
    return column_ranges(frames, 0, r1), column_ranges(frames, 0, r2)
