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
change alters what a law draws, and CHANGES.md records each version.
Frames come from :func:`ranked_frames` (the map samplers of
:mod:`raygeo.morphisms` pad their own); a rejected draw, such as a
tuple of rays that :func:`near_orthogonal` flags, is a skipped trial,
never a redraw.  What each law draws is stated at the law.

The library functions that take a base seed outside the harness (the
witness search and the morphism preservation checks) key their
generator as ``[seed, word]``, with a word of their own; the search
takes one word per candidate.  Every key is set by one path,
:func:`keyed_generators`, which refuses base seeds that are not integers
in [0, 2**64), the range of the key's first word (:func:`check_seed`),
and draws no OS entropy: it builds one Philox from a fixed
``SeedSequence`` and keys it, for each word in turn, by assigning
numpy's fresh state with ``[seed, word]`` as the key.
:func:`keyed_generator` and :func:`substream` take its first generator.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from collections.abc import Iterator

import numpy as np

from .linalg import gram_schmidt, is_integer, norms
from .rays import a_sims, rays_from

#: Rejection threshold where a law or a morphism check needs
#: non-orthogonal rays: :func:`near_orthogonal` flags the tuples with a
#: pair whose overlap is at or below it, and they are skipped.
MIN_OVERLAP = 1e-6

#: Version of the stream scheme, written into every serialized report;
#: the module docstring states the scheme, CHANGES.md its history.
STREAM_VERSION = 12


def law_stream_key(law_id: str) -> int:
    """Stable 64-bit key for a law id (blake2b-8 digest)."""
    return int.from_bytes(hashlib.blake2b(law_id.encode(), digest_size=8).digest(), "little")


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` is a base seed: an integer
    (:func:`~raygeo.linalg.is_integer`) in [0, 2**64)."""
    if not is_integer(seed):
        raise ValueError(f"the seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"the seed must lie in [0, 2^64), got {seed}")


def keyed_generator(seed: int, word: int) -> np.random.Generator:
    """The Philox generator keyed by ``[seed, word]``: the first of
    :func:`keyed_generators`.

    Raises
    ------
    ValueError
        If ``seed`` is not an integer in [0, 2**64).
    """
    return next(keyed_generators(seed, [word]))


@functools.cache
def _fixed_seed_sequence() -> np.random.SeedSequence:
    # built on first use: a module-level one would import numpy.random,
    # which numpy otherwise loads lazily, into every `import raygeo`
    return np.random.SeedSequence(0)


def keyed_generators(seed: int, words) -> Iterator[np.random.Generator]:
    """The Philox generators keyed by ``[seed, word]``, one per word in turn.

    One Philox is built from a fixed ``SeedSequence``, and numpy's fresh
    state, read once before any draw, is assigned to it for each word
    with ``[seed, word]`` as the key.  A counter-based stream is a pure
    function of its key and counter (Salmon et al., SC 2011), so each
    yielded generator draws exactly what ``Philox(key=[seed, word])``
    would, without the ``SeedSequence`` that constructor seeds from OS
    entropy only to discard it.  The same object is yielded every time,
    so a caller finishes its draws before requesting the next word;
    nothing is shared between calls.

    Raises
    ------
    ValueError
        If ``seed`` is not an integer in [0, 2**64), when the first
        generator is requested.
    """
    check_seed(seed)
    rng = np.random.Generator(np.random.Philox(_fixed_seed_sequence()))
    state = rng.bit_generator.state
    key = state["state"]["key"]
    key[0] = seed
    for word in words:
        key[1] = word
        rng.bit_generator.state = state
        yield rng


def substream(seed: int, law_id: str, dim: int, index: int) -> np.random.Generator:
    """The dedicated generator for one (law, dimension, block)."""
    return keyed_generator(seed ^ law_stream_key(law_id), (dim << 32) ^ index)


def gaussian_stack(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries of the given shape: the real
    parts drawn first, then the imaginary parts, each written in place."""
    out = np.zeros(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


def random_rays(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Canonical representatives of ``count`` random rays, shape (count, dim)."""
    return rays_from(gaussian_stack(rng, (count, dim)))


def near_orthogonal(*rays) -> np.ndarray:
    """Whether the tuples of the given stacked rays (..., d) have some
    pair whose overlap is at or below :data:`MIN_OVERLAP`, shape (...):
    the tuples a law or a morphism check skips, since superpositions
    and the triple phase are defined only for non-orthogonal rays."""
    overlaps = (a_sims(u, v) for u, v in itertools.combinations(rays, 2))
    return functools.reduce(np.minimum, overlaps) <= MIN_OVERLAP


def nonorthogonal_rays(rng: np.random.Generator, count: int, dim: int, k: int):
    """``k`` stacks of ``count`` random rays (count, dim), drawn one after
    another by :func:`random_rays`, then their :func:`near_orthogonal`
    mask, which a law skips."""
    rays = [random_rays(rng, count, dim) for _ in range(k)]
    return (*rays, near_orthogonal(*rays))


def coplanar_triples(rng: np.random.Generator, count: int, dim: int):
    """``count`` ray triples ``(x, y, z, skip)`` inside one two-dimensional
    subspace each: x is a random combination of the pair (y, z).  A
    triple is skipped when y and z are near-orthogonal or the
    combination nearly vanishes (norm at most 1e-3)."""
    y, z, skip = nonorthogonal_rays(rng, count, dim, 2)
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


def ranked_frames(rng: np.random.Generator, ranks: np.ndarray, dim: int, cols: int) -> np.ndarray:
    """Haar frames (count, dim, cols) of the given ranks (count,), each
    in 0..cols: frame t has ``ranks[t]`` orthonormal leading columns, and
    its columns at or beyond the rank are exactly zero.  Each is the Q
    factor, unique with a real positive diagonal of R, of a Gaussian
    draw whose columns beyond the rank are zero, so its leading columns
    are those of a full frame's (Mezzadri, Notices AMS 54, 2007).

    Only the columns a frame keeps are drawn, column by column: column j
    of every frame of rank above j, the frames in descending rank order
    (ties in index order), each column's ``dim`` entries in turn;
    ``dim * ranks.sum()`` real parts, then as many imaginary parts.  At
    full rank this is the draw of ``gaussian_stack(rng, (cols, count,
    dim))``, each column of the stack in one piece.

    The draws are laid out as :func:`raygeo.linalg.gram_schmidt` reads
    them, frames in descending rank order.  A wide stack is
    orthonormalized there, column j only over the frames of rank above
    j; a narrow one takes LAPACK's Householder QR of the zero-padded
    draw, each column times the sign of R's diagonal (0 beyond the
    rank).  The frames return to the order of ``ranks`` by one gather,
    which a stack already in descending rank order skips.
    """
    ranks = np.asarray(ranks)
    count = len(ranks)
    live = count - np.bincount(ranks, minlength=cols + 1).cumsum()[:cols]  # frames of rank above j
    size = dim * int(live.sum())
    z = rng.standard_normal(2 * size)  # the real parts, then the imaginary parts
    v = np.zeros((cols, dim, count), dtype=np.complex128)  # gram_schmidt's layout, in sorted order
    start = 0
    for j, n in enumerate(live):
        stop = start + n * dim
        v.real[j, :, :n] = z[start:stop].reshape(n, dim).T
        v.imag[j, :, :n] = z[size + start : size + stop].reshape(n, dim).T
        start = stop
    # Gram–Schmidt pays its Python overhead per column for the whole stack,
    # LAPACK per matrix.  Timed on one CPU, they break even at about 30–60
    # matrices for dim <= 8 and cols <= 2, at about 60–120 for dim = 8 and
    # cols >= 7, and beyond 384 for (16, 16): LAPACK's work per matrix grows
    # more slowly with its size.  The rule keeps the d = 16 subspace blocks
    # of 32 and short tail blocks on LAPACK.
    if count >= 32 + 2 * dim * cols:
        q = gram_schmidt(v, live)[0]
    else:
        q, r = np.linalg.qr(v.transpose(2, 1, 0))
        q = (q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., np.newaxis, :]).transpose(2, 1, 0)
    if (np.diff(ranks) <= 0).all():  # already in descending rank order
        return q.transpose(2, 1, 0)
    order = np.argsort(-ranks, kind="stable")
    return q[..., np.argsort(order)].transpose(2, 1, 0)


def random_frames(rng: np.random.Generator, count: int, dim: int, cols: int) -> np.ndarray:
    """``count`` Haar frames (count, dim, cols), orthonormal columns:
    :func:`ranked_frames` at full rank."""
    return ranked_frames(rng, np.full(count, cols), dim, cols)


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
    uniformly from low..high, then their :func:`ranked_frames`."""
    return ranked_frames(rng, rng.integers(low, high + 1, count), dim, dim)


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
    """``count`` pairs a ⊆ b, shape (count, dim, dim) each: b of rank
    r₂ in 1..dim and a of rank r₁ in 0..r₂, both drawn first, then b's
    :func:`ranked_frames` of rank r₂, whose leading r₁ columns are a."""
    r2 = rng.integers(1, dim + 1, count)
    r1 = rng.integers(0, r2 + 1)
    b = ranked_frames(rng, r2, dim, dim)
    return column_ranges(b, 0, r1), b
