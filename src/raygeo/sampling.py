"""Seeded random instance generators for the law harness.

Reproducibility contract: every stream is a substream of the
Philox-4x64 counter-based generator, keyed by the 2x64-bit key

    key = [ seed XOR blake2b-64(law_id),  (dim << 32) XOR index ]

where ``index`` is the trial number for a law checked trial by trial,
and the block number for a law checked in blocks of trials (one
substream feeds every trial of the block, drawn as stacks).  Reports
are therefore a pure function of (law id, generator spec, stream
version), and cells or blocks can run in any order, or in parallel,
without changing a single drawn number.  :data:`STREAM_VERSION` names
the scheme; it is bumped whenever a change alters what a law draws:

* version 1: one substream per (law, dim, trial) for every law;
* version 2: batched laws draw one substream per (law, dim, block), and
  the morphism samplers draw their samples as stacks;
* version 3: the ray, phase, superposition and tensor laws are batched
  too, drawing their instances from the stacked samplers below
  (``random_rays``, ``nonorthogonal_pairs``, ``nonorthogonal_triples``,
  ``coplanar_triples``, ``classical_ray_stacks``), where a rejected
  draw is a skipped trial instead of a redraw; ``random_frames`` draws
  only the columns its caller uses.

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
from .rays import Ray, Subspace, a_sims, ray_from, rays_from
from .morphisms import LinearMap, RegularMap

#: Rejection threshold where a law needs non-orthogonality: trials
#: whose pairs have overlap at or below this are skipped.
MIN_OVERLAP = 1e-6

#: Version of the stream scheme, written into every serialized report.
#: 1: one substream per (law, dim, trial).  2: batched laws draw one
#: substream per (law, dim, block) and the morphism samplers draw
#: their samples as stacks.  3: the ray, phase, superposition and
#: tensor laws are batched too, rejection sampling skips a trial
#: instead of redrawing it, ``random_frames`` draws only the columns
#: its caller uses, and ``classical_rays`` draws through
#: ``classical_ray_stacks``.
STREAM_VERSION = 3


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
    """The dedicated generator for one (law, dimension, trial) cell, or
    for one (law, dimension, block) of a batched law."""
    return keyed_generator(seed ^ law_stream_key(law_id), (dim << 32) ^ index)


def gaussian_stack(rng: np.random.Generator, shape, real: bool = False) -> np.ndarray:
    """Standard complex Gaussian entries of the given shape (imaginary
    parts zero when ``real``)."""
    if real:
        return rng.standard_normal(shape).astype(np.complex128)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gaussian_vector(rng: np.random.Generator, dim: int, real: bool = False) -> np.ndarray:
    return gaussian_stack(rng, dim, real)


def random_ray(rng: np.random.Generator, dim: int, real: bool = False) -> Ray:
    return ray_from(gaussian_vector(rng, dim, real))


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


def random_frame(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random orthonormal frame: rows are orthonormal vectors."""
    return random_frames(rng, 1, dim, dim)[0].T


def random_subspace(rng: np.random.Generator, dim: int, rank: int | None = None) -> Subspace:
    """A random subspace; rank defaults to uniform over 1..dim−1
    (use the explicit constructors for truth/falsehood)."""
    if rank is None:
        rank = int(rng.integers(1, dim)) if dim > 1 else 1
    if rank == 0:
        return Subspace.falsehood(dim)
    if rank >= dim:
        return Subspace.truth(dim)
    q = np.linalg.qr(gaussian_stack(rng, (dim, rank)))[0]
    return Subspace.from_orthonormal(q.T.astype(np.complex128), dim)


def member_ray(rng: np.random.Generator, a: Subspace) -> Ray:
    """A random ray inside a subspace of positive rank."""
    if a.rank == 0:
        raise ValueError("falsehood contains no ray")
    coeff = gaussian_vector(rng, a.rank)
    return ray_from(a.basis.T @ coeff)


def commuting_pair(rng: np.random.Generator, dim: int) -> tuple[Subspace, Subspace]:
    """Two commuting subspaces: spans of index subsets of one frame.

    Commuting pairs have measure zero among random pairs, so they are
    generated by construction, never by rejection.
    """
    frame = random_frame(rng, dim)
    in_a = rng.random(dim) < 0.5
    in_b = rng.random(dim) < 0.5
    a = Subspace.from_orthonormal(frame[in_a], dim)
    b = Subspace.from_orthonormal(frame[in_b], dim)
    return a, b


def nested_pair(rng: np.random.Generator, dim: int) -> tuple[Subspace, Subspace]:
    """Two subspaces with the first contained in the second."""
    frame = random_frame(rng, dim)
    r2 = int(rng.integers(1, dim + 1))
    r1 = int(rng.integers(0, r2 + 1))
    return (
        Subspace.from_orthonormal(frame[:r1], dim),
        Subspace.from_orthonormal(frame[:r2], dim),
    )


def classical_rays(rng: np.random.Generator, dim: int, count: int) -> list[Ray]:
    """Distinct standard-basis rays: the single form of
    :func:`classical_ray_stacks`."""
    return [Ray(rep=rep) for rep in classical_ray_stacks(rng, 1, dim, count)[:, 0]]


def isometry_map(
    rng: np.random.Generator,
    dim_in: int,
    dim_out: int | None = None,
    scale: float | None = None,
) -> RegularMap:
    """A scaled isometry C^{dim_in} → C^{dim_out} (unitary columns)."""
    if dim_out is None:
        dim_out = dim_in + int(rng.integers(0, 3))
    g = rng.standard_normal((dim_out, dim_in)) + 1j * rng.standard_normal((dim_out, dim_in))
    q = np.linalg.qr(g)[0]
    c = float(rng.uniform(0.5, 2.0)) if scale is None else float(scale)
    return RegularMap(underlying=LinearMap(matrix=c * q))


def non_isometry_map(
    rng: np.random.Generator, dim_in: int, dim_out: int | None = None
) -> RegularMap:
    """An injective non-isometry: one singular value bumped by ≥ 1.1."""
    if dim_out is None:
        dim_out = dim_in + int(rng.integers(0, 3))
    g = rng.standard_normal((dim_out, dim_in)) + 1j * rng.standard_normal((dim_out, dim_in))
    q = np.linalg.qr(g)[0]
    gv = rng.standard_normal((dim_in, dim_in)) + 1j * rng.standard_normal((dim_in, dim_in))
    v = np.linalg.qr(gv)[0]
    s = np.ones(dim_in)
    s[int(rng.integers(0, dim_in))] = 1.1 + float(rng.uniform(0.0, 0.9))
    return RegularMap(underlying=LinearMap(matrix=q @ np.diag(s) @ v.conj().T))
