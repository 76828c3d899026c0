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
the scheme; it is bumped whenever a change alters what a law draws.

Base seeds lie in [0, 2**64), the range of the key's first word
(:func:`check_seed`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance
from .rays import Ray, Subspace, ray_from
from .morphisms import LinearMap, RegularMap

#: Rejection threshold where a law needs non-orthogonality: pairs with
#: overlap at or below this are redrawn (or the trial is skipped).
MIN_OVERLAP = 1e-6

_REJECTION_LIMIT = 64

#: Version of the stream scheme, written into every serialized report.
#: 1: one substream per (law, dim, trial).  2: batched laws draw one
#: substream per (law, dim, block) and the morphism samplers draw
#: their samples as stacks.
STREAM_VERSION = 2


def law_stream_key(law_id: str) -> int:
    """Stable 64-bit key for a law id (blake2b-8 digest)."""
    return int.from_bytes(hashlib.blake2b(law_id.encode(), digest_size=8).digest(), "little")


def check_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` is a base seed in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"the seed must lie in [0, 2^64), got {seed}")


def substream(seed: int, law_id: str, dim: int, index: int) -> np.random.Generator:
    """The dedicated generator for one (law, dimension, trial) cell, or
    for one (law, dimension, block) of a batched law."""
    key = np.array(
        [
            np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(law_stream_key(law_id)),
            (np.uint64(dim) << np.uint64(32)) ^ np.uint64(index),
        ],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_stack(rng: np.random.Generator, shape, real: bool = False) -> np.ndarray:
    """Standard complex Gaussian entries of the given shape (imaginary
    parts zero when ``real``)."""
    if real:
        return rng.standard_normal(shape).astype(np.complex128)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gaussian_vector(rng: np.random.Generator, dim: int, real: bool = False) -> np.ndarray:
    return gaussian_stack(rng, dim, real)


def random_ray(
    rng: np.random.Generator, dim: int, real: bool = False, tol: Tolerance = DEFAULT_TOL
) -> Ray:
    return ray_from(gaussian_vector(rng, dim, real), tol)


def nonorthogonal_pair(
    rng: np.random.Generator,
    dim: int,
    real: bool = False,
    min_overlap: float = MIN_OVERLAP,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Ray, Ray] | None:
    """Two rays with overlap above the rejection threshold, or None."""
    for _ in range(_REJECTION_LIMIT):
        x = random_ray(rng, dim, real, tol)
        y = random_ray(rng, dim, real, tol)
        if abs(np.vdot(y.rep, x.rep)) > min_overlap:
            return x, y
    return None


def nonorthogonal_triple(
    rng: np.random.Generator,
    dim: int,
    real: bool = False,
    min_overlap: float = MIN_OVERLAP,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Ray, Ray, Ray] | None:
    """Three pairwise non-orthogonal rays, or None after rejections."""
    for _ in range(_REJECTION_LIMIT):
        rays = [random_ray(rng, dim, real, tol) for _ in range(3)]
        overlaps = [
            abs(np.vdot(rays[j].rep, rays[i].rep))
            for i, j in ((0, 1), (1, 2), (2, 0))
        ]
        if min(overlaps) > min_overlap:
            return rays[0], rays[1], rays[2]
    return None


def random_frames(
    rng: np.random.Generator, count: int, dim: int, real: bool = False
) -> np.ndarray:
    """``count`` Haar-random unitary matrices, shape (count, dim, dim):
    the Q factors of stacked Gaussian draws.  The first k columns of
    each span a Haar-random k-dimensional subspace."""
    g = rng.standard_normal((count, dim, dim))
    if not real:
        g = g + 1j * rng.standard_normal((count, dim, dim))
    return np.linalg.qr(g)[0].astype(np.complex128, copy=False)


def random_frame(rng: np.random.Generator, dim: int, real: bool = False) -> np.ndarray:
    """A random orthonormal frame: rows are orthonormal vectors."""
    return random_frames(rng, 1, dim, real)[0].T


def random_subspace(
    rng: np.random.Generator,
    dim: int,
    rank: int | None = None,
    real: bool = False,
) -> Subspace:
    """A random subspace; rank defaults to uniform over 1..dim−1
    (use the explicit constructors for truth/falsehood)."""
    if rank is None:
        rank = int(rng.integers(1, dim)) if dim > 1 else 1
    if rank == 0:
        return Subspace.falsehood(dim)
    if rank >= dim:
        return Subspace.truth(dim)
    g = rng.standard_normal((dim, rank))
    if not real:
        g = g + 1j * rng.standard_normal((dim, rank))
    q = np.linalg.qr(g)[0]
    return Subspace.from_orthonormal(q.T.astype(np.complex128), dim)


def member_ray(
    rng: np.random.Generator, a: Subspace, real: bool = False, tol: Tolerance = DEFAULT_TOL
) -> Ray:
    """A random ray inside a subspace of positive rank."""
    if a.rank == 0:
        raise ValueError("falsehood contains no ray")
    coeff = gaussian_vector(rng, a.rank, real)
    return ray_from(a.basis.T @ coeff, tol)


def commuting_pair(
    rng: np.random.Generator, dim: int, real: bool = False
) -> tuple[Subspace, Subspace]:
    """Two commuting subspaces: spans of index subsets of one frame.

    Commuting pairs have measure zero among random pairs, so they are
    generated by construction, never by rejection.
    """
    frame = random_frame(rng, dim, real)
    in_a = rng.random(dim) < 0.5
    in_b = rng.random(dim) < 0.5
    a = Subspace.from_orthonormal(frame[in_a], dim)
    b = Subspace.from_orthonormal(frame[in_b], dim)
    return a, b


def nested_pair(rng: np.random.Generator, dim: int, real: bool = False) -> tuple[Subspace, Subspace]:
    """Two subspaces with the first contained in the second."""
    frame = random_frame(rng, dim, real)
    r2 = int(rng.integers(1, dim + 1))
    r1 = int(rng.integers(0, r2 + 1))
    return (
        Subspace.from_orthonormal(frame[:r1], dim),
        Subspace.from_orthonormal(frame[:r2], dim),
    )


def coplanar_triple(
    rng: np.random.Generator, dim: int, real: bool = False, tol: Tolerance = DEFAULT_TOL
) -> tuple[Ray, Ray, Ray] | None:
    """Three rays inside one two-dimensional subspace."""
    pair = nonorthogonal_pair(rng, dim, real, tol=tol)
    if pair is None:
        return None
    y, z = pair
    for _ in range(_REJECTION_LIMIT):
        c = gaussian_vector(rng, 2, real)
        vec = c[0] * y.rep + c[1] * z.rep
        if float(np.linalg.norm(vec)) > 1e-3:
            return ray_from(vec, tol), y, z
    return None


def classical_rays(rng: np.random.Generator, dim: int, count: int) -> list[Ray]:
    """Distinct standard-basis rays: the regime where all distinct
    states are orthogonal."""
    if count > dim:
        raise ValueError("cannot draw more distinct basis rays than dim")
    idx = rng.permutation(dim)[:count]
    eye = np.eye(dim, dtype=np.complex128)
    return [Ray(rep=eye[i].copy()) for i in idx]


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
