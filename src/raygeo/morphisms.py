"""Ray maps induced by injective linear maps, and their characterization.

An injective linear map between ambient spaces induces a well-defined
map on rays (scaling the matrix by any nonzero complex number induces
the same ray map).  The central fact verified by the harness: such a
map preserves superpositions exactly when it is an isometry up to a
positive scale — in which case it also preserves similarities and
triple phases.  :func:`isometry_maps` and :func:`non_isometry_maps`
sample the two kinds of map the harness checks, as stacks padded with
zero rows to a common output dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotIsometryError
from .linalg import EPS_ABS, circular_distances, norms
from .rays import Ray, ray_from, rays_from
from .geometry import a_sims, p_sims, triple_phases
from .sampling import MIN_OVERLAP, gaussian_stack, keyed_generator, random_frames
from .superposition import superpose_vectors


@dataclass(frozen=True, eq=False)
class RegularMap:
    """The ray-level map induced by an injective linear map
    C^{dim_in} → C^{dim_out}, held as its matrix.

    ``==`` is exact entrywise matrix equality; two matrices that differ
    by a nonzero factor induce the same ray map but compare unequal.

    Raises
    ------
    ValueError
        If the matrix is not numerically injective (smallest singular
        value at or below ``EPS_ABS``) or contains non-finite entries.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("expected a non-empty 2-D matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        smin = float(np.linalg.svd(m, compute_uv=False)[-1])
        if m.shape[0] < m.shape[1] or smin <= EPS_ABS:
            raise ValueError(f"matrix is not injective (smallest singular value {smin:.3e})")
        object.__setattr__(self, "matrix", m)
        m.flags.writeable = False

    def __eq__(self, other):
        return isinstance(other, RegularMap) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.matrix.shape, self.matrix.tobytes()))

    @property
    def dim_in(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def dim_out(self) -> int:
        return int(self.matrix.shape[0])


def _padded_frames(rng: np.random.Generator, count: int, dim_in: int):
    """Haar isometries into C^{dim_out}, dim_out drawn from dim_in..dim_in+2,
    zero-padded to (count, dim_in + 2, dim_in), and dim_out: Householder
    QR keeps the Gaussian draw's zero rows exactly."""
    dim_out = dim_in + rng.integers(0, 3, count)
    rows = np.arange(dim_in + 2) < dim_out[:, np.newaxis]
    g = gaussian_stack(rng, (count, dim_in + 2, dim_in))
    return np.linalg.qr(g * rows[..., np.newaxis])[0], dim_out


def isometry_maps(rng: np.random.Generator, count: int, dim_in: int, scale: float | None = None):
    """``count`` scaled isometries C^{dim_in} → C^{dim_out} (dim_out in
    dim_in..dim_in+2, scale in [0.5, 2) unless given): the matrices,
    padded with zero rows to (count, dim_in + 2, dim_in), and dim_out."""
    q, dim_out = _padded_frames(rng, count, dim_in)
    c = rng.uniform(0.5, 2.0, count) if scale is None else np.full(count, float(scale))
    return c[:, np.newaxis, np.newaxis] * q, dim_out


def non_isometry_maps(rng: np.random.Generator, count: int, dim_in: int):
    """``count`` injective non-isometries, one singular value bumped by
    ≥ 1.1, as by :func:`isometry_maps`."""
    q, dim_out = _padded_frames(rng, count, dim_in)
    v = random_frames(rng, count, dim_in, dim_in)
    s = np.ones((count, dim_in))
    s[np.arange(count), rng.integers(0, dim_in, count)] = 1.1 + rng.uniform(0.0, 0.9, count)
    return (q * s[:, np.newaxis, :]) @ v.conj().swapaxes(-1, -2), dim_out


def isometry_map(rng: np.random.Generator, dim_in: int, scale: float | None = None) -> RegularMap:
    """A scaled isometry: the single form of :func:`isometry_maps`."""
    m, dim_out = isometry_maps(rng, 1, dim_in, scale)
    return RegularMap(m[0, : dim_out[0]])


def non_isometry_map(rng: np.random.Generator, dim_in: int) -> RegularMap:
    """An injective non-isometry: the single form of :func:`non_isometry_maps`."""
    m, dim_out = non_isometry_maps(rng, 1, dim_in)
    return RegularMap(m[0, : dim_out[0]])


def apply_rays(m, x) -> np.ndarray:
    """The images of stacked rays (..., d) under matrices (..., D, d)."""
    return rays_from((m @ x[..., np.newaxis])[..., 0])


def apply_ray(f: RegularMap, x: Ray) -> Ray:
    """Image of a ray under the induced map: the single form of :func:`apply_rays`."""
    if x.dim != f.dim_in:
        raise DimensionMismatchError(f"ray dim {x.dim} vs map input dim {f.dim_in}")
    return Ray(rep=apply_rays(f.matrix, x.rep))


def isometry_scales(m) -> np.ndarray:
    """The uniform scales c with ‖m·u‖ = c‖u‖ for all u of stacked
    matrices (..., D, d), NaN where there is none: decided through the
    Gram matrix m†m = c²·I, to 1e-9 relative to c²."""
    gram = m.conj().swapaxes(-1, -2) @ m
    c2 = np.trace(gram, axis1=-2, axis2=-1).real / gram.shape[-1]
    dev = np.abs(gram - c2[..., np.newaxis, np.newaxis] * np.eye(gram.shape[-1])).max(axis=(-2, -1))
    return np.where((c2 > 0.0) & (dev <= 1e-9 * c2), np.sqrt(np.maximum(c2, 0.0)), np.nan)


def isometry_scale(f: RegularMap) -> float | None:
    """The uniform scale c with ‖m·u‖ = c‖u‖ for all u, or None: the
    single form of :func:`isometry_scales`."""
    c = float(isometry_scales(f.matrix))
    return None if np.isnan(c) else c


@dataclass(frozen=True)
class PreservationReport:
    """Sampled verdict on superposition preservation.

    ``witness`` is a concrete failing (y, z, r) (components and the
    weight) when the verdict is negative, else None.
    """

    preserves: bool
    worst_residual: float
    trials_run: int
    seed: int
    witness: tuple[Ray, Ray, float] | None


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` uniformly random unit vectors of C^dim, shape (count, dim)."""
    g = gaussian_stack(rng, (count, dim))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _image_rows(m, u) -> np.ndarray:
    """Unit images of stacked vectors (..., s, d) under matrices (..., D, d)."""
    v = u @ m.swapaxes(-1, -2)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def superposition_residuals(m, y, z, r) -> tuple[np.ndarray, np.ndarray]:
    """Superposition preservation ``(residual, kept)`` by stacked maps
    (..., D, d) on samples y, z (..., s, d) and r (..., s): 1 − overlap
    between the image of the superposition and the superposition of the
    images, or 1.0 where the image pair is orthogonal (overlap at most
    ``EPS_ABS``); a sample is preserved when it is at most ``EPS_ABS``.
    Only the kept samples, with overlap above
    :data:`~raygeo.sampling.MIN_OVERLAP`, count: the others read 0."""
    fy, fz = _image_rows(m, y), _image_rows(m, z)
    mapped = _image_rows(m, superpose_vectors(y, z, r))
    direct = superpose_vectors(fy, fz, r)
    direct = direct / norms(direct)[..., np.newaxis]
    residual = np.where(a_sims(fy, fz) <= EPS_ABS, 1.0, 1.0 - a_sims(mapped, direct))
    kept = a_sims(y, z) > MIN_OVERLAP
    return np.where(kept, residual, 0.0), kept


def _superposition_samples(trials: int, seed: int, dim: int):
    rng = keyed_generator(seed, 0x5052455345525645)
    trials = max(int(trials), 0)
    return _unit_rows(rng, trials, dim), _unit_rows(rng, trials, dim), rng.uniform(0.0, 1.0, trials)


def preserves_superpositions(f: RegularMap, trials: int = 500, seed: int = 0) -> PreservationReport:
    """Sampled check that the induced map carries superpositions to
    superpositions of the images: :func:`superposition_residuals` on
    ``trials`` samples.  The verdict stops at the first failing kept
    sample, the witness: ``trials_run`` and ``worst_residual`` count the
    kept samples up to it.  A negative verdict is a proof; a positive
    one is sampled evidence (the exact criterion is the isometry check).

    Raises
    ------
    ValueError
        If ``seed`` lies outside [0, 2**64).
    """
    y, z, r = _superposition_samples(trials, seed, f.dim_in)
    residual, kept = superposition_residuals(f.matrix, y, z, r)
    residual, y, z, r = residual[kept], y[kept], z[kept], r[kept]
    failed = residual > EPS_ABS
    if not failed.any():
        return PreservationReport(True, float(residual.max(initial=0.0)), len(r), seed, None)
    k = int(np.argmax(failed))
    witness = (ray_from(y[k]), ray_from(z[k]), float(r[k]))
    return PreservationReport(False, float(residual[: k + 1].max()), k + 1, seed, witness)


def char_morph_agreements(m, y, z, r) -> np.ndarray:
    """Agreement of the exact isometry criterion with the sampled
    preservation verdict, arguments as for :func:`superposition_residuals`;
    true for every regular map."""
    preserves = (superposition_residuals(m, y, z, r)[0] <= EPS_ABS).all(axis=-1)
    return ~np.isnan(isometry_scales(m)) == preserves


def check_char_morph(f: RegularMap, trials: int = 500, seed: int = 0) -> bool:
    """The single form of :func:`char_morph_agreements`, on the samples of
    :func:`preserves_superpositions`."""
    return bool(char_morph_agreements(f.matrix, *_superposition_samples(trials, seed, f.dim_in)))


@dataclass(frozen=True)
class QuantityResiduals:
    """Worst deviations of similarity and triple phase under a map."""

    p_residual: float
    theta_residual: float
    trials_run: int


def p_theta_residuals(m, x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(p_residual, theta_residual, kept)``: |p(f x, f y) − p(x, y)| and
    the circular distance from theta(f x, f y, f z) to theta(x, y, z)
    for stacked maps (..., D, d) and triples (..., s, d); only the kept
    triples, with overlaps above :data:`~raygeo.sampling.MIN_OVERLAP`,
    count: the others give 0."""
    kept = np.minimum.reduce([a_sims(x, y), a_sims(y, z), a_sims(z, x)]) > MIN_OVERLAP
    fx, fy, fz = (_image_rows(m, t) for t in (x, y, z))
    p_residual = np.abs(p_sims(fx, fy) - p_sims(x, y))
    theta_residual = circular_distances(triple_phases(fx, fy, fz), triple_phases(x, y, z))
    return np.where(kept, p_residual, 0.0), np.where(kept, theta_residual, 0.0), kept


def check_preserves_p_theta(f: RegularMap, trials: int = 200, seed: int = 0) -> QuantityResiduals:
    """Worst |p(f x, f y) − p(x, y)| and phase deviation over sampled
    triples: the single form of :func:`p_theta_residuals`.  Both are
    blind to a uniform scale, so any isometry up to scale preserves them.

    Raises
    ------
    NotIsometryError
        If the map is not an isometry up to scale.
    ValueError
        If ``seed`` lies outside [0, 2**64).
    """
    if isometry_scale(f) is None:
        raise NotIsometryError("p/theta preservation holds only for isometries")
    rng = keyed_generator(seed, 0x5051554E54)
    trials = max(int(trials), 0)
    x, y, z = (_unit_rows(rng, trials, f.dim_in) for _ in range(3))
    p_residual, theta_residual, kept = p_theta_residuals(f.matrix, x, y, z)
    return QuantityResiduals(
        p_residual=float(p_residual.max(initial=0.0)),
        theta_residual=float(theta_residual.max(initial=0.0)),
        trials_run=int(kept.sum()),
    )
