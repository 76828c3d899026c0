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
from .linalg import EPS_ABS, check_count, circular_distances, norms, orthonormalize_rows
from .rays import Ray, ray_from, rays_from
from .geometry import a_sims, p_sims, triple_phases
from .sampling import (
    gaussian_stack,
    keyed_generator,
    near_orthogonal,
    random_frames,
    random_rays,
)
from .superposition import orthogonal_components, superpose_vectors


@dataclass(frozen=True, eq=False)
class RegularMap:
    """The ray-level map induced by an injective linear map
    C^{dim_in} → C^{dim_out}, held as its matrix.

    ``==`` is exact entrywise matrix equality; two matrices that differ
    by a nonzero factor induce the same ray map but compare unequal.

    Raises
    ------
    ValueError
        If the matrix is not numerically injective (fewer rows than
        columns, or smallest singular value at or below ``EPS_ABS``
        times the largest, a test that no nonzero scale changes) or
        contains non-finite entries.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("expected a non-empty 2-D matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if m.shape[0] < m.shape[1]:
            rows, cols = m.shape
            raise ValueError(f"matrix is not injective: {rows}x{cols} has fewer rows than columns")
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= EPS_ABS * s[0]:
            raise ValueError(
                f"matrix is not injective (smallest singular value {s[-1]:.3e}, largest {s[0]:.3e})"
            )
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


def _normalized(f: RegularMap) -> tuple[np.ndarray, float]:
    """``f``'s matrix times the power of two that brings its largest entry
    modulus into [0.5, 1), and that factor.  The product is exact in
    floating point and induces the same ray map, so the stacked kernels
    neither underflow nor overflow on a tiny or huge matrix; a matrix
    whose largest entry lies in [0.5, 1) comes back as it is."""
    factor = float(np.ldexp(1.0, -int(np.frexp(np.abs(f.matrix).max())[1])))
    return factor * f.matrix, factor


def _padded_frames(rng: np.random.Generator, count: int, dim_in: int):
    """Haar isometries into C^{dim_out}, dim_out drawn from dim_in..dim_in+2,
    zero-padded to (count, dim_in + 2, dim_in), and dim_out: the Q
    factors, with a real positive diagonal of R, of Gaussian draws whose
    rows beyond dim_out are zeroed (Mezzadri, Notices AMS 54, 2007).
    Gram–Schmidt on the columns (:func:`raygeo.linalg.orthonormalize_rows`)
    computes them and keeps those rows exactly zero."""
    dim_out = dim_in + rng.integers(0, 3, count)
    rows = np.arange(dim_in + 2) < dim_out[:, np.newaxis]
    g = gaussian_stack(rng, (count, dim_in + 2, dim_in)) * rows[..., np.newaxis]
    return orthonormalize_rows(g.swapaxes(-1, -2))[0].swapaxes(-1, -2), dim_out


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


def apply_rays(m, x) -> np.ndarray:
    """The images of stacked rays (..., d) under matrices (..., D, d)."""
    return rays_from((m @ x[..., np.newaxis])[..., 0])


def apply_ray(f: RegularMap, x: Ray) -> Ray:
    """Image of a ray under the induced map: the single form of :func:`apply_rays`."""
    if x.dim != f.dim_in:
        raise DimensionMismatchError(f"ray dim {x.dim} vs map input dim {f.dim_in}")
    return Ray(rep=apply_rays(_normalized(f)[0], x.rep))


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
    m, factor = _normalized(f)
    c = float(isometry_scales(m)) / factor
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


def _image_rows(m, u) -> np.ndarray:
    """Unit images of stacked vectors (..., s, d) under matrices (..., D, d)."""
    v = u @ m.swapaxes(-1, -2)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def superposition_residuals(m, y, z, r) -> tuple[np.ndarray, np.ndarray]:
    """Superposition preservation ``(residual, kept)`` by stacked maps
    (..., D, d) on samples y, z (..., s, d) and r (..., s): 1 − overlap
    between the image of the superposition and the superposition of the
    images, or 1.0 where the image pair is orthogonal
    (:func:`~raygeo.superposition.orthogonal_components`); a sample is
    preserved when it is at most ``EPS_ABS``.
    Only the kept samples count, those whose pair
    :func:`~raygeo.sampling.near_orthogonal` does not flag: the others
    read 0."""
    fy, fz = _image_rows(m, y), _image_rows(m, z)
    mapped = _image_rows(m, superpose_vectors(y, z, r))
    direct = superpose_vectors(fy, fz, r)
    direct = direct / norms(direct)[..., np.newaxis]
    residual = np.where(orthogonal_components(fy, fz), 1.0, 1.0 - a_sims(mapped, direct))
    kept = ~near_orthogonal(y, z)
    return np.where(kept, residual, 0.0), kept


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
        If ``trials`` is not a positive integer, or ``seed`` is not an
        integer in [0, 2**64).
    """
    check_count(trials, "trials")
    rng = keyed_generator(seed, 0x5052455345525645)
    y, z = random_rays(rng, trials, f.dim_in), random_rays(rng, trials, f.dim_in)
    r = rng.uniform(0.0, 1.0, trials)
    residual, kept = superposition_residuals(_normalized(f)[0], y, z, r)
    residual, y, z, r = residual[kept], y[kept], z[kept], r[kept]
    failed = residual > EPS_ABS
    if not failed.any():
        return PreservationReport(True, float(residual.max(initial=0.0)), len(r), seed, None)
    k = int(np.argmax(failed))
    witness = (ray_from(y[k]), ray_from(z[k]), float(r[k]))
    return PreservationReport(False, float(residual[: k + 1].max()), k + 1, seed, witness)


def char_morph_agreements(m, preserved) -> np.ndarray:
    """Agreement of the exact isometry criterion for stacked maps
    (..., D, d) with their sampled preservation verdicts (...), true
    where every sample was preserved; true for every regular map."""
    return ~np.isnan(isometry_scales(m)) == preserved


def check_char_morph(f: RegularMap, trials: int = 500, seed: int = 0) -> bool:
    """The single form of :func:`char_morph_agreements`, on the verdict of
    :func:`preserves_superpositions`.

    Raises
    ------
    ValueError
        As :func:`preserves_superpositions` does.
    """
    preserved = preserves_superpositions(f, trials, seed).preserves
    return bool(char_morph_agreements(_normalized(f)[0], preserved))


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
    triples, which :func:`~raygeo.sampling.near_orthogonal` does not
    flag, count: the others give 0."""
    kept = ~near_orthogonal(x, y, z)
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
        If ``trials`` is not a positive integer, or ``seed`` is not an
        integer in [0, 2**64).
    """
    if isometry_scale(f) is None:
        raise NotIsometryError("p/theta preservation holds only for isometries")
    check_count(trials, "trials")
    rng = keyed_generator(seed, 0x5051554E54)
    x, y, z = (random_rays(rng, trials, f.dim_in) for _ in range(3))
    p_residual, theta_residual, kept = p_theta_residuals(_normalized(f)[0], x, y, z)
    return QuantityResiduals(
        p_residual=float(p_residual.max(initial=0.0)),
        theta_residual=float(theta_residual.max(initial=0.0)),
        trials_run=int(kept.sum()),
    )
