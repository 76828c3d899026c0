"""Ray maps induced by injective linear maps, and their characterization.

An injective linear map between ambient spaces induces a well-defined
map on rays (scaling the matrix by any nonzero complex number induces
the same ray map).  The central fact verified by the harness: such a
map preserves superpositions exactly when it is an isometry up to a
positive scale — in which case it also preserves similarities and
triple phases.  :func:`isometry_map` and :func:`non_isometry_map`
sample the two kinds of map the harness checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotIsometryError
from .linalg import EPS_ABS, circular_distances
from .rays import Ray, ray_from
from .geometry import a_sims, p_sims, triple_phases
from .sampling import gaussian_stack, keyed_generator, random_frames
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


def isometry_map(rng: np.random.Generator, dim_in: int, scale: float | None = None) -> RegularMap:
    """A scaled isometry C^{dim_in} → C^{dim_out} (orthonormal columns);
    dim_out is drawn from dim_in..dim_in+2, the scale from [0.5, 2) if not given."""
    dim_out = dim_in + int(rng.integers(0, 3))
    q = random_frames(rng, 1, dim_out, dim_in)[0]
    c = float(rng.uniform(0.5, 2.0)) if scale is None else float(scale)
    return RegularMap(c * q)


def non_isometry_map(rng: np.random.Generator, dim_in: int) -> RegularMap:
    """An injective non-isometry: one singular value bumped by ≥ 1.1."""
    dim_out = dim_in + int(rng.integers(0, 3))
    q = random_frames(rng, 1, dim_out, dim_in)[0]
    v = random_frames(rng, 1, dim_in, dim_in)[0]
    s = np.ones(dim_in)
    s[int(rng.integers(0, dim_in))] = 1.1 + float(rng.uniform(0.0, 0.9))
    return RegularMap(q @ np.diag(s) @ v.conj().T)


def apply_ray(f: RegularMap, x: Ray) -> Ray:
    """Image of a ray under the induced map."""
    if x.dim != f.dim_in:
        raise DimensionMismatchError(f"ray dim {x.dim} vs map input dim {f.dim_in}")
    return ray_from(f.matrix @ x.rep)


def isometry_scale(f: RegularMap) -> float | None:
    """The uniform scale c with ‖m·u‖ = c‖u‖ for all u, or None.

    Decided exactly through the Gram matrix m†m = c²·I on the standard
    basis, to 1e-9 relative to c².
    """
    m = f.matrix
    gram = m.conj().T @ m
    c2 = float(np.real(np.trace(gram))) / f.dim_in
    if c2 <= 0.0:
        return None
    dev = float(np.max(np.abs(gram - c2 * np.eye(f.dim_in))))
    if dev > 1e-9 * c2:
        return None
    return float(np.sqrt(c2))


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


def _image_rows(f: RegularMap, u: np.ndarray) -> np.ndarray:
    """Unit representatives of the images of stacked vectors under f."""
    m = u @ f.matrix.T
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def preserves_superpositions(f: RegularMap, trials: int = 500, seed: int = 0) -> PreservationReport:
    """Sampled check that the induced map carries superpositions to
    superpositions of the images.

    Draws pairs (y, z) and weights r as stacks, and keeps the pairs
    with overlap above 1e-6; requires the image pair to stay
    non-orthogonal and the image of the superposition to equal the
    superposition of the images.  The verdict stops at the first
    failure: ``trials_run`` and ``worst_residual`` count the kept
    samples up to it, and the witness is that sample.  A negative
    verdict is a proof; a positive verdict is sampled evidence — the
    exact criterion is the isometry check, and the harness validates
    their agreement.

    Raises
    ------
    ValueError
        If ``seed`` lies outside [0, 2**64).
    """
    rng = keyed_generator(seed, 0x5052455345525645)
    trials = max(int(trials), 0)
    y = _unit_rows(rng, trials, f.dim_in)
    z = _unit_rows(rng, trials, f.dim_in)
    r = rng.uniform(0.0, 1.0, trials)
    kept = a_sims(y, z) > 1e-6
    y, z, r = y[kept], z[kept], r[kept]
    fy = _image_rows(f, y)
    fz = _image_rows(f, z)
    collapsed = a_sims(fy, fz) <= EPS_ABS
    mapped = _image_rows(f, superpose_vectors(y, z, r))
    direct = superpose_vectors(fy, fz, r)
    direct = direct / np.linalg.norm(direct, axis=-1, keepdims=True)
    residual = np.where(collapsed, 1.0, 1.0 - a_sims(mapped, direct))
    failed = collapsed | (residual > EPS_ABS)
    if not failed.any():
        return PreservationReport(True, float(residual.max(initial=0.0)), len(r), seed, None)
    k = int(np.argmax(failed))
    witness = (ray_from(y[k]), ray_from(z[k]), float(r[k]))
    return PreservationReport(False, float(residual[: k + 1].max()), k + 1, seed, witness)


def check_char_morph(f: RegularMap, trials: int = 500, seed: int = 0) -> bool:
    """Agreement of the exact isometry criterion with the sampled
    superposition-preservation verdict; true for every regular map."""
    is_iso = isometry_scale(f) is not None
    return is_iso == preserves_superpositions(f, trials, seed).preserves


@dataclass(frozen=True)
class QuantityResiduals:
    """Worst deviations of similarity and triple phase under a map."""

    p_residual: float
    theta_residual: float
    trials_run: int


def check_preserves_p_theta(f: RegularMap, trials: int = 200, seed: int = 0) -> QuantityResiduals:
    """Worst |p(f x, f y) − p(x, y)| and phase deviation over samples.

    Both quantities are blind to a uniform scale, so any isometry up to
    scale preserves them exactly.

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
    kept = np.minimum(np.minimum(a_sims(x, y), a_sims(y, z)), a_sims(z, x)) > 1e-6
    x, y, z = x[kept], y[kept], z[kept]
    fx, fy, fz = (_image_rows(f, t) for t in (x, y, z))
    p_residual = np.abs(p_sims(fx, fy) - p_sims(x, y)).max(initial=0.0)
    theta_residual = circular_distances(triple_phases(fx, fy, fz), triple_phases(x, y, z)).max(initial=0.0)
    return QuantityResiduals(
        p_residual=float(p_residual), theta_residual=float(theta_residual), trials_run=len(x)
    )
