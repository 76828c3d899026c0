"""Product states in tensor products of ray spaces.

A composite of two systems lives in the Kronecker product of the
ambient spaces.  On *product* rays, similarity multiplies and the
triple phase adds (mod 2π) across the factors — the two identities the
checkers below measure.  Entangled rays exist in the combined space
and are reachable by superposing product rays, but no dedicated
entanglement API is exposed here.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import circular_distances, wrap_angles
from .rays import Ray, rays_from, require_dims
from .geometry import p_sims, theta, triple_phase, triple_phases


def kron_rows(u, v) -> np.ndarray:
    """Row-wise Kronecker products of stacked vectors: shapes (..., d1)
    and (..., d2) give (..., d1·d2), entry (i·d2 + j) = u_i · v_j."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    return (u[..., :, np.newaxis] * v[..., np.newaxis, :]).reshape(*u.shape[:-1], -1)


def product_rays(u, v) -> np.ndarray:
    """Canonical representatives of the product rays of stacked factor
    representatives."""
    return rays_from(kron_rows(u, v))


def tensor_ray(x1: Ray, x2: Ray) -> Ray:
    """The product state of two rays; factor phases do not matter.

    The representative is the Kronecker product of the factor
    representatives, re-canonicalized; entry (i·d2 + j) carries
    rep1_i · rep2_j up to the global phase fix.
    """
    return Ray(rep=product_rays(x1.rep, x2.rep))


def p_product_residuals(x1, y1, x2, y2) -> np.ndarray:
    """|p(x1⊗x2, y1⊗y2) − p(x1,y1)·p(x2,y2)| over stacked factor rays."""
    return np.abs(p_sims(product_rays(x1, x2), product_rays(y1, y2)) - p_sims(x1, y1) * p_sims(x2, y2))


def check_p_product(x1: Ray, y1: Ray, x2: Ray, y2: Ray) -> float:
    """|p(x1⊗x2, y1⊗y2) − p(x1,y1)·p(x2,y2)|: the single form of
    :func:`p_product_residuals`.

    Raises
    ------
    DimensionMismatchError
        If x1 and y1, or x2 and y2, differ in dimension.
    """
    require_dims(x1, y1)
    require_dims(x2, y2)
    return float(p_product_residuals(x1.rep, y1.rep, x2.rep, y2.rep))


def theta_product_residuals(x1, y1, z1, x2, y2, z2) -> np.ndarray:
    """Circular distances between theta on stacked product triples and
    the sums of the factor phases (mod 2π).

    Requires both factor triples pairwise non-orthogonal, which makes
    the product triple pairwise non-orthogonal as well; a row where any
    of the three triples fails the phase guard reads NaN, as in
    :func:`~raygeo.geometry.triple_phases`.
    """
    t1 = triple_phases(x1, y1, z1)
    t2 = triple_phases(x2, y2, z2)
    t_prod = triple_phases(product_rays(x1, x2), product_rays(y1, y2), product_rays(z1, z2))
    return circular_distances(t_prod, wrap_angles(t1 + t2))


def check_theta_product(x1: Ray, y1: Ray, z1: Ray, x2: Ray, y2: Ray, z2: Ray) -> float:
    """Circular distance between theta on products and the sum of the
    factor phases (mod 2π): the single form of
    :func:`theta_product_residuals`.

    Raises
    ------
    OrthogonalPairError
        Naming the first offending pair of the first triple, in the
        order factor 1, factor 2, product, that fails the phase guard.
    """
    residual = float(theta_product_residuals(x1.rep, y1.rep, z1.rep, x2.rep, y2.rep, z2.rep))
    if math.isnan(residual):
        theta(x1, y1, z1)
        theta(x2, y2, z2)
        triple_phase(*(product_rays(a.rep, b.rep) for a, b in ((x1, x2), (y1, y2), (z1, z2))))
    return residual
