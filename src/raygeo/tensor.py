"""Product states in tensor products of ray spaces.

A composite of two systems lives in the Kronecker product of the
ambient spaces.  On *product* rays, similarity multiplies and the
triple phase adds (mod 2π) across the factors — the two identities the
checkers below measure.  Entangled rays exist in the combined space
and are reachable by superposing product rays, but no dedicated
entanglement API is exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import circular_distance, wrap_angle
from .rays import Ray, ray_from
from .geometry import p_sim, theta


@dataclass(frozen=True)
class ProductRay:
    """A product state: the two factors and the combined ray.

    The combined representative is the Kronecker product of the factor
    representatives, re-canonicalized; entry (i·d2 + j) carries
    rep1_i · rep2_j up to the global phase fix.
    """

    factor1: Ray
    factor2: Ray
    combined: Ray


def tensor_ray(x1: Ray, x2: Ray) -> ProductRay:
    """The product state of two rays; factor phases do not matter."""
    return ProductRay(
        factor1=x1,
        factor2=x2,
        combined=ray_from(np.kron(x1.rep, x2.rep)),
    )


def check_p_product(x1: Ray, y1: Ray, x2: Ray, y2: Ray) -> float:
    """|p(x1⊗x2, y1⊗y2) − p(x1,y1)·p(x2,y2)|."""
    px = tensor_ray(x1, x2).combined
    py = tensor_ray(y1, y2).combined
    return abs(p_sim(px, py) - p_sim(x1, y1) * p_sim(x2, y2))


def check_theta_product(x1: Ray, y1: Ray, z1: Ray, x2: Ray, y2: Ray, z2: Ray) -> float:
    """Circular distance between theta on products and the sum of the
    factor phases (mod 2π).

    Requires both factor triples pairwise non-orthogonal, which makes
    the product triple pairwise non-orthogonal as well; raises
    OrthogonalPairError otherwise (propagated from the phase guards).
    """
    t1 = theta(x1, y1, z1)
    t2 = theta(x2, y2, z2)
    tx = tensor_ray(x1, x2).combined
    ty = tensor_ray(y1, y2).combined
    tz = tensor_ray(z1, z2).combined
    t_prod = theta(tx, ty, tz)
    return circular_distance(t_prod, wrap_angle(t1 + t2))
