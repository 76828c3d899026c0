"""Which maps between state spaces respect superpositions?

An injective linear map induces a map on rays.  The induced map
preserves superpositions exactly when the matrix is an isometry up to a
positive scale — and then it preserves similarities and triple phases
too.  This script puts a unitary, a scaled unitary, an isometric
embedding, and a stretched map through the same battery.

Run:  python3 demos/morphism_characterization.py
"""

import numpy as np

from raygeo import (
    RegularMap,
    apply_ray,
    check_char_morph,
    check_preserves_p_theta,
    isometry_scale,
    preserves_superpositions,
    ray_from,
    rays_equal,
)

rng = np.random.default_rng(11)


def haar_unitary(n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


candidates = {
    "unitary (3x3)": RegularMap(haar_unitary(3)),
    "2.5 x unitary": RegularMap(2.5 * haar_unitary(3)),
    "isometric embedding (3->5)": RegularMap(
        np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
    ),
    "diagonal stretch diag(1,2,1)": RegularMap(np.diag([1.0, 2.0, 1.0])),
}

for name, f in candidates.items():
    scale = isometry_scale(f)
    report = preserves_superpositions(f, trials=300, seed=5)
    agree = check_char_morph(f, trials=300, seed=5)
    print(f"{name}")
    print(f"  uniform scale        : {scale if scale is not None else 'none (not an isometry)'}")
    print(f"  preserves superpos.  : {report.preserves} (worst residual {report.worst_residual:.1e})")
    if report.witness is not None:
        y, z, r = report.witness
        print(f"  broken instance      : weight r={r:.4f} on a sampled pair")
    if scale is not None:
        q = check_preserves_p_theta(f, trials=100, seed=5)
        print(f"  p / theta residuals  : {q.p_residual:.1e} / {q.theta_residual:.1e}")
    print(f"  verdicts agree       : {agree}")
    print()

# Scaling the matrix by any nonzero complex number induces the same ray
# map: rays forget magnitudes and global phases.
base = candidates["unitary (3x3)"]
scaled = RegularMap((0.3 - 1.2j) * base.matrix)
x = ray_from(rng.standard_normal(3) + 1j * rng.standard_normal(3))
print(f"c*m induces the same ray map: {rays_equal(apply_ray(base, x), apply_ray(scaled, x))}")
