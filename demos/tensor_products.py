"""Composite systems: similarity multiplies, phase adds.

A composite of two systems lives in the Kronecker product of the state
spaces.  On product states the two geometric quantities behave simply:
similarity factorizes and the triple phase is additive mod 2pi.  The
hand-computed fixture: the worked C^2 triple has phase -pi/4, so its
square under the product lands on -pi/2.

Run:  python3 demos/tensor_products.py
"""

import math

import numpy as np

from raygeo import check_p_product, check_theta_product, p_sim, ray_from, tensor_ray, theta

rng = np.random.default_rng(3)


def random_ray(dim):
    return ray_from(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


# --- construction --------------------------------------------------------
x1 = ray_from([1.0, 1.0])
x2 = ray_from([1.0, 0.0, 0.0])
prod = tensor_ray(x1, x2)
print(f"({np.round(x1.rep, 4)}) x ({np.round(x2.rep, 4)})")
print(f"  = {np.round(prod.rep, 4)}  in C^{prod.dim}")
print()

# --- similarity multiplies ------------------------------------------------
print("p(x1 (x) x2, y1 (x) y2) = p(x1,y1) * p(x2,y2):")
for _ in range(4):
    a1, b1 = random_ray(2), random_ray(2)
    a2, b2 = random_ray(3), random_ray(3)
    lhs = p_sim(tensor_ray(a1, a2), tensor_ray(b1, b2))
    rhs = p_sim(a1, b1) * p_sim(a2, b2)
    print(f"  product {lhs:.10f}   factors {rhs:.10f}   gap {check_p_product(a1, b1, a2, b2):.1e}")
print()

# --- phases add -------------------------------------------------------------
x = ray_from([1.0, 0.0])
y = ray_from([1.0, 1.0])
z = ray_from([1.0, 1.0j])
t = theta(x, y, z)
print(f"worked triple phase: {t:+.6f}  (= -pi/4 = {-math.pi/4:+.6f})")

tx = tensor_ray(x, x)
ty = tensor_ray(y, y)
tz = tensor_ray(z, z)
print(f"phase of the squared triple: {theta(tx, ty, tz):+.6f}  (= -pi/2)")
print(f"additivity residual: {check_theta_product(x, y, z, x, y, z):.1e}")
print()

print("random C^2 x C^3 triples (circular distance to theta1 + theta2):")
for _ in range(4):
    t1 = [random_ray(2) for _ in range(3)]
    t2 = [random_ray(3) for _ in range(3)]
    print(f"  residual {check_theta_product(*t1, *t2):.1e}")
