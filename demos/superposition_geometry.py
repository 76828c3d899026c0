"""The algebra of superpositions and the closed forms that govern it.

Superposing states is not adding vectors: the operation is defined only
for non-orthogonal states, weights flip under commutation, and nesting
does not associate.  What it does obey are geometric laws tied to the
similarity p and the triple phase theta, demonstrated here on random
instances.  The last section swaps a coplanar triple for its primed
(orthocomplement) triple, which negates theta.

Run:  python3 demos/superposition_geometry.py
"""

import numpy as np

from raygeo import (
    OrthogonalComponentsError,
    SuperpositionSpec,
    a_sim,
    coplanar,
    cos_theta_prime,
    inner,
    p_component_closed_form,
    p_of_superposition_closed_form,
    p_sim,
    prime_triple,
    ray_from,
    rays_equal,
    reciprocity_holds,
    superpose,
    theta,
)

rng = np.random.default_rng(20260809)


def random_ray(dim):
    return ray_from(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


# --- the operation refuses orthogonal components -----------------------
try:
    SuperpositionSpec(y=ray_from([1, 0]), z=ray_from([0, 1]), r=0.5)
except OrthogonalComponentsError as exc:
    print(f"orthogonal components refused: {exc}")

# --- triviality and weight boundaries -----------------------------------
y = random_ray(4)
assert rays_equal(superpose(SuperpositionSpec(y=y, z=y, r=0.37)), y)
print("superposing a state with itself returns the state (any weight)")

z = random_ray(4)
spec_full = SuperpositionSpec(y=y, z=z, r=1.0)
assert rays_equal(superpose(spec_full), y)
print("weight 1 returns the first component exactly")

# --- commutativity under r <-> 1-r --------------------------------------
r = float(rng.uniform())
a = superpose(SuperpositionSpec(y=y, z=z, r=r))
b = superpose(SuperpositionSpec(y=z, z=y, r=1.0 - r))
print(f"swap components and weights: overlap(a, b) = {a_sim(a, b):.15f}")

# --- every superposition is coplanar with its components, phase-flat ----
x = superpose(SuperpositionSpec(y=y, z=z, r=r))
print(f"coplanar(superposition, y, z) = {coplanar(x, y, z)}")
print(f"theta(superposition, y, z)    = {theta(x, y, z):+.2e}  (always 0)")

# --- the closed form with the interference term -------------------------
# p(ry + (1-r)z, x) =
#   [ r p(y,x) + (1-r) p(z,x) + 2 cos(theta) sqrt(r(1-r) p p) ] / omega
print()
print("closed form vs direct similarity on random test states:")
spec = SuperpositionSpec(y=y, z=z, r=r)
built = superpose(spec)
for _ in range(5):
    probe = random_ray(4)
    direct = p_sim(built, probe)
    closed = p_of_superposition_closed_form(spec, probe)
    print(f"  direct {direct:.12f}   closed {closed:.12f}   gap {abs(direct-closed):.1e}")

# --- similarity to a component, and strict dominance ---------------------
# p(x, y) = 1 - (1-r)(1-p(y,z)) / omega  >  p(y,z)   for every r > 0
print()
p_yz = p_sim(y, z)
print(f"p(y,z) = {p_yz:.6f}")
for r in (0.9, 0.5, 0.1, 0.01):
    spec = SuperpositionSpec(y=y, z=z, r=r)
    got = p_sim(superpose(spec), y)
    closed = p_component_closed_form(spec)
    print(
        f"  r={r:4.2f}: p(superposition, y) = {got:.6f} "
        f"(closed {closed:.6f})  margin over p(y,z) = {got - p_yz:+.6f}"
    )
print("the mixed-in component always wins, and only ties at r = 0")

# --- the primed triple: orthocomplements within the plane ----------------
# x' is the projection of y on the orthocomplement of x, and cyclically;
# on a coplanar triple the primed triple's phase is the negation
print()
y, z = random_ray(3), random_ray(3)
x = ray_from(0.6 * y.rep + (0.3 + 0.5j) * z.rep)
primed = prime_triple(x, y, z)
print(f"theta(x, y, z)    = {theta(x, y, z):+.15f}")
print(f"theta(x', y', z') = {theta(primed.x, primed.y, primed.z):+.15f}  (the negation)")
print(f"|<x', x>| = {abs(inner(primed.x.rep, x.rep)):.1e}  (x' is orthogonal to x)")
closed = cos_theta_prime(x, primed.x, y, z)
direct = np.cos(theta(primed.x, y, z))
print(f"cos theta(x', y, z): closed form {closed:+.15f}, direct {direct:+.15f}")
print(f"reciprocity holds on (x, y, z): {reciprocity_holds(x, y, z)}")
