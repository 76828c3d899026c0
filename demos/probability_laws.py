"""Similarity as a probability measure — exactly where propositions commute.

For a fixed state x, the numbers p(x, ·) over propositions obey the
familiar calculus (additivity, complement, inclusion-exclusion, chain
rule, total probability) precisely on commuting propositions.  This
script demonstrates the laws on constructed commuting pairs, exhibits
the planar family where total probability fails with a computable
residual, runs the interference-inequality counterexample search, and
shows that the lattice of propositions is not distributive.

Run:  python3 demos/probability_laws.py
"""

import math

import numpy as np

from raygeo import (
    Subspace,
    check_chain_rule,
    check_complement,
    check_inclusion_exclusion,
    check_interference_inequality,
    check_ortho_additivity,
    check_total_probability,
    decompose_commuting,
    join,
    meet,
    ortho_complement,
    p_prop,
    project_ray,
    ray_from,
    search_nonsquared_counterexample,
    subspaces_equal,
)

rng = np.random.default_rng(7)
DIM = 5

# Commuting pairs are built, never found: spans of index subsets of one
# orthonormal frame.  (Random pairs commute with probability zero.)
frame = np.linalg.qr(rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM)))[0].T
alpha = Subspace.from_orthonormal(frame[:3], DIM)
beta = Subspace.from_orthonormal(frame[1:4], DIM)
x = ray_from(rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM))

print("constructed commuting pair (rank 3 and rank 3 sharing two directions)")
parts = decompose_commuting(alpha, beta)
print(f"  decomposition ranks: shared={parts.gamma1.rank}, "
      f"alpha-only={parts.gamma2.rank}, beta-only={parts.gamma3.rank}")

print(f"  complement law residual        {check_complement(x, alpha):.2e}")
print(f"  inclusion-exclusion residual   {check_inclusion_exclusion(x, alpha, beta):.2e}")
print(f"  chain rule residual            {check_chain_rule(x, alpha, beta):.2e}")
print(f"  total probability residual     {check_total_probability(x, alpha, beta):.2e}")

ortho_a = Subspace.from_orthonormal(frame[:2], DIM)
ortho_b = Subspace.from_orthonormal(frame[2:4], DIM)
print(f"  orthogonal additivity residual {check_ortho_additivity(x, ortho_a, ortho_b):.2e}")

# --- without commutation the decomposition fails -------------------------
# alpha = first axis, x at angle t, beta = the ray of x itself:
#   left side  p(x, beta) = 1
#   right side cos^4 t + sin^4 t
print()
print("the planar non-commuting family: residual |1 - cos^4 - sin^4|")
for t in (0.3, 0.6, math.pi / 4):
    axis = Subspace.from_vectors([[1.0, 0.0]])
    xt = ray_from([math.cos(t), math.sin(t)])
    target = Subspace.from_ray(xt)
    ax = project_ray(axis, xt)
    nax = project_ray(ortho_complement(axis), xt)
    rhs = p_prop(xt, axis) * p_prop(ax, target) + p_prop(xt, ortho_complement(axis)) * p_prop(nax, target)
    print(f"  t={t:.4f}: observed residual {1 - rhs:.6f}   analytic {1 - math.cos(t)**4 - math.sin(t)**4:.6f}")

# --- the interference inequality and its sharpness -----------------------
# With x inside alpha:  p(x,b)(1-p(b(x),a))^2 <= p(b(x),a)(1-p(a(b(x)),b)).
print()
print("interference inequality margins on random instances (always >= 0):")
for _ in range(5):
    a = Subspace.from_vectors(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    b = Subspace.from_vectors(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    member = ray_from(a.basis.T @ (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
    print(f"  margin = {check_interference_inequality(member, a, b):+.6f}")

# The square on (1 - p(b(x),a)) cannot be dropped: a real 3-dimensional
# search finds a violation of the non-squared variant almost instantly.
witness = search_nonsquared_counterexample(seed=42, budget=100_000)
print()
print(f"non-squared variant violated at trial {witness.trial_index}:")
print(f"  p(x,b)={witness.p_x_beta:.6f}  p(b(x),a)={witness.p_bx_alpha:.6f}  "
      f"p(a(b(x)),b)={witness.p_abx_beta:.6f}")
print(f"  non-squared excess {witness.nonsquared_excess:.6f}  "
      f"(squared margin stays {witness.squared_margin:+.6f})")

# --- the lattice is not distributive ---------------------------------------
# Any two distinct lines of C^2 join to the whole plane and meet in {0}, so
# with three of them a ^ (b v c) = a while (a ^ b) v (a ^ c) = {0}: the
# quantum logic of Birkhoff & von Neumann (Ann. Math. 37, 823, 1936).
a = Subspace.from_vectors([[1.0, 0.0]])
b = Subspace.from_vectors([[1.0, 1.0]])
c = Subspace.from_vectors([[1.0, 1j]])
print()
print("the lines a = span(1,0), b = span(1,1), c = span(1,i) of C^2 break distributivity:")
print(f"  b v c = C^2                {subspaces_equal(join(b, c), Subspace.truth(2))}")
print(f"  a ^ (b v c) = a            {subspaces_equal(meet(a, join(b, c)), a)}")
print(f"  (a ^ b) v (a ^ c) = {{0}}    {subspaces_equal(join(meet(a, b), meet(a, c)), Subspace.falsehood(2))}")
