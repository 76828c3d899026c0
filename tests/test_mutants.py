"""The stacked laws keep their teeth: broken library formulas fail them.

Each mutant replaces one library kernel, in every ``raygeo`` module
that binds it, by a deliberately wrong formula.  A law that computes
its residual through the library then sees the mutant, while a law
that inlined its own copy of the formula, or read its residual off its
sampler's construction, would not.  ``KILLED`` lists, per mutant, laws
that failed under it: for the ray kernels, when those laws still ran
trial by trial (``stream_version`` 2, same run configuration); for the
lattice, as observed once the subspace laws were stacked
(``stream_version`` 5); for the projection, as observed once
``lemma.p_bounds`` read the unclipped Born value (``stream_version``
9); for the projection equality, at ``stream_version`` 10; for
``corollary.p_max``, once it checked candidates next to the projection
(``stream_version`` 11), where its 200 random members per trial had
failed under none of these mutants; for ``counterexample.total_probability``,
once it checked the exact interference term on each trial (still
``stream_version`` 11), where its failing fraction had survived every
mutant.  Each must still fail now.
"""

import sys

import numpy as np
import pytest

from raygeo import GeneratorSpec, registry, run_all
from raygeo import geometry, probability, rays, superposition
from raygeo.linalg import EPS_ABS

GEN = GeneratorSpec(dims=(2, 3), trials_per_dim=20, seed=7)


def _p_is_overlap(u, v):
    """p = a instead of a²."""
    return geometry.a_sims(u, v)


_P_SIMS = geometry.p_sims


def _p_scaled(u, v):
    """p scaled by a factor 1 + 1e-9."""
    return (1.0 + 1e-9) * _P_SIMS(u, v)


def _rows_unrooted(v, w, r):
    """The superposition rows with weights r, 1 − r instead of their roots."""
    r = np.asarray(r, dtype=np.float64)[()]
    c = np.vecdot(w, v)
    a = np.hypot(c.real, c.imag)
    cw = (1.0 - r) * (c / (a + (a == 0.0)))
    take_v = (r >= 1.0) | (a > 1.0 - EPS_ABS)
    take_w = (r <= 0.0) & ~take_v
    return r[..., np.newaxis] * v + cw[..., np.newaxis] * w, take_v, take_w


def _rows_unaligned(v, w, r):
    """The superposition rows without the phase alignment c/|c| of w."""
    r = np.asarray(r, dtype=np.float64)[()]
    c = np.vecdot(w, v)
    a = np.hypot(c.real, c.imag)
    cw = (1.0 - r) ** 0.5 * np.ones_like(c)
    take_v = (r >= 1.0) | (a > 1.0 - EPS_ABS)
    take_w = (r <= 0.0) & ~take_v
    return (r**0.5)[..., np.newaxis] * v + cw[..., np.newaxis] * w, take_v, take_w


_JOINS = rays.joins


def _joins_short(qa, qb):
    """The joins without the last column each adds to ``qa``."""
    joined = _JOINS(qa, qb)
    added = np.linalg.norm(joined[..., qa.shape[-1] :], axis=-2) > 0.5  # (..., k)
    last = added.shape[-1] - 1 - np.argmax(added[..., ::-1], axis=-1)
    drop = added.any(axis=-1, keepdims=True) & (np.arange(added.shape[-1]) == last[..., np.newaxis])
    joined[..., qa.shape[-1] :] *= ~drop[..., np.newaxis, :]
    return joined


_PROJECT_ROWS = rays.project_rows


def _project_rows_long(q, x):
    """The projections lengthened by a factor 1 + 1e-9."""
    return (1.0 + 1e-9) * _PROJECT_ROWS(q, x)


def _projections_never_equal(p, zero_p, q, zero_q):
    """No two projections equal, not even two ZEROs."""
    return np.zeros_like(zero_p)


_TOTAL_PROBABILITY = probability.total_probability_residuals


def _total_probability_holds(qa, qb, x):
    """The total-probability residuals all zero, the domain mask kept."""
    residual, undefined = _TOTAL_PROBABILITY(qa, qb, x)
    return np.zeros_like(residual), undefined


MUTANTS = {
    "equal_projections=never": (geometry, "equal_projections", _projections_never_equal),
    "p_sims=a": (geometry, "p_sims", _p_is_overlap),
    "p_sims=scaled": (geometry, "p_sims", _p_scaled),
    "superposition_rows=r": (superposition, "_superposition_rows", _rows_unrooted),
    "superposition_rows=unaligned": (superposition, "_superposition_rows", _rows_unaligned),
    "joins=short": (rays, "joins", _joins_short),
    "project_rows=long": (rays, "project_rows", _project_rows_long),
    "total_probability_residuals=holds": (probability, "total_probability_residuals", _total_probability_holds),
}

KILLED = {
    "equal_projections=never": {"lemma.local_total_probability"},
    "joins=short": {
        "corollary.ortho_additivity_family",
        "lemma.commuting_decomposition",
        "lemma.inclusion_exclusion",
        "lemma.ortho_additivity",
        "subspace.orthomodular_identity",
    },
    "p_sims=a": {"corollary.p_max", "lemma.p_basis", "lemma.p_properties", "lemma.prop1_component_form"},
    "p_sims=scaled": {"corollary.cos_theta_prime", "corollary.p_max", "lemma.p_properties", "tensor.p_product"},
    "project_rows=long": {
        "corollary.ortho_additivity_family",
        "corollary.p_max",
        "corollary.total_probability",
        "counterexample.total_probability",
        "counterexample.total_probability_2d",
        "lemma.born_rule",
        "lemma.complement_sum",
        "lemma.conjunction_chain",
        "lemma.inclusion_exclusion",
        "lemma.local_total_probability",
        "lemma.ortho_additivity",
        "lemma.orthomodular_equality",
        "lemma.p_bounds",
        "subspace.projection_residual",
        "theorem.interference_inequality",
        "theorem.p_chain",
    },
    "superposition_rows=r": {"lemma.p_basis", "lemma.prop1_component_form"},
    "superposition_rows=unaligned": {
        "lemma.p_basis",
        "lemma.prop1_component_form",
        "lemma.prop1_dominance",
        "lemma.prop1_theta_zero",
    },
    "total_probability_residuals=holds": {
        "counterexample.total_probability",
        "counterexample.total_probability_2d",
    },
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_laws(monkeypatch, name):
    module, attr, mutant = MUTANTS[name]
    registry()  # the laws module binds its names before the patch
    original = getattr(module, attr)
    holders = [
        m for n, m in sorted(sys.modules.items())
        if (n == "raygeo" or n.startswith("raygeo.")) and getattr(m, attr, None) is original
    ]
    assert module in holders
    for holder in holders:
        monkeypatch.setattr(holder, attr, mutant)
    failed = {r.law_id for r in run_all(GEN) if not r.passed}
    assert KILLED[name] <= failed, f"{name} now survives {sorted(KILLED[name] - failed)}"
