"""The batched laws keep their teeth: broken library formulas fail them.

Each mutant replaces one library kernel, in every ``raygeo`` module
that binds it, by a deliberately wrong formula.  A law that computes
its residual through the library then sees the mutant, while a law
that inlined its own copy of the formula would not.  ``KILLED`` lists,
per mutant, the batched laws that failed under it when they still ran
trial by trial (``stream_version`` 2, same run configuration); each
must still fail now.
"""

import sys

import numpy as np
import pytest

from raygeo import GeneratorSpec, registry, run_all
from raygeo import geometry, superposition
from raygeo.linalg import EPS_ABS

GEN = GeneratorSpec(dims=(2, 3), trials_per_dim=20, seed=7)


def _p_is_overlap(u, v):
    """p = a instead of a²."""
    return geometry.a_sims(u, v)


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


MUTANTS = {
    "p_sims=a": (geometry, "p_sims", _p_is_overlap),
    "superposition_rows=r": (superposition, "_superposition_rows", _rows_unrooted),
    "superposition_rows=unaligned": (superposition, "_superposition_rows", _rows_unaligned),
}

KILLED = {
    "p_sims=a": {"lemma.p_basis", "lemma.p_properties", "lemma.prop1_component_form"},
    "superposition_rows=r": {"lemma.p_basis", "lemma.prop1_component_form"},
    "superposition_rows=unaligned": {
        "lemma.p_basis",
        "lemma.prop1_component_form",
        "lemma.prop1_dominance",
        "lemma.prop1_theta_zero",
    },
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_laws(monkeypatch, name):
    module, attr, mutant = MUTANTS[name]
    reg = registry()  # the laws module binds its names before the patch
    original = getattr(module, attr)
    holders = [
        m for n, m in sorted(sys.modules.items())
        if (n == "raygeo" or n.startswith("raygeo.")) and getattr(m, attr, None) is original
    ]
    assert module in holders
    for holder in holders:
        monkeypatch.setattr(holder, attr, mutant)
    failed = {r.law_id for r in run_all(GEN) if not r.passed}
    assert all(reg[law_id].batch is not None for law_id in KILLED[name])
    assert KILLED[name] <= failed, f"{name} now survives {sorted(KILLED[name] - failed)}"
