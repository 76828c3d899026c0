"""Instance samplers: each draws what its law consumes.

The samplers are called directly on substreams, the way the laws call
them, and each draw is checked against the property that its callers
rely on.
"""

import numpy as np
import pytest

from raygeo import a_sim, commutes, coplanar, is_orthogonal, isometry_scale
from raygeo import sampling
from raygeo.sampling import MIN_OVERLAP, substream


def streams(seed, dim, trials=20):
    return (substream(seed, "test.sampling", dim, trial) for trial in range(trials))


class TestSamplers:
    def test_commuting_pairs_commute(self):
        for rng in streams(11, 5):
            a, b = sampling.commuting_pair(rng, 5)
            assert commutes(a, b)

    def test_classical_rays_orthogonal(self):
        for rng in streams(12, 4):
            rays = sampling.classical_rays(rng, 4, 3)
            assert len(rays) == 3
            for i in range(len(rays)):
                for j in range(i + 1, len(rays)):
                    assert is_orthogonal(rays[i], rays[j])

    def test_coplanar_triples_coplanar(self):
        for rng in streams(13, 4):
            x, y, z = sampling.coplanar_triple(rng, 4)
            assert coplanar(x, y, z)

    def test_nonorthogonal_pair_overlap_above_threshold(self):
        for rng in streams(14, 3):
            x, y = sampling.nonorthogonal_pair(rng, 3)
            assert a_sim(x, y) > MIN_OVERLAP

    def test_real_draws_are_real(self):
        for rng in streams(15, 3):
            x, y = sampling.nonorthogonal_pair(rng, 3, real=True)
            sub = sampling.random_subspace(rng, 3, real=True)
            for values in (x.rep, y.rep, sub.basis):
                assert np.max(np.abs(values.imag)) < 1e-14

    def test_isometry_scale_classifies_maps(self):
        for rng in streams(16, 3):
            scale = float(rng.uniform(0.5, 2.0))
            assert isometry_scale(sampling.isometry_map(rng, 3, scale=scale)) == pytest.approx(scale, abs=1e-12)
            assert isometry_scale(sampling.non_isometry_map(rng, 3)) is None
