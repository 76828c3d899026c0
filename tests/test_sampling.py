"""Instance samplers: each draws what its law consumes.

The samplers are called directly on substreams, the way the laws call
them, and each draw is checked against the property that its callers
rely on.
"""

import numpy as np
import pytest

from raygeo import (
    Ray,
    a_sim,
    check_char_morph,
    check_preserves_p_theta,
    commutes,
    coplanar,
    is_orthogonal,
    isometry_scale,
    preserves_superpositions,
    search_nonsquared_counterexample,
)
from raygeo import sampling
from raygeo.sampling import MIN_OVERLAP, keyed_generator, law_stream_key, substream


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
        for rng in streams(13, 4, trials=2):
            x, y, z, skip = sampling.coplanar_triples(rng, 50, 4)
            assert x.shape == y.shape == z.shape == (50, 4) and skip.shape == (50,)
            for i in np.flatnonzero(~skip):
                assert coplanar(*(Ray(rep=s[i]) for s in (x, y, z)))

    def test_nonorthogonal_pair_overlap_above_threshold(self):
        for rng in streams(14, 3, trials=2):
            x, y, skip = sampling.nonorthogonal_pairs(rng, 50, 3)
            overlaps = np.array([a_sim(Ray(rep=u), Ray(rep=v)) for u, v in zip(x, y)])
            np.testing.assert_array_equal(skip, overlaps <= MIN_OVERLAP)

    def test_real_draws_are_real(self):
        for rng in streams(15, 3, trials=2):
            x, y, z, skip = sampling.nonorthogonal_triples(rng, 50, 3, real=True)
            for i in np.flatnonzero(~skip):
                rays = [Ray(rep=s[i]) for s in (x, y, z)]
                assert min(a_sim(u, v) for u, v in zip(rays, rays[1:] + rays[:1])) > MIN_OVERLAP
            stack = sampling.gaussian_stack(rng, (4, 3), real=True)
            assert stack.dtype == np.complex128
            for values in (x, y, z, stack):
                assert np.max(np.abs(values.imag)) < 1e-14

    def test_isometry_scale_classifies_maps(self):
        for rng in streams(16, 3):
            scale = float(rng.uniform(0.5, 2.0))
            assert isometry_scale(sampling.isometry_map(rng, 3, scale=scale)) == pytest.approx(scale, abs=1e-12)
            assert isometry_scale(sampling.non_isometry_map(rng, 3)) is None


class TestKeyedGenerator:
    """Every generator is keyed by ``keyed_generator``, which checks the
    seed like ``GeneratorSpec``; the key words are those of the inline
    constructions it replaced, so every valid seed draws the same numbers."""

    def test_key_words_unchanged(self):
        for seed, word in ((0, 0), (42, 7), (2**64 - 1, 0x5052455345525645)):
            key = np.array([np.uint64(seed), np.uint64(word)], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(4)
            np.testing.assert_array_equal(keyed_generator(seed, word).standard_normal(4), expected)
        for seed, law_id, dim, index in ((42, "theorem.p_chain", 3, 7), (2**64 - 1, "x", 32, 2**20)):
            key = np.array(
                [
                    np.uint64(seed) ^ np.uint64(law_stream_key(law_id)),
                    (np.uint64(dim) << np.uint64(32)) ^ np.uint64(index),
                ],
                dtype=np.uint64,
            )
            expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(4)
            np.testing.assert_array_equal(substream(seed, law_id, dim, index).standard_normal(4), expected)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize(
        "call",
        [
            lambda seed, f: search_nonsquared_counterexample(seed=seed, budget=1),
            lambda seed, f: preserves_superpositions(f, trials=5, seed=seed),
            lambda seed, f: check_preserves_p_theta(f, trials=5, seed=seed),
            lambda seed, f: check_char_morph(f, trials=5, seed=seed),
        ],
        ids=["search", "preserves_superpositions", "check_preserves_p_theta", "check_char_morph"],
    )
    def test_seed_outside_64_bits_rejected(self, call, seed):
        f = sampling.isometry_map(substream(17, "test.sampling", 3, 0), 3)
        with pytest.raises(ValueError, match="seed must lie"):
            call(seed, f)
