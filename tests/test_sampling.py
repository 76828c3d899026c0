"""Instance samplers: each draws what its law consumes.

The samplers are called directly on substreams, the way the laws call
them, and each draw is checked against the property that its callers
rely on.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import raygeo

from raygeo import (
    Ray,
    Subspace,
    a_sim,
    check_char_morph,
    check_preserves_p_theta,
    commutes,
    coplanar,
    is_member,
    is_orthogonal,
    preserves_superpositions,
    search_nonsquared_counterexample,
)
from raygeo import sampling
from raygeo.morphisms import RegularMap, isometry_maps, isometry_scales, non_isometry_maps
from raygeo.rays import a_sims, containment_defects
from raygeo.sampling import MIN_OVERLAP, keyed_generator, keyed_generators, law_stream_key, substream


def streams(seed, dim, trials=20):
    return (substream(seed, "test.sampling", dim, trial) for trial in range(trials))


class TestSamplers:
    def test_commuting_pairs_commute(self):
        for rng in streams(11, 5, trials=2):
            a, b = sampling.commuting_pairs(rng, 20, 5)
            assert a.shape == b.shape == (20, 5, 5)
            for qa, qb in zip(a, b):
                assert commutes(Subspace.from_columns(qa), Subspace.from_columns(qb))

    def test_nested_pairs_nest(self):
        for rng in streams(19, 5, trials=2):
            a, b = sampling.nested_pairs(rng, 20, 5)
            for qa, qb in zip(a, b):
                sa, sb = Subspace.from_columns(qa), Subspace.from_columns(qb)
                assert 0 <= sa.rank <= sb.rank and sb.rank >= 1
                assert containment_defects(sa.basis.T, sb.basis.T) < 1e-12

    def test_random_subspaces_and_member_rays(self):
        for rng in streams(20, 4, trials=2):
            q = sampling.random_subspaces(rng, 50, 4, 1, 3)
            x = sampling.member_rays(rng, q)
            for qa, rep in zip(q, x):
                a = Subspace.from_columns(qa)
                assert 1 <= a.rank <= 3
                assert is_member(Ray(rep=rep), a)

    def test_interference_ranks_independent(self):
        # the law orders its trials by descending rank of beta; alpha's
        # ranks must not follow that order: at d = 8 every (rank alpha,
        # rank beta) cell holds about 1/49 of 10 240 trials (209 expected,
        # sd 14), and a cell outside [1/2, 3/2] of that is 7 sd out
        from raygeo.laws import _batch_interference_inequality

        cells = np.zeros((7, 7))
        for index in range(40):
            block = _batch_interference_inequality(substream(5, "theorem.interference_inequality", 8, index), 8, 256)
            np.add.at(cells, (block.instance["alpha_rank"] - 1, block.instance["beta_rank"] - 1), 1)
        share = cells * 49 / cells.sum()
        assert 0.5 < share.min() and share.max() < 1.5, share

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_interference_state_law(self, dim):
        # The law draws in alpha's own coordinates (alpha spanned by the
        # first basis vectors, x the first of them) and only beta's frame.
        # Over 20 496 trials its chain p(x,b), p(b(x),a), p(a(b(x)),b) and
        # its margin have the means and deciles of the two-frame draw it
        # replaced (written out below: alpha and beta Haar, x alpha's first
        # column, uniform on alpha's unit sphere), within 4 standard
        # errors; the state lies in alpha and has unit norm.
        from raygeo.lawcheck import block_trials
        from raygeo.laws import _batch_interference_inequality
        from raygeo.probability import interference_margins, measurement_chain
        from raygeo.rays import project_rows

        def two_frames(rng, n):
            ra = np.sort(rng.integers(1, dim, size=n))[::-1]
            rb = rng.integers(1, dim, size=n)
            qa = sampling.ranked_frames(rng, ra, dim, dim - 1)
            qb = sampling.ranked_frames(rng, rb, dim, dim - 1)
            return qa, qb, qa[..., 0]

        def chains(draw, seed):
            n = block_trials(dim)
            out = []
            # full blocks, and a short tail block, which takes LAPACK's QR
            for index, count in enumerate([n] * (20_480 // n) + [16]):
                qa, qb, x = draw(substream(seed, "theorem.interference_inequality", dim, index), count)
                margin, undefined = interference_margins(qa, qb, x)
                p = np.stack([*measurement_chain(x, qb, qa, qb), margin])
                out.append(p[:, ~undefined])
            return np.concatenate(out, axis=1)

        def law(rng, n):
            block = _batch_interference_inequality(rng, dim, n)
            qa, x = block.instance["alpha"], block.instance["x"]
            assert np.abs(x - project_rows(qa, x)).max() <= 1e-14
            assert np.abs(np.linalg.norm(x, axis=-1) - 1.0).max() <= 1e-15
            return qa, block.instance["beta"], x

        new, old = chains(law, 5), chains(two_frames, 6)
        for name, a, b in zip(("p(x,b)", "p(b(x),a)", "p(a(b(x)),b)", "margin"), new, old):
            se = np.sqrt(a.var() / a.size + b.var() / b.size)
            assert abs(a.mean() - b.mean()) < 4 * se, (name, a.mean(), b.mean(), se)
            for q in np.arange(1, 10) / 10:
                # a sample quantile's standard error, read off the order
                # statistics one binomial sd either side of it
                ses = [np.ptp(np.quantile(s, q + np.array([-1, 1]) * np.sqrt(q * (1 - q) / s.size))) / 2 for s in (a, b)]
                gap = np.quantile(a, q) - np.quantile(b, q)
                assert abs(gap) < 4 * np.hypot(*ses), (name, q, gap, ses)

    def test_classical_rays_orthogonal(self):
        for rng in streams(12, 4, trials=2):
            rays = sampling.classical_ray_stacks(rng, 20, 4, 3)
            assert rays.shape == (3, 20, 4)
            for i in range(3):
                for j in range(i + 1, 3):
                    for u, v in zip(rays[i], rays[j]):
                        assert is_orthogonal(Ray(rep=u), Ray(rep=v))

    def test_more_classical_rays_than_dim_refused(self):
        with pytest.raises(ValueError, match="more distinct basis rays than dim"):
            sampling.classical_ray_stacks(np.random.default_rng(0), 3, 2, 3)

    def test_coplanar_triples_coplanar(self):
        for rng in streams(13, 4, trials=2):
            x, y, z, skip = sampling.coplanar_triples(rng, 50, 4)
            assert x.shape == y.shape == z.shape == (50, 4) and skip.shape == (50,)
            for i in np.flatnonzero(~skip):
                assert coplanar(*(Ray(rep=s[i]) for s in (x, y, z)))

    def test_nonorthogonal_pair_overlap_above_threshold(self):
        for rng in streams(14, 3, trials=2):
            x, y, skip = sampling.nonorthogonal_rays(rng, 50, 3, 2)
            overlaps = np.array([a_sim(Ray(rep=u), Ray(rep=v)) for u, v in zip(x, y)])
            np.testing.assert_array_equal(skip, overlaps <= MIN_OVERLAP)

    def test_nonorthogonal_rays_draw_as_the_former_samplers(self):
        # references: the pair and triple samplers it replaced, and the hand
        # loop of lemma.theta_cocycle, which drew and skipped four rays
        def pairs(rng, count, dim):
            x = sampling.random_rays(rng, count, dim)
            y = sampling.random_rays(rng, count, dim)
            return x, y, a_sims(x, y) <= MIN_OVERLAP

        def triples(rng, count, dim):
            x, y, z = (sampling.random_rays(rng, count, dim) for _ in range(3))
            overlap = np.minimum(np.minimum(a_sims(x, y), a_sims(y, z)), a_sims(z, x))
            return x, y, z, overlap <= MIN_OVERLAP

        def quadruples(rng, count, dim):
            rays = [sampling.random_rays(rng, count, dim) for _ in range(4)]
            skip = np.zeros(count, dtype=bool)
            for u, v in itertools.combinations(rays, 2):
                skip |= a_sims(u, v) <= MIN_OVERLAP
            return (*rays, skip)

        for k, reference in ((2, pairs), (3, triples), (4, quadruples)):
            for dim in (2, 3, 5):
                got_rng, want_rng = (substream(15, "test.sampling", dim, k) for _ in range(2))
                got = sampling.nonorthogonal_rays(got_rng, 200, dim, k)
                want = reference(want_rng, 200, dim)
                assert len(got) == len(want) == k + 1
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
                assert got_rng.standard_normal() == want_rng.standard_normal()  # same stream position

    def test_isometry_scale_classifies_maps(self):
        for rng in streams(16, 3):
            scale = float(rng.uniform(0.5, 2.0))
            m, _ = isometry_maps(rng, 1, 3, scale=scale)
            assert isometry_scales(m)[0] == pytest.approx(scale, abs=1e-12)
            m, _ = non_isometry_maps(rng, 1, 3)
            assert np.isnan(isometry_scales(m)[0])


class TestKeyedGenerator:
    """Every generator is keyed by ``keyed_generators``, which checks the
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

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_rekeyed_generators_draw_as_fresh_ones(self, seed):
        # a size-1 integers draw leaves half a word buffered, which the
        # next key must not inherit
        def draws(rng):
            return np.concatenate([rng.integers(0, 2**32, size=1), rng.standard_normal(5)])

        words = [0, 1, 2**32, 2**63]
        rekeyed = [draws(rng) for rng in keyed_generators(seed, words)]
        for word, got in zip(words, rekeyed, strict=True):
            np.testing.assert_array_equal(got, draws(keyed_generator(seed, word)))

    def test_rekeyed_state_not_shared_between_calls(self):
        # two calls advanced in turn, with a half-word left buffered between
        # steps: a state dict or key array shared across calls would leak
        # one call's key or buffer into the other's draws
        def draws(rng):
            return np.concatenate([rng.integers(0, 2**32, size=1), rng.standard_normal(3)])

        words = range(6)
        calls = {5: keyed_generators(5, words), 2**64 - 1: keyed_generators(2**64 - 1, words)}
        for word in words:
            for seed, rngs in calls.items():
                np.testing.assert_array_equal(draws(next(rngs)), draws(keyed_generator(seed, word)))

    def test_no_os_entropy_drawn(self, monkeypatch):
        # a counter-based stream is a pure function of its key: nothing
        # here may seed a SeedSequence from OS entropy
        def refuse(bits):
            raise AssertionError("OS entropy drawn")

        monkeypatch.setattr(np.random.bit_generator, "randbits", refuse)
        keyed_generator(3, 4).standard_normal(2)
        for rng in keyed_generators(3, range(3)):
            rng.standard_normal(2)
        substream(3, "test.sampling", 2, 0).standard_normal(2)
        assert search_nonsquared_counterexample(seed=42, budget=100000) is not None

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("word", [0, 2**63, 2**64 - 1])
    def test_fresh_state_is_that_of_a_keyed_philox(self, seed, word):
        fresh = np.random.Philox(key=np.array([seed, word], dtype=np.uint64))
        want = fresh.state
        first = keyed_generator(seed, word)
        # re-keyed after a draw that leaves half a word buffered
        rngs = keyed_generators(seed, [1, word])
        next(rngs).integers(0, 2**32, size=1)
        rekeyed = next(rngs)
        for rng in (first, rekeyed):
            got = rng.bit_generator.state
            assert got.keys() == want.keys() and got["state"].keys() == want["state"].keys()
            assert got["bit_generator"] == want["bit_generator"]
            arrays = [(got["state"][name], want["state"][name]) for name in ("counter", "key")]
            for value, expected in (*arrays, (got["buffer"], want["buffer"])):
                assert value.dtype == expected.dtype
                np.testing.assert_array_equal(value, expected)
            for name in ("buffer_pos", "has_uint32", "uinteger"):
                assert got[name] == want[name]
        expected = np.random.Generator(fresh).standard_normal(5)
        np.testing.assert_array_equal(first.standard_normal(5), expected)
        np.testing.assert_array_equal(next(keyed_generators(seed, [word])).standard_normal(5), expected)

    def test_import_loads_no_numpy_random(self):
        # numpy loads numpy.random lazily; a module-level generator or
        # SeedSequence would add it to every interpreter start
        package_dir = os.path.dirname(os.path.dirname(raygeo.__file__))
        path = os.pathsep.join(filter(None, [package_dir, os.environ.get("PYTHONPATH")]))
        code = "import sys, raygeo; from raygeo import lawcheck; lawcheck.registry(); print('numpy.random' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_generators_reject_seed_before_any_draw(self, seed):
        with pytest.raises(ValueError, match="seed must lie"):
            next(keyed_generators(seed, [0, 1]))

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
        f = RegularMap(np.eye(3))
        with pytest.raises(ValueError, match="seed must lie"):
            call(seed, f)

    @pytest.mark.parametrize("seed", [1.5, 2.7, True, "1"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda seed, f: search_nonsquared_counterexample(seed=seed, budget=1000),
            lambda seed, f: preserves_superpositions(f, seed=seed),
        ],
        ids=["search", "preserves_superpositions"],
    )
    def test_non_integer_seed_rejected(self, call, seed):
        # the Philox key would truncate a fractional seed
        with pytest.raises(ValueError, match="seed must be an integer"):
            call(seed, RegularMap(np.eye(3)))
