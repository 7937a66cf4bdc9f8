"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import SeedSequenceFactory, as_generator, spawn_generators


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(42).integers(0, 1000, size=10)
        b = as_generator(42).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 1_000_000, size=20)
        b = as_generator(2).integers(0, 1_000_000, size=20)
        assert not np.array_equal(a, b)

    def test_passthrough_generator_identity(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_zero(self):
        assert spawn_generators(0, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_streams_independent(self):
        gens = spawn_generators(7, 3)
        draws = [g.integers(0, 1_000_000, size=10) for g in gens]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_deterministic_from_seed(self):
        a = [g.integers(0, 100, 5) for g in spawn_generators(3, 2)]
        b = [g.integers(0, 100, 5) for g in spawn_generators(3, 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_spawn_from_generator(self):
        g = np.random.default_rng(0)
        children = spawn_generators(g, 2)
        assert len(children) == 2


class TestSeedSequenceFactory:
    def test_same_key_same_stream(self):
        f = SeedSequenceFactory(1)
        a = f.generator(3, 7).integers(0, 1_000_000, size=10)
        b = f.generator(3, 7).integers(0, 1_000_000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        f = SeedSequenceFactory(1)
        a = f.generator(3, 7).integers(0, 1_000_000, size=10)
        b = f.generator(7, 3).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_key_independent_of_creation_order(self):
        f1 = SeedSequenceFactory(5)
        _ = f1.generator(0)  # consume an unrelated key first
        a = f1.generator(9, 9).integers(0, 1_000_000, size=5)
        f2 = SeedSequenceFactory(5)
        b = f2.generator(9, 9).integers(0, 1_000_000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_roots_differ(self):
        a = SeedSequenceFactory(1).generator(2).integers(0, 1_000_000, size=10)
        b = SeedSequenceFactory(2).generator(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generators_batch(self):
        f = SeedSequenceFactory(0)
        gens = f.generators([(0, 1), (0, 2)])
        assert len(gens) == 2

    def test_negative_root_raises(self):
        with pytest.raises(ValueError):
            SeedSequenceFactory(-1)


_roots = st.one_of(
    st.none(),
    st.just(0),
    st.integers(1, 1000),
    st.integers(2**32, 2**140),
)
_words = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


class TestPcg64States:
    """``pcg64_states`` is the per-call stream derivation the batched
    trainer runs on: it must equal ``generator(*key)`` exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        root=_roots,
        data=st.data(),
        n=st.integers(1, 300),
        width=st.integers(0, 4),
    )
    def test_matches_generator(self, root, data, n, width):
        f = SeedSequenceFactory(root)
        head = data.draw(st.lists(
            st.lists(_words, min_size=width, max_size=width), min_size=1, max_size=8
        ))
        keys = np.array(
            (head + np.random.default_rng(n).integers(0, 2**32, (n, width)).tolist())[:n],
            dtype=np.int64,
        )
        states = f.pcg64_states(keys)
        assert len(states) == n
        gen = np.random.Generator(np.random.PCG64())
        for key, state in zip(keys.tolist(), states):
            ref = f.generator(*key)
            assert state == ref.bit_generator.state
            gen.bit_generator.state = state
            np.testing.assert_array_equal(gen.permutation(n), ref.permutation(n))

    def test_generators_match_generator(self):
        f = SeedSequenceFactory(9)
        keys = [(3, 0, 1), (0, 2**32 - 1, 7)]
        for gen, key in zip(f.generators(keys), keys):
            np.testing.assert_array_equal(
                gen.permutation(50), f.generator(*key).permutation(50)
            )

    @settings(max_examples=20, deadline=None)
    @given(root=_roots, big=st.integers(2**32, 2**62), col=st.integers(0, 2))
    def test_oversized_key_raises(self, root, big, col):
        keys = np.zeros((4, 3), dtype=np.int64)
        keys[2, col] = big
        with pytest.raises(ValueError, match="2\\*\\*32"):
            SeedSequenceFactory(root).pcg64_states(keys)

    def test_negative_key_raises(self):
        with pytest.raises(ValueError):
            SeedSequenceFactory(0).pcg64_states(np.array([[0, -1, 0]]))
