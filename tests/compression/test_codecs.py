"""Unit and property tests for the update codecs themselves.

Every claim the compression layer's correctness rests on is asserted
here: exact wire-byte formulas, top-k's error-feedback conservation law,
QSGD's unbiasedness and seed-reproducibility, and the delta codec's
bit-exact round-trip.
"""

import numpy as np
import pytest

from repro.compression import (
    DeltaCodec,
    Encoded,
    IdentityCodec,
    QSGDCodec,
    TopKCodec,
    CODECS,
    make_codec,
    register_codec,
)
from repro.compression.base import DENSE_BYTES_PER_COORD, UpdateCodec


def rand_vec(dim=200, seed=0):
    return np.random.default_rng(seed).normal(size=dim)


class TestRegistry:
    def test_all_bundled_codecs_registered(self):
        assert CODECS.names() == ["delta", "none", "qsgd", "topk"]

    def test_make_codec_builds_each(self):
        for name in CODECS:
            codec = make_codec(name)
            assert isinstance(codec, UpdateCodec)
            assert codec.name == name

    def test_unknown_codec_lists_known(self):
        with pytest.raises(ValueError, match="delta.*none.*qsgd.*topk"):
            make_codec("gzip")

    def test_bad_kwargs_fail_early(self):
        with pytest.raises(ValueError, match="bad codec_kwargs"):
            make_codec("none", fraction=0.1)

    def test_kwargs_forwarded(self):
        codec = make_codec("topk", fraction=0.25, seed=3)
        assert codec.fraction == 0.25
        assert codec.seed == 3

    def test_register_codec_is_the_registry(self):
        # Name, duplicate and blurb rules: tests/utils/test_registry_contract.py.
        assert register_codec == CODECS.register
        assert "error feedback" in CODECS["topk"].description


class TestEncoded:
    def test_model_units_is_byte_fraction(self):
        enc = Encoded(payload=None, dim=100, nbytes=200)
        assert enc.model_units == 200 / (DENSE_BYTES_PER_COORD * 100)

    def test_dense_is_exactly_one_unit(self):
        vec = rand_vec(64)
        enc = IdentityCodec().encode(vec)
        assert enc.model_units == 1.0


class TestIdentity:
    def test_decode_returns_same_object(self):
        vec = rand_vec()
        codec = IdentityCodec()
        assert codec.decode(codec.encode(vec)) is vec

    def test_is_identity_flag(self):
        assert IdentityCodec().is_identity
        for name in ("topk", "qsgd", "delta"):
            assert not make_codec(name).is_identity


class TestTopK:
    def test_wire_bytes_formula(self):
        codec = TopKCodec(fraction=0.1)
        ref = np.zeros(200)
        enc = codec.encode(rand_vec(200), key=1, reference=ref)
        k = 20
        assert enc.nbytes == 4 + 8 * k
        assert enc.model_units == pytest.approx((4 + 8 * k) / (8 * 200))

    def test_keeps_largest_magnitudes(self):
        codec = TopKCodec(fraction=0.05, error_feedback=False)
        ref = np.zeros(100)
        vec = np.arange(100, dtype=np.float64)
        enc = codec.encode(vec, key=1, reference=ref)
        _, idx, values = enc.payload
        assert list(idx) == [95, 96, 97, 98, 99]
        decoded = codec.decode(enc)
        np.testing.assert_allclose(decoded[95:], vec[95:], rtol=1e-6)
        np.testing.assert_array_equal(decoded[:95], 0.0)

    def test_error_feedback_conservation(self):
        """sent + new_residual == delta + old_residual, per encode."""
        codec = TopKCodec(fraction=0.1, seed=0)
        ref = rand_vec(300, seed=1)
        for step in range(5):
            vec = ref + rand_vec(300, seed=10 + step) * 0.1
            old_residual = codec.residual("dev")
            carried = (vec - ref) + (
                old_residual if old_residual is not None else 0.0
            )
            enc = codec.encode(vec, key="dev", reference=ref)
            sent = codec.decode(enc) - ref
            np.testing.assert_allclose(
                sent + codec.residual("dev"), carried, atol=1e-12
            )

    def test_error_feedback_ships_everything_on_average(self):
        """Repeatedly encoding one constant delta: the mean applied
        update converges to it — feedback keeps the residual bounded, so
        no coordinate's contribution is lost, only delayed."""
        codec = TopKCodec(fraction=0.2)
        ref = np.zeros(50)
        target = rand_vec(50, seed=2)
        applied = np.zeros(50)
        n = 80
        for _ in range(n):
            enc = codec.encode(ref + target, key=0, reference=ref)
            applied += codec.decode(enc) - ref
        scale = np.abs(target).max()
        np.testing.assert_allclose(applied / n, target, atol=0.15 * scale)
        assert np.abs(codec.residual(0)).max() < 10 * scale

    def test_streams_have_independent_residuals(self):
        codec = TopKCodec(fraction=0.1)
        ref = np.zeros(100)
        codec.encode(rand_vec(100, seed=3), key="a", reference=ref)
        assert codec.residual("a") is not None
        assert codec.residual("b") is None

    def test_no_reference_goes_dense(self):
        codec = TopKCodec(fraction=0.1)
        vec = rand_vec()
        enc = codec.encode(vec, key=1)
        assert enc.model_units == 1.0
        np.testing.assert_array_equal(codec.decode(enc), vec)

    def test_reset_clears_residuals(self):
        codec = TopKCodec(fraction=0.1)
        codec.encode(rand_vec(), key=1, reference=np.zeros(200))
        codec.reset()
        assert codec.residual(1) is None

    def test_bad_fraction_rejected(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                TopKCodec(fraction=bad)


class TestQSGD:
    def test_wire_bytes_formula(self):
        codec = QSGDCodec(bits=4)
        enc = codec.encode(rand_vec(100), key=1, reference=np.zeros(100))
        # 8-byte scale + 5 bits per coordinate.
        assert enc.nbytes == 8 + int(np.ceil(100 * 5 / 8))

    def test_unbiased_under_fixed_seed(self):
        """The stochastic rounding's decoded delta is unbiased in mean."""
        ref = np.zeros(64)
        vec = rand_vec(64, seed=4)
        decoded = np.zeros(64)
        n = 4000
        codec = QSGDCodec(bits=2, seed=0)
        for _ in range(n):
            decoded += codec.decode(codec.encode(vec, key=1, reference=ref))
        mean = decoded / n
        scale = np.abs(vec).max()
        # Std of one estimate is < scale/levels; mean of n shrinks by sqrt(n).
        tol = 5 * (scale / 3) / np.sqrt(n)
        np.testing.assert_allclose(mean, vec, atol=tol)

    def test_seed_reproducible(self):
        ref, vec = np.zeros(128), rand_vec(128, seed=5)

        def run(seed):
            codec = QSGDCodec(bits=3, seed=seed)
            return [
                codec.decode(codec.encode(vec, key=1, reference=ref))
                for _ in range(4)
            ]

        for a, b in zip(run(7), run(7)):
            np.testing.assert_array_equal(a, b)
        assert any(
            not np.array_equal(a, b) for a, b in zip(run(7), run(8))
        )

    def test_zero_delta_decodes_to_reference(self):
        codec = QSGDCodec(bits=4)
        ref = rand_vec(32, seed=6)
        enc = codec.encode(ref, key=1, reference=ref)
        np.testing.assert_array_equal(codec.decode(enc), ref)

    def test_error_bounded_by_one_level(self):
        codec = QSGDCodec(bits=6)
        ref = np.zeros(100)
        vec = rand_vec(100, seed=7)
        decoded = codec.decode(codec.encode(vec, key=1, reference=ref))
        level = np.abs(vec).max() / (2**6 - 1)
        assert np.abs(decoded - vec).max() <= level + 1e-12

    def test_bad_bits_rejected(self):
        for bad in (0, 17, -1):
            with pytest.raises(ValueError, match="bits"):
                QSGDCodec(bits=bad)


class TestDelta:
    def test_round_trip_bit_exact(self):
        codec = DeltaCodec()
        ref = rand_vec(500, seed=8)
        vec = ref.copy()
        vec[::50] += 1e-9  # 10 of 500 coordinates change
        enc = codec.encode(vec, key=1, reference=ref)
        assert enc.nbytes == 4 + 12 * 10
        out = codec.decode(enc)
        assert np.array_equal(out, vec)  # bitwise, not approx

    def test_dense_fallback_when_sparse_larger(self):
        codec = DeltaCodec()
        ref = rand_vec(100, seed=9)
        vec = ref + 1.0  # every coordinate changed
        enc = codec.encode(vec, key=1, reference=ref)
        assert enc.model_units == 1.0
        np.testing.assert_array_equal(codec.decode(enc), vec)

    def test_never_costs_more_than_dense(self):
        codec = DeltaCodec()
        ref = rand_vec(64, seed=10)
        for changed in (0, 1, 32, 64):
            vec = ref.copy()
            vec[:changed] += 1.0
            enc = codec.encode(vec, key=1, reference=ref)
            assert enc.model_units <= 1.0

    def test_unchanged_vector_is_near_free(self):
        codec = DeltaCodec()
        ref = rand_vec(1000, seed=11)
        enc = codec.encode(ref.copy(), key=1, reference=ref)
        assert enc.nbytes == 4
