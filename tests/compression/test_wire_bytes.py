"""Encoded.to_bytes/from_bytes: the wire form IS the charged byte count.

The live transport ships ``Encoded.to_bytes()`` as its datagram payload,
so these tests pin the contract the sim/live byte ledgers share: for
every codec, ``len(to_bytes()) == nbytes`` exactly, and decoding a
payload that round-tripped through bytes is bit-identical to decoding
the original object.
"""

import numpy as np
import pytest

from repro.compression import (
    CODECS,
    DeltaCodec,
    Encoded,
    IdentityCodec,
    QSGDCodec,
    TopKCodec,
    make_codec,
)
from repro.compression.base import PAYLOAD_KIND_CODES, PAYLOAD_KINDS


def vecs(dim=200, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=dim), rng.normal(size=dim)


def round_trip(codec, enc):
    """Decode the byte-round-tripped payload next to the original."""
    data = enc.to_bytes()
    assert len(data) == enc.nbytes, (
        f"{codec.name}: to_bytes produced {len(data)} bytes "
        f"but nbytes charges {enc.nbytes}"
    )
    clone = Encoded.from_bytes(
        data, enc.kind, enc.dim, reference=enc.reference, param=enc.param
    )
    a = codec.decode(enc)
    b = codec.decode(clone)
    np.testing.assert_array_equal(a, b)
    return clone


class TestKindTable:
    def test_codes_round_trip(self):
        for kind, code in PAYLOAD_KIND_CODES.items():
            assert PAYLOAD_KINDS[code] == kind

    def test_every_bundled_codec_kind_is_coded(self):
        assert set(PAYLOAD_KIND_CODES) == {"raw", "dense", "topk", "qsgd", "delta"}


class TestPerCodec:
    def test_identity_raw_payload(self):
        codec = IdentityCodec()
        vec, _ = vecs()
        enc = codec.encode(vec)
        assert enc.kind == "raw" and enc.param == 0
        clone = round_trip(codec, enc)
        np.testing.assert_array_equal(clone.payload, vec)

    def test_dense_fallback_payload(self):
        codec = TopKCodec()
        vec, _ = vecs()
        enc = codec.encode(vec)  # no reference -> dense fallback
        assert enc.kind == "dense"
        round_trip(codec, enc)

    def test_topk_sparse_payload(self):
        codec = TopKCodec(fraction=0.1)
        vec, ref = vecs()
        enc = codec.encode(vec, key=1, reference=ref)
        assert enc.kind == "topk" and enc.nbytes == 4 + 8 * 20
        round_trip(codec, enc)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 11])
    def test_qsgd_bitpacked_payload(self, bits):
        codec = QSGDCodec(bits=bits, seed=3)
        vec, ref = vecs(dim=173)
        enc = codec.encode(vec, key=1, reference=ref)
        assert enc.kind == "qsgd" and enc.param == bits
        round_trip(codec, enc)

    def test_qsgd_zero_scale_payload(self):
        codec = QSGDCodec(bits=4)
        _, ref = vecs()
        enc = codec.encode(ref.copy(), key=1, reference=ref)  # delta == 0
        assert enc.kind == "qsgd" and enc.payload[1] == 0.0
        round_trip(codec, enc)

    def test_delta_sparse_payload(self):
        codec = DeltaCodec()
        _, ref = vecs()
        vec = ref.copy()
        vec[[3, 50, 199]] += 1.0
        enc = codec.encode(vec, key=1, reference=ref)
        assert enc.kind == "delta" and enc.nbytes == 4 + 12 * 3
        clone = round_trip(codec, enc)
        # Lossless codec: the decode equals the input bit-for-bit.
        np.testing.assert_array_equal(codec.decode(clone), vec)

    def test_delta_dense_when_everything_changed(self):
        codec = DeltaCodec()
        vec, ref = vecs()
        enc = codec.encode(vec, key=1, reference=ref)
        assert enc.kind == "dense"
        round_trip(codec, enc)


class TestEveryRegisteredCodec:
    @pytest.mark.parametrize("name", sorted(c for c in ["none", "topk", "qsgd", "delta"]))
    def test_wire_length_matches_nbytes(self, name):
        assert name in CODECS
        codec = make_codec(name, seed=7)
        vec, ref = vecs(dim=301, seed=9)
        for enc in (codec.encode(vec), codec.encode(vec, key=5, reference=ref)):
            round_trip(codec, enc)


class TestFromBytesValidation:
    def test_dense_length_mismatch(self):
        with pytest.raises(ValueError, match="coords"):
            Encoded.from_bytes(b"\0" * 16, "raw", dim=3)

    def test_topk_length_mismatch(self):
        import struct
        data = struct.pack("!I", 5) + b"\0" * 10
        with pytest.raises(ValueError, match="count"):
            Encoded.from_bytes(data, "topk", dim=100)

    def test_qsgd_needs_bit_width(self):
        with pytest.raises(ValueError, match="bit width"):
            Encoded.from_bytes(b"\0" * 16, "qsgd", dim=8, param=0)

    def test_qsgd_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            Encoded.from_bytes(b"\0" * 9, "qsgd", dim=100, param=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown payload kind"):
            Encoded.from_bytes(b"", "morse", dim=0)
