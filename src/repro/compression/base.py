"""The UpdateCodec interface: what any update compressor must provide.

An update codec maps a flat float64 weight vector to an
:class:`Encoded` payload — carrying its exact on-wire byte count — and
back.  The decode may be lossy (top-k, quantization); the channel layer
feeds the *decoded* vector to whoever would have received the original,
so compression error propagates into training exactly as it would in a
real deployment.

Two pieces of per-stream state make the interface richer than a pure
function:

* **reference** — most codecs compress the *difference* against a model
  both endpoints already share (the last decoded broadcast, the round's
  start view).  ``encode(vec, reference=ref)`` compresses ``vec - ref``;
  ``decode`` reconstructs ``ref + delta``.  When no reference exists yet
  (first contact on a stream) reference-based codecs fall back to a
  dense lossless payload, which *establishes* the reference chain.
* **key** — an opaque per-stream identity (a device id, ``"server-down"``,
  ``("peer", dev_id)``).  Codecs with per-stream state — top-k's
  error-feedback residual — index it by this key so independent streams
  never share residuals.

Model units: the channel meters transfers in *models* (the paper's
Table 1 unit).  ``Encoded.model_units`` is ``nbytes / (8 * dim)`` — the
payload's size as a fraction of one dense float64 model — so transfer
times (``latency + units / bandwidth``) and the meter shrink by exactly
the compression ratio.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

__all__ = [
    "DENSE_BYTES_PER_COORD",
    "PAYLOAD_KINDS",
    "PAYLOAD_KIND_CODES",
    "Encoded",
    "UpdateCodec",
]

#: A dense coordinate on the wire: one float64.
DENSE_BYTES_PER_COORD = 8

#: Wire codes for every payload kind an :class:`Encoded` can carry.  The
#: kind is *out-of-band* metadata (the live transport's frame header, not
#: the payload), so ``len(to_bytes()) == nbytes`` holds exactly — the
#: byte accounting the simulator charges IS the datagram payload size.
#: ``raw`` is the identity codec's bare ndarray payload; ``dense`` the
#: reference-free fallback every codec shares; the rest are codec-private.
PAYLOAD_KIND_CODES: dict[str, int] = {
    "raw": 0,
    "dense": 1,
    "topk": 2,
    "qsgd": 3,
    "delta": 4,
}
PAYLOAD_KINDS: dict[int, str] = {v: k for k, v in PAYLOAD_KIND_CODES.items()}


@dataclass
class Encoded:
    """One encoded update: the payload plus its exact wire size.

    ``payload`` is codec-private (only the producing codec's ``decode``
    reads it); ``dim`` is the flat model dimension; ``nbytes`` the exact
    on-wire byte count; ``reference`` the shared vector the payload was
    encoded against (None for self-contained payloads).
    """

    payload: Any
    dim: int
    nbytes: int
    reference: np.ndarray | None = None

    @property
    def model_units(self) -> float:
        """Wire size in dense-model units — what the channel meters."""
        return self.nbytes / (DENSE_BYTES_PER_COORD * self.dim)

    @property
    def kind(self) -> str:
        """Payload kind tag (see :data:`PAYLOAD_KIND_CODES`): ``"raw"``
        for a bare ndarray payload (identity codec), the payload tuple's
        leading tag otherwise."""
        if isinstance(self.payload, np.ndarray):
            return "raw"
        return self.payload[0]

    @property
    def param(self) -> int:
        """Codec parameter a receiver needs to parse the payload bytes:
        QSGD's bit width (its bit-packed wire format is ambiguous without
        it); zero for every self-describing kind."""
        if self.kind == "qsgd":
            _, scale, levels, _ = self.payload
            if levels is not None:
                # Levels fit in `bits` bits; recover the width from the
                # byte budget: nbytes = 8 + ceil(dim * (bits + 1) / 8).
                payload_bits = (self.nbytes - 8) * 8
                return max(1, payload_bits // self.dim - 1) if self.dim else 1
            # Zero-scale payload: same formula, levels never materialized.
            return max(1, (self.nbytes - 8) * 8 // self.dim - 1) if self.dim else 1
        return 0

    def to_bytes(self) -> bytes:
        """Exact wire serialization of the payload.

        Invariant (asserted by the codec tests and exercised for real by
        the live UDP transport): ``len(enc.to_bytes()) == enc.nbytes`` for
        every codec — the accounting the simulator charges is the byte
        string that actually crosses the wire.  The payload *kind*, the
        model ``dim`` and the qsgd bit width travel out-of-band (frame
        header fields), which is what keeps dense payloads header-free.
        """
        kind = self.kind
        if kind == "raw":
            return np.ascontiguousarray(self.payload, dtype=np.float64).tobytes()
        if kind == "dense":
            return np.ascontiguousarray(self.payload[1], dtype=np.float64).tobytes()
        if kind == "topk":
            _, idx, values = self.payload
            head = struct.pack("!I", idx.size)
            return head + idx.astype("<i4").tobytes() + values.astype("<f4").tobytes()
        if kind == "delta":
            _, idx, values = self.payload
            head = struct.pack("!I", idx.size)
            return head + idx.astype("<i4").tobytes() + values.astype("<f8").tobytes()
        if kind == "qsgd":
            _, scale, levels, signs = self.payload
            bits = self.param
            body_len = self.nbytes - 8
            head = struct.pack("!d", float(scale))
            if scale == 0.0 or levels is None:
                return head + bytes(body_len)
            # Per coordinate: 1 sign bit then `bits` magnitude bits, MSB
            # first; np.packbits pads the tail to a byte boundary.
            cols = [np.asarray(signs) < 0.0]
            lv = np.asarray(levels).astype(np.uint32)
            cols.extend(((lv >> (bits - 1 - b)) & 1).astype(bool)
                        for b in range(bits))
            mat = np.stack(cols, axis=1).astype(np.uint8)
            packed = np.packbits(mat.reshape(-1))
            return head + packed.tobytes() + bytes(body_len - packed.size)
        raise ValueError(f"unknown payload kind {kind!r}")

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        kind: str,
        dim: int,
        reference: np.ndarray | None = None,
        param: int = 0,
    ) -> "Encoded":
        """Inverse of :meth:`to_bytes`.

        ``kind``/``dim``/``param`` are the out-of-band header fields;
        ``reference`` re-attaches the receiver's copy of the shared
        reference model so the producing codec's ``decode`` works
        unchanged.  Round-trip contract: for any codec ``c`` and encoded
        ``e``, ``c.decode(Encoded.from_bytes(e.to_bytes(), e.kind, e.dim,
        ref, e.param))`` equals ``c.decode(e)`` bit-for-bit.
        """
        nbytes = len(data)
        if kind in ("raw", "dense"):
            vec = np.frombuffer(data, dtype=np.float64).copy()
            if vec.size != dim:
                raise ValueError(
                    f"dense payload has {vec.size} coords, expected {dim}"
                )
            payload = vec if kind == "raw" else ("dense", vec)
            return cls(payload, dim, nbytes, reference)
        if kind in ("topk", "delta"):
            (count,) = struct.unpack_from("!I", data)
            idx_end = 4 + 4 * count
            vdtype, vsize = ("<f4", 4) if kind == "topk" else ("<f8", 8)
            if nbytes != idx_end + vsize * count:
                raise ValueError(
                    f"{kind} payload length {nbytes} does not match "
                    f"count {count}"
                )
            idx = np.frombuffer(data, dtype="<i4", count=count, offset=4).copy()
            values = np.frombuffer(
                data, dtype=vdtype, count=count, offset=idx_end
            ).copy()
            if kind == "topk":
                return cls(("topk", idx, values.astype(np.float32)), dim,
                           nbytes, reference)
            return cls(("delta", idx, values.astype(np.float64)), dim,
                       nbytes, reference)
        if kind == "qsgd":
            bits = int(param)
            if bits < 1:
                raise ValueError(f"qsgd payload needs its bit width, got {param}")
            if nbytes != 8 + math.ceil(dim * (bits + 1) / 8):
                raise ValueError(
                    f"qsgd payload length {nbytes} does not match "
                    f"dim={dim}, bits={bits}"
                )
            (scale,) = struct.unpack_from("!d", data)
            if scale == 0.0:
                return cls(("qsgd", 0.0, None, None), dim, nbytes, reference)
            flat = np.unpackbits(
                np.frombuffer(data, dtype=np.uint8, offset=8),
                count=dim * (bits + 1),
            )
            mat = flat.reshape(dim, bits + 1)
            signs = np.where(mat[:, 0] == 1, -1.0, 1.0)
            weights = (1 << np.arange(bits - 1, -1, -1)).astype(np.int64)
            levels = (mat[:, 1:].astype(np.int64) @ weights).astype(np.int32)
            return cls(("qsgd", float(scale), levels, signs), dim, nbytes,
                       reference)
        raise ValueError(f"unknown payload kind {kind!r}")


class UpdateCodec:
    """Base class: identity semantics hooks plus the encode/decode pair.

    Subclasses set ``name`` (the registry key) and implement
    :meth:`encode`/:meth:`decode`.  ``is_identity`` lets the channel
    fast-path the default codec with zero overhead (and bit-identical
    behavior); it is False for everything that actually transforms the
    payload — including lossless sparse codecs, whose *byte counts*
    differ even though values round-trip exactly.
    """

    name = "base"
    is_identity = False
    description = ""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def encode(
        self,
        vec: np.ndarray,
        key: Hashable | None = None,
        reference: np.ndarray | None = None,
    ) -> Encoded:
        """Compress ``vec`` (optionally against ``reference``) for stream
        ``key``.  Must never mutate ``vec`` or ``reference``."""
        raise NotImplementedError

    def decode(self, enc: Encoded) -> np.ndarray:
        """Reconstruct the (possibly lossy) vector the receiver sees.

        The result must be safe for the receiver to keep: either a fresh
        array or an alias of an array nobody mutates (identity payloads
        follow the server's replace-never-mutate contract).
        """
        raise NotImplementedError

    def transmit(
        self,
        vec: np.ndarray,
        key: Hashable | None = None,
        reference: np.ndarray | None = None,
    ) -> tuple[Encoded | None, np.ndarray, float]:
        """One trip across a link: ``(enc, view, units)``.

        Encodes ``vec`` for stream ``key`` against ``reference`` and
        decodes what the receiver reconstructs — ``view`` — plus the wire
        size in model units.  Every channel crossing (broadcast, upload,
        per-link send, ring hop) goes through this one round-trip; the
        identity codec returns ``(None, vec, 1.0)`` without touching
        ``vec``.
        """
        enc = self.encode(vec, key=key, reference=reference)
        return enc, self.decode(enc), enc.model_units

    def dense_encode(self, vec: np.ndarray) -> Encoded:
        """Lossless dense fallback — the no-shared-reference escape hatch."""
        vec = np.asarray(vec, dtype=np.float64)
        return Encoded(("dense", vec), vec.size, DENSE_BYTES_PER_COORD * vec.size)

    def reset(self) -> None:
        """Drop per-stream state (residuals, rng); a fresh-run hook."""

    def describe(self) -> str:
        """One-line summary for ``repro list codecs``."""
        return self.description or self.name
