"""The bundled codecs: none, topk, qsgd, delta.

All reference-based codecs share one convention: with no shared
reference yet (first contact on a stream, or a lossy broadcast that left
some receiver without the round's view) they emit a dense lossless
payload via :meth:`UpdateCodec.dense_encode` — correctness never depends
on the compression schedule.  Sparse payloads carry a 4-byte length
header; every byte count below is exact for the stated wire format.
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from repro.compression.base import DENSE_BYTES_PER_COORD, Encoded, UpdateCodec
from repro.compression.registry import register_codec

__all__ = ["IdentityCodec", "TopKCodec", "QSGDCodec", "DeltaCodec"]

#: Sparse wire format: 4-byte entry count, then per kept coordinate an
#: int32 index (4 B) plus the value (float32 for lossy top-k, float64
#: for the lossless delta codec).
_SPARSE_HEADER_BYTES = 4
_INDEX_BYTES = 4


@register_codec("none", "identity: dense float64 payloads, zero transform")
class IdentityCodec(UpdateCodec):
    """The default codec: payloads cross the wire untouched.

    ``decode(encode(v))`` returns ``v`` itself (same object), and
    :meth:`transmit` skips both calls, so ``codec="none"`` is
    bit-identical to runs that predate the compression subsystem.
    """

    name = "none"
    is_identity = True
    description = "dense float64 payloads (1.0 model units), no transform"

    def encode(
        self,
        vec: np.ndarray,
        key: Hashable | None = None,
        reference: np.ndarray | None = None,
    ) -> Encoded:
        vec = np.asarray(vec, dtype=np.float64)
        return Encoded(vec, vec.size, DENSE_BYTES_PER_COORD * vec.size)

    def decode(self, enc: Encoded) -> np.ndarray:
        return enc.payload

    def transmit(
        self,
        vec: np.ndarray,
        key: Hashable | None = None,
        reference: np.ndarray | None = None,
    ) -> tuple[None, np.ndarray, float]:
        return None, vec, 1.0


@register_codec(
    "topk", "magnitude top-k sparsification with per-stream error feedback"
)
class TopKCodec(UpdateCodec):
    """Keep the ``fraction`` largest-magnitude coordinates of the delta.

    The classic sparsified-SGD compressor: the update against the shared
    reference is sparsified to its top-k coordinates by magnitude; what
    was *not* sent accumulates in a per-stream residual and is added to
    the next delta before selection (error feedback), so every
    coordinate's contribution eventually ships — conservation law:
    ``sent + new_residual == delta + old_residual`` per encode.

    Wire format per update: header + k x (int32 index, float32 value),
    i.e. ``4 + 8k`` bytes ≈ ``fraction`` dense model units.
    """

    name = "topk"
    description = "top-k sparsified deltas + error-feedback residual"

    def __init__(
        self, fraction: float = 0.1, error_feedback: bool = True, seed: int = 0
    ) -> None:
        super().__init__(seed)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)
        self.error_feedback = bool(error_feedback)
        self._residuals: dict[Hashable, np.ndarray] = {}

    def encode(
        self,
        vec: np.ndarray,
        key: Hashable | None = None,
        reference: np.ndarray | None = None,
    ) -> Encoded:
        vec = np.asarray(vec, dtype=np.float64)
        if reference is None:
            return self.dense_encode(vec)
        delta = vec - reference
        track = self.error_feedback and key is not None
        if track:
            residual = self._residuals.get(key)
            if residual is not None:
                delta = delta + residual
        dim = delta.size
        k = max(1, int(round(self.fraction * dim)))
        if k >= dim:
            idx = np.arange(dim, dtype=np.int32)
        else:
            part = np.argpartition(np.abs(delta), dim - k)[dim - k:]
            idx = np.sort(part).astype(np.int32)
        values = delta[idx].astype(np.float32)
        if track:
            residual = delta.copy()
            residual[idx] -= values.astype(np.float64)
            self._residuals[key] = residual
        nbytes = _SPARSE_HEADER_BYTES + (_INDEX_BYTES + 4) * k
        return Encoded(("topk", idx, values), dim, nbytes, reference)

    def decode(self, enc: Encoded) -> np.ndarray:
        kind = enc.payload[0]
        if kind == "dense":
            return enc.payload[1]
        _, idx, values = enc.payload
        out = enc.reference.copy()
        out[idx] += values.astype(np.float64)
        return out

    def reset(self) -> None:
        self._residuals.clear()

    def residual(self, key: Hashable) -> np.ndarray | None:
        """Stream ``key``'s accumulated unsent mass (tests/diagnostics)."""
        return self._residuals.get(key)

    def describe(self) -> str:
        return (
            f"{self.description} (fraction={self.fraction:g}, "
            f"error_feedback={self.error_feedback})"
        )


@register_codec(
    "qsgd", "stochastic uniform quantization of deltas at `bits` bits"
)
class QSGDCodec(UpdateCodec):
    """QSGD-style stochastic uniform quantization of the delta.

    Coordinates are scaled by the delta's max magnitude into
    ``2**bits - 1`` uniform levels and rounded *stochastically* — up with
    probability equal to the fractional part — making the decoded delta
    an unbiased estimate of the true one.  The randomness is the codec's
    own persistent generator seeded at construction: the simulator calls
    encode in a deterministic order, so runs reproduce exactly for a
    fixed seed without touching any training rng stream.

    Wire format: 8-byte scale + ``bits + 1`` bits per coordinate (sign +
    magnitude level), i.e. ``8 + ceil(dim * (bits + 1) / 8)`` bytes.
    """

    name = "qsgd"
    description = "stochastic uniform quantization of deltas"

    def __init__(self, bits: int = 4, seed: int = 0) -> None:
        super().__init__(seed)
        if not 1 <= int(bits) <= 16:
            raise ValueError(f"bits must be in [1, 16], got {bits}")
        self.bits = int(bits)
        self._levels = 2**self.bits - 1
        self._rng = np.random.default_rng(np.random.SeedSequence(self.seed))

    def _wire_bytes(self, dim: int) -> int:
        return 8 + math.ceil(dim * (self.bits + 1) / 8)

    def encode(
        self,
        vec: np.ndarray,
        key: Hashable | None = None,
        reference: np.ndarray | None = None,
    ) -> Encoded:
        vec = np.asarray(vec, dtype=np.float64)
        if reference is None:
            return self.dense_encode(vec)
        delta = vec - reference
        dim = delta.size
        nbytes = self._wire_bytes(dim)
        scale = float(np.abs(delta).max()) if dim else 0.0
        if scale == 0.0:
            return Encoded(("qsgd", 0.0, None, None), dim, nbytes, reference)
        scaled = np.abs(delta) * (self._levels / scale)
        floor = np.floor(scaled)
        levels = (floor + (self._rng.random(dim) < scaled - floor)).astype(
            np.int32
        )
        signs = np.where(delta < 0.0, -1.0, 1.0)
        return Encoded(("qsgd", scale, levels, signs), dim, nbytes, reference)

    def decode(self, enc: Encoded) -> np.ndarray:
        kind = enc.payload[0]
        if kind == "dense":
            return enc.payload[1]
        _, scale, levels, signs = enc.payload
        if scale == 0.0:
            return enc.reference.copy()
        delta = signs * (levels * (scale / self._levels))
        return enc.reference + delta

    def reset(self) -> None:
        self._rng = np.random.default_rng(np.random.SeedSequence(self.seed))

    def describe(self) -> str:
        return f"{self.description} (bits={self.bits})"


@register_codec(
    "delta", "lossless sparse encoding against the last acknowledged model"
)
class DeltaCodec(UpdateCodec):
    """Send only the coordinates that changed since the reference, exactly.

    Stores the changed coordinates' *absolute* values (float64), not
    their differences, so decode reproduces the input bit-for-bit:
    unchanged coordinates come from the shared reference, changed ones
    from the payload.  Falls back to a dense payload whenever the sparse
    form (``4 + 12 * nnz`` bytes) would not actually be smaller — a
    short local run touches most coordinates, so this codec pays off for
    sparse updates (few-epoch rounds, frozen layers), never costs more
    than dense, and is always lossless.
    """

    name = "delta"
    description = "lossless sparse diff vs the last acknowledged model"

    def encode(
        self,
        vec: np.ndarray,
        key: Hashable | None = None,
        reference: np.ndarray | None = None,
    ) -> Encoded:
        vec = np.asarray(vec, dtype=np.float64)
        if reference is None:
            return self.dense_encode(vec)
        changed = np.flatnonzero(vec != reference)
        nbytes = _SPARSE_HEADER_BYTES + (_INDEX_BYTES + 8) * changed.size
        if nbytes >= DENSE_BYTES_PER_COORD * vec.size:
            return self.dense_encode(vec)
        payload = ("delta", changed.astype(np.int32), vec[changed].copy())
        return Encoded(payload, vec.size, nbytes, reference)

    def decode(self, enc: Encoded) -> np.ndarray:
        kind = enc.payload[0]
        if kind == "dense":
            return enc.payload[1]
        _, idx, values = enc.payload
        out = enc.reference.copy()
        out[idx] = values
        return out
