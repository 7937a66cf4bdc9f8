"""Communication-efficiency subsystem: pluggable update codecs.

Every model that crosses the costed channel (server broadcast/collect,
async sends, ring peer hops) can be routed through an
:class:`~repro.compression.base.UpdateCodec`: the codec turns a flat
weight vector into an :class:`~repro.compression.base.Encoded` payload
with an exact on-wire byte size, and the *decoded* (possibly lossy)
vector is what training and aggregation actually consume.  Transfer time
and byte metering shrink with the payload, so time-to-accuracy shows
precisely what compression buys under a bandwidth-bound environment.

Codecs register by name (the shared :mod:`repro.utils.registry` contract)
and are selected per experiment via ``ExperimentSpec.codec`` / ``codec_kwargs``:

>>> from repro.compression import make_codec
>>> codec = make_codec("topk", fraction=0.1)

``none`` (the default) is a true identity: the channel fast-paths around
it, so existing runs stay bit-for-bit unchanged.
"""

from repro.compression.base import Encoded, UpdateCodec
from repro.compression.codecs import (
    DeltaCodec,
    IdentityCodec,
    QSGDCodec,
    TopKCodec,
)
from repro.compression.registry import CODECS, make_codec, register_codec

__all__ = [
    "Encoded",
    "UpdateCodec",
    "IdentityCodec",
    "TopKCodec",
    "QSGDCodec",
    "DeltaCodec",
    "CODECS",
    "register_codec",
    "make_codec",
]
