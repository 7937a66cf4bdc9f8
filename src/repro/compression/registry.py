"""Named update codecs: the sweepable compression axis.

``CODECS`` is one :class:`~repro.utils.registry.Registry` (see that module
for the shared contract); :func:`make_codec` instantiates a codec with
keyword overrides — the ``ExperimentSpec.codec_kwargs`` / ``--topk-frac``
path.
"""

from __future__ import annotations

from repro.utils.registry import Registry

__all__ = ["CODECS", "register_codec", "make_codec"]

CODECS = Registry("codec", kwargs_field="codec_kwargs")
register_codec = CODECS.register
make_codec = CODECS.make
