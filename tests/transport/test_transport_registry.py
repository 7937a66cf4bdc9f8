"""What is transport-specific about the ``TRANSPORTS`` registry.

The shared register / look-up / fail-early contract is asserted for every
kind in ``tests/utils/test_registry_contract.py``.
"""

import pytest

from repro.transport import (
    TRANSPORTS,
    LiveTransport,
    SimTransport,
    Transport,
    make_transport,
)


class TestRegistry:
    def test_bundled_backends_registered(self):
        assert TRANSPORTS.names() == ["live", "sim"]

    def test_make_transport_builds_each(self):
        assert isinstance(make_transport("sim"), SimTransport)
        assert isinstance(make_transport("live"), LiveTransport)

    def test_unknown_transport_lists_known(self):
        with pytest.raises(ValueError, match="known.*live.*sim"):
            make_transport("carrier_pigeon")

    def test_bad_kwargs_fail_with_transport_name(self):
        with pytest.raises(ValueError, match="transport 'live'"):
            make_transport("live", warp_factor=9)

    def test_kwargs_land_on_the_instance(self):
        t = make_transport("live", workers=5, round_timeout=1.5)
        assert t.workers == 5 and t.round_timeout == 1.5

    def test_live_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="worker"):
            make_transport("live", workers=0)

    def test_describe_falls_back_to_name(self):
        t = Transport()
        assert t.describe() == "base"
        assert "bit-identical" in SimTransport().describe()


class TestDefaults:
    def test_sim_is_the_simulated_default(self):
        assert SimTransport().stats() == {}

    def test_base_hooks_unimplemented(self):
        t = Transport()
        with pytest.raises(NotImplementedError):
            t.train_round(None, [], None, None, 0, None)
        with pytest.raises(NotImplementedError):
            t.downlink(None, None, None, None)
        with pytest.raises(NotImplementedError):
            t.uplink(None, [], None, None)

    def test_lifecycle_noops(self):
        t = SimTransport()
        t.bind(server=None, spec=None)
        t.validate_spec(None)
        t.start()
        t.shutdown()
