"""Tests for the FederatedServer channel API (broadcast_model/
collect_models/link_send/peer_send).

The channel owns everything the environment does to server↔device traffic:
metering, transfer-time clock charges, message drops and availability
filtering.  Method implementations and transport backends are forbidden
from doing any of it themselves — the last test enforces that at the
source level.
"""

import pathlib
import re

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvgConfig, FedAvgServer
from repro.compression import TopKCodec
from repro.env import (
    BernoulliAvailability,
    Environment,
    NetworkModel,
    TraceAvailability,
)


def make_server(tiny_devices, tiny_split, env=None, **cfg):
    _, test_set = tiny_split
    config = FedAvgConfig(**{"rounds": 2, "local_epochs": 1, **cfg})
    return FedAvgServer(tiny_devices, test_set, config, env=env)


def down(srv, ids, **kwargs):
    """The ids a broadcast of the global model reached."""
    return srv.broadcast_model(ids, srv.global_weights, **kwargs)[0]


def up(srv, ids, **kwargs):
    """The indices into ``ids`` whose uploads arrived."""
    stack = np.zeros((len(ids), srv.trainer.dim))
    return srv.collect_models(ids, stack, **kwargs)[0]


class TestMetering:
    def test_broadcast_meters_sends(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        ids = tiny_devices.device_ids
        got, view = srv.broadcast_model(ids, srv.global_weights)
        assert got is ids  # ideal: everyone receives, no copy
        assert view is srv.global_weights  # identity codec: no copy
        assert srv.meter.server_down == len(tiny_devices)
        assert srv.meter.server_up == 0

    def test_collect_meters_and_returns_all_indices(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        stack = np.zeros((len(tiny_devices), srv.trainer.dim))
        arrived, got = srv.collect_models(tiny_devices.device_ids, stack)
        np.testing.assert_array_equal(arrived, np.arange(len(tiny_devices)))
        assert got is stack  # identity codec: no copy
        assert srv.meter.server_up == len(tiny_devices)

    def test_id_slices_meter_their_length(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        some = tiny_devices.device_ids[2:5]
        np.testing.assert_array_equal(down(srv, some), [2, 3, 4])
        np.testing.assert_array_equal(up(srv, some), [0, 1, 2])
        assert srv.meter.server_down == srv.meter.server_up == 3

    def test_model_units_scale(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        down(srv, tiny_devices.device_ids, extra_units=1.0)
        up(srv, tiny_devices.device_ids, extra_units=1.0)
        assert srv.meter.server_down == 2.0 * len(tiny_devices)
        assert srv.meter.server_up == 2.0 * len(tiny_devices)

    def test_peer_send_meters(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        srv.peer_send(5)
        assert srv.meter.peer == 5

    @pytest.mark.parametrize("env", [
        None,
        Environment(NetworkModel(latency=0.1, bandwidth=2.0, drop_prob=0.5)),
    ])
    def test_empty_calls_are_noops(self, tiny_devices, tiny_split, env):
        srv = make_server(tiny_devices, tiny_split, env=env)
        none = np.empty(0, dtype=np.intp)
        got = down(srv, none)
        arrived = up(srv, none)
        assert got.dtype == arrived.dtype == np.intp
        assert len(got) == len(arrived) == 0
        assert srv.meter.server_total == 0
        assert srv.clock.now == 0.0
        assert srv.dropped_messages == 0
        assert srv._drop_rng is None  # no draw was made

    def test_lost_messages_still_metered(self, tiny_devices, tiny_split):
        """The paper costs transmitted models; a dropped one was transmitted."""
        env = Environment(NetworkModel(drop_prob=0.5))
        srv = make_server(tiny_devices, tiny_split, env=env)
        down(srv, tiny_devices.device_ids)
        assert srv.meter.server_down == len(tiny_devices)


class TestClockCharging:
    def test_ideal_charges_nothing(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        down(srv, tiny_devices.device_ids)
        up(srv, tiny_devices.device_ids)
        assert srv.clock.now == 0.0

    def test_transfer_time_advances_clock(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(latency=0.1, bandwidth=2.0))
        srv = make_server(tiny_devices, tiny_split, env=env)
        down(srv, tiny_devices.device_ids)  # slowest link: 0.1 + 1/2
        assert srv.clock.now == pytest.approx(0.6)
        up(srv, tiny_devices.device_ids, extra_units=1.0)  # 0.1 + 2/2
        assert srv.clock.now == pytest.approx(1.7)

    def test_round_time_includes_transfers(self, tiny_devices, tiny_split):
        """Round wall-clock = down-transfer + compute + up-transfer."""
        env = Environment(NetworkModel(latency=0.25))
        srv = make_server(tiny_devices, tiny_split, env=env, rounds=1)
        result = srv.fit()
        compute = tiny_devices.unit_times.max()
        assert result.history.times[-1] == pytest.approx(compute + 0.5)


class TestDrops:
    def test_drops_reduce_deliveries(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(drop_prob=0.5))
        srv = make_server(tiny_devices, tiny_split, env=env)
        delivered = [len(down(srv, tiny_devices.device_ids)) for _ in range(50)]
        assert min(delivered) < len(tiny_devices)
        assert srv.dropped_messages > 0

    def test_ensure_one_guarantees_progress(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(drop_prob=0.99))
        srv = make_server(tiny_devices, tiny_split, env=env)
        for _ in range(30):
            assert len(down(srv, tiny_devices.device_ids)) >= 1
            assert len(up(srv, tiny_devices.device_ids)) >= 1

    def test_event_level_calls_may_drop_everything(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(drop_prob=0.99))
        srv = make_server(tiny_devices, tiny_split, env=env)
        first = tiny_devices.device_ids[:1]
        outcomes = {len(up(srv, first, ensure_one=False)) for _ in range(50)}
        assert 0 in outcomes

    def test_drop_sequence_reproducible(self, tiny_devices, tiny_split):
        def run():
            env = Environment(NetworkModel(drop_prob=0.4))
            srv = make_server(tiny_devices, tiny_split, env=env)
            return [tuple(up(srv, tiny_devices.device_ids)) for _ in range(10)]

        assert run() == run()

    def test_seeded_drops_pin_the_survivors(self, tiny_devices, tiny_split):
        """Masking the id array makes the draws the object-list channel
        made, in the same order: these survivors are what it delivered."""
        env = Environment(NetworkModel(drop_prob=0.4))
        srv = make_server(tiny_devices, tiny_split, env=env)
        ids = tiny_devices.device_ids
        delivered = [down(srv, ids).tolist() for _ in range(5)]
        arrived = [up(srv, ids).tolist() for _ in range(5)]
        assert delivered == [[1, 2, 4, 5, 6], [0, 3, 5, 6, 7], [1, 3, 4, 5],
                             [0, 4, 5, 6, 7], [0, 1, 2]]
        assert arrived == [[0, 2, 5, 6], [3, 5, 6, 7], [0, 2, 3, 7],
                           list(range(8)), [1, 3, 4, 6]]
        assert srv.dropped_messages == 34

    def test_seeded_ensure_one_survivor(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(drop_prob=0.99))
        srv = make_server(tiny_devices, tiny_split, env=env)
        ids = tiny_devices.device_ids
        delivered = [down(srv, ids).tolist() for _ in range(5)]
        arrived = [up(srv, ids).tolist() for _ in range(5)]
        assert delivered == [[1], [7], [7], [0], [5]]
        assert arrived == [[7], [0], [4], [3], [6]]


class TestAvailability:
    def test_offline_devices_not_selected(self, tiny_devices, tiny_split):
        traces = {dev_id: [False, True] for dev_id in range(4)}
        env = Environment(availability=TraceAvailability(traces))
        srv = make_server(tiny_devices, tiny_split, env=env)
        round1 = srv.select_participants(1)
        round2 = srv.select_participants(2)
        assert round1.tolist() == list(range(4, len(tiny_devices)))
        assert len(round2) == len(tiny_devices)
        assert srv.unavailable_count == 4

    def test_all_offline_round_keeps_one(self, tiny_devices, tiny_split):
        traces = {i: [False] for i in range(len(tiny_devices))}
        env = Environment(availability=TraceAvailability(traces))
        srv = make_server(tiny_devices, tiny_split, env=env)
        participants = srv.select_participants(1)
        assert len(participants) == 1

    def test_churn_composes_with_participation(self, tiny_devices, tiny_split):
        env = Environment(availability=BernoulliAvailability(0.5))
        srv = make_server(tiny_devices, tiny_split, env=env, participation=0.5)
        sizes = [len(srv.select_participants(r)) for r in range(1, 40)]
        assert all(1 <= s <= len(tiny_devices) for s in sizes)
        # Two thinning stages: usually well below half the fleet.
        assert np.mean(sizes) < 0.5 * len(tiny_devices)

    def test_fit_survives_heavy_churn(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(drop_prob=0.3),
                          BernoulliAvailability(0.4))
        srv = make_server(tiny_devices, tiny_split, env=env, rounds=3)
        result = srv.fit()
        assert np.isfinite(result.final_weights).all()
        assert len(result.history.rounds) == 3


class TestLinkSend:
    """``link_send``: one device's message over its own server link."""

    def test_push_decodes_against_the_last_delivered_view(
        self, tiny_devices, tiny_split
    ):
        srv = make_server(tiny_devices, tiny_split)
        srv.codec = TopKCodec(fraction=0.25)
        ids = tiny_devices.device_ids
        w0 = srv.global_weights
        srv.broadcast_model(ids, w0)  # first contact: dense, view == w0
        w1 = w0 + np.linspace(0.0, 1.0, w0.size)
        view1, _ = srv.link_send(3, w1)
        # Top-k of the delta against what device 3 holds (w0): the kept
        # coordinates move by their float32 delta, the rest stay at w0.
        kept = view1 != w0
        assert 0 < kept.sum() < w0.size
        step = (w1 - w0)[kept].astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(view1[kept], w0[kept] + step)
        np.testing.assert_array_equal(view1[~kept], w0[~kept])
        view2, _ = srv.link_send(3, w1)  # now against view1, not w0
        assert not np.array_equal(view2, view1)
        np.testing.assert_array_equal(view2[kept], view1[kept])
        # Another device's link still holds the broadcast view.
        np.testing.assert_array_equal(srv.link_send(4, w0)[0], w0)
        assert srv.meter.server_down == pytest.approx(
            len(ids) + 3 * (4 + 8 * round(0.25 * w0.size)) / (8 * w0.size)
        )
        assert srv.meter.raw_down == len(ids) + 3

    def test_dropped_push_leaves_the_link_reference(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(drop_prob=0.5))
        srv = make_server(tiny_devices, tiny_split, env=env)
        srv.codec = TopKCodec(fraction=0.25)
        srv.provision(tiny_devices.device_ids, srv.global_weights)
        w = srv.global_weights
        held = w
        for step in range(1, 30):
            before = srv.dropped_messages
            view, _ = srv.link_send(2, w + step)
            lost = srv.dropped_messages - before
            assert lost == (view is None)
            if view is not None:
                # Decoded against exactly what the device held.
                moved = view != held
                np.testing.assert_array_equal(view[~moved], held[~moved])
                held = view
            assert srv._down_refs[2] is held
        assert 0 < srv.dropped_messages < 29

    def test_returns_the_link_time_and_leaves_the_clock(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(latency=0.1, bandwidth=2.0))
        srv = make_server(tiny_devices, tiny_split, env=env)
        w = srv.global_weights
        view, down_s = srv.link_send(1, w)
        trained, up_s = srv.link_send(1, w + 1.0, up_from=w)
        assert view is w and down_s == pytest.approx(0.6)
        np.testing.assert_array_equal(trained, w + 1.0)
        assert up_s == pytest.approx(0.6)
        assert srv.clock.now == 0.0  # the caller charges or schedules it
        assert srv.meter.server_down == srv.meter.server_up == 1.0
        assert srv._down_refs == {}  # identity: no per-link state

    def test_lossless_send_draws_nothing(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        srv.link_send(0, srv.global_weights)
        srv.link_send(0, srv.global_weights, up_from=srv.global_weights)
        assert srv._drop_rng is None


class TestNoDirectMeterCalls:
    def test_method_files_use_channel_api_only(self):
        """Acceptance criterion: the channel is the one copy of the
        accounting — no method file, transport backend, event loop or ring
        engine meters, charges the clock, draws server drops or moves a
        downlink codec reference, and no method file, event loop or ring
        engine calls the codec's encode/decode itself (one round-trip,
        ``UpdateCodec.transmit``, serves every link)."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        method_files = [
            *(src / "baselines").glob("*.py"),
            src / "core" / "fedhisyn.py",
        ]
        runtime_files = [
            src / "core" / "async_server.py",
            src / "simulation" / "engine.py",
        ]
        transport_files = list((src / "transport").glob("*.py"))
        assert len(method_files) >= 8  # 6 baselines + __init__ + fedhisyn
        assert any(p.name == "live.py" for p in transport_files)
        accounting = re.compile(
            r"meter\.record_|_charge_transfer\(|_apply_drops\(|_drops\b"
            r"|_codec_down_ref|_down_refs"
        )
        codec_calls = re.compile(r"codec\.(?:encode|decode)\(")
        for path in method_files + runtime_files + transport_files:
            text = path.read_text()
            hit = accounting.search(text)
            if hit is None and path not in transport_files:
                hit = codec_calls.search(text)
            assert hit is None, (
                f"{path.name} bypasses the channel API: {hit.group()}"
            )
