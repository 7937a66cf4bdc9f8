"""Tests for the event-driven async methods (FedAsync, FedBuff)."""

import numpy as np
import pytest

from repro.baselines.fedasync import FedAsyncConfig, FedAsyncServer
from repro.baselines.fedbuff import FedBuffConfig, FedBuffServer
from repro.core import async_server
from repro.core.async_server import STALENESS_DECAYS, staleness_weight
from repro.env.registry import make_environment
from repro.experiments import ExperimentSpec, build_experiment, run_experiment
from repro.nn.batched import stacked_gemm_is_bitwise


class TestStalenessWeight:
    def test_constant_ignores_staleness(self):
        assert staleness_weight(0, "constant") == 1.0
        assert staleness_weight(50, "constant") == 1.0

    def test_polynomial_decays(self):
        fresh = staleness_weight(0, "polynomial", exponent=0.5)
        stale = staleness_weight(8, "polynomial", exponent=0.5)
        assert fresh == 1.0
        assert stale == pytest.approx((1.0 + 8) ** -0.5)
        assert stale < fresh

    def test_hinge_grace_then_decay(self):
        assert staleness_weight(4, "hinge", exponent=1.0, hinge_delay=4) == 1.0
        assert staleness_weight(6, "hinge", exponent=1.0, hinge_delay=4) == (
            pytest.approx(1.0 / 3.0)
        )

    def test_monotone_in_staleness(self):
        for decay in STALENESS_DECAYS:
            ws = [staleness_weight(s, decay) for s in range(10)]
            assert all(a >= b for a, b in zip(ws, ws[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            staleness_weight(-1, "constant")
        with pytest.raises(ValueError):
            staleness_weight(0, "exponential")


class TestConfigs:
    def test_decay_validation(self):
        with pytest.raises(ValueError):
            FedAsyncConfig(staleness_decay="bogus")
        with pytest.raises(ValueError):
            FedAsyncConfig(staleness_exponent=-1.0)
        with pytest.raises(ValueError):
            FedAsyncConfig(hinge_delay=-1)
        with pytest.raises(ValueError):
            FedAsyncConfig(churn_period=0.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            FedAsyncConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FedAsyncConfig(alpha=1.5)

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            FedBuffConfig(buffer_goal=0)
        with pytest.raises(ValueError):
            FedBuffConfig(global_lr=0.0)


class TestFedAsync:
    def test_learns(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=24, local_epochs=1, alpha=0.5, seed=0),
        ).fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes

    def test_one_version_per_upload(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=10, local_epochs=1, seed=0),
        )
        srv.fit()
        # Exactly rounds aggregations happened; the meter counts *sent*
        # uploads, so in-flight ones at stop time may exceed the versions.
        assert srv._version == 10
        assert srv.meter.server_up >= 10

    def test_history_records_versions(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=6, local_epochs=1, eval_every=2, seed=0),
        ).fit()
        assert result.history.rounds == [2, 4, 6]

    def test_virtual_time_tracks_unit_rates(self, tiny_devices, tiny_split):
        """With n devices cycling continuously under an instant network,
        k aggregations arrive no later than k full cohort sweeps."""
        _, test_set = tiny_split
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=8, local_epochs=1, seed=0),
        )
        result = srv.fit()
        slowest = tiny_devices.unit_times.max()
        assert 0.0 < result.history.times[-1] <= 8 * slowest

    def test_staleness_decay_changes_result(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        finals = {}
        start = {}
        for decay in ("constant", "polynomial"):
            srv = FedAsyncServer(
                tiny_devices, test_set,
                FedAsyncConfig(rounds=10, local_epochs=1, alpha=0.4,
                               staleness_decay=decay, seed=0),
            )
            w0 = start.setdefault("w0", srv.global_weights.copy())
            finals[decay] = srv.fit(initial_weights=w0).final_weights
        assert not np.allclose(finals["constant"], finals["polynomial"])

    def test_uploads_arrive_after_uplink_latency(self, tiny_devices, tiny_split):
        """A latency-only network shifts every arrival by the link time —
        the run must still aggregate, and virtual time must grow."""
        _, test_set = tiny_split
        env = make_environment("lan")
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=6, local_epochs=1, seed=0),
            env=env,
        )
        ideal = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=6, local_epochs=1, seed=0),
        )
        w0 = srv.global_weights.copy()
        t_env = srv.fit(initial_weights=w0).history.times[-1]
        t_ideal = ideal.fit(initial_weights=w0).history.times[-1]
        assert t_env > t_ideal

    def test_churn_parks_and_revives_devices(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=12, local_epochs=1, seed=2),
            env=make_environment("churn"),
        )
        result = srv.fit()
        assert srv.unavailable_count > 0  # churn actually bit
        assert len(result.history.rounds) > 0  # and progress continued

    def test_drops_lose_messages_but_not_liveness(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=8, local_epochs=1, seed=3),
            env=make_environment("ideal", drop_prob=0.3),
        )
        srv.fit()
        assert srv.dropped_messages > 0
        assert srv._version == 8


class TestFedBuff:
    def test_learns(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=8, local_epochs=1, buffer_goal=4, seed=0),
        ).fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes

    def test_buffer_goal_gates_aggregation(self, tiny_devices, tiny_split):
        """K arrived uploads per version (ideal env: nothing is dropped,
        so at least K x versions uploads were sent)."""
        _, test_set = tiny_split
        srv = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=5, local_epochs=1, buffer_goal=3, seed=0),
        )
        srv.fit()
        assert srv._version == 5
        assert srv.meter.server_up >= 5 * 3

    def test_buffer_smaller_than_goal_never_flushes_alone(
        self, tiny_devices, tiny_split
    ):
        _, test_set = tiny_split
        srv = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=2, local_epochs=1, buffer_goal=4, seed=0),
        )
        w0 = srv.global_weights.copy()
        srv.fit(initial_weights=w0)
        # Leftover buffer entries below the goal stay unapplied.
        assert srv._buffered < 4

    def test_running_sum_flush_is_the_list_sum_bitwise(
        self, tiny_devices, tiny_split
    ):
        """The running-sum buffer flushes exactly what summing a list of
        ``(delta, weight)`` entries did: ``w + lr * sum(s*d) / sum(s)``,
        with ``-0.0`` deltas and staleness weights, over two flushes."""
        _, test_set = tiny_split
        goal, lr = 5, 0.7
        srv = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=1, buffer_goal=goal, global_lr=lr,
                          staleness_decay="polynomial",
                          staleness_exponent=0.5, seed=0),
        )
        dim = srv.trainer.dim
        rng = np.random.default_rng(4)
        for _ in range(2):
            entries = []
            # A -0.0 global coordinate shows the sign of a zero delta sum.
            w0 = srv.global_weights.copy()
            w0[dim // 4: dim // 2] = -0.0
            srv.global_weights = w0
            for k in range(goal):
                base = rng.normal(size=dim)
                trained = base + rng.normal(scale=1e-3, size=dim)
                # Exact zeros and negative zeros in the delta.
                trained[: dim // 4] = base[: dim // 4]
                base[dim // 4: dim // 2] = 0.0
                trained[dim // 4: dim // 2] = -0.0
                staleness = 3 * k
                entries.append((trained - base, srv.mix_weight(staleness)))
                flushed = srv.apply_upload(k, trained, base, staleness)
                assert flushed == (k == goal - 1)
                if not flushed:
                    assert srv.global_weights is w0
            total = sum(weight for _, weight in entries)
            delta = sum(weight * d for d, weight in entries) / total
            expected = w0 + lr * delta
            assert srv._buffered == 0
            np.testing.assert_array_equal(
                srv.global_weights.view(np.uint64), expected.view(np.uint64)
            )

    def test_staleness_leak_weights_buffer_entries(
        self, tiny_devices, tiny_split
    ):
        _, test_set = tiny_split
        finals = {}
        start = {}
        for decay in ("constant", "polynomial"):
            srv = FedBuffServer(
                tiny_devices, test_set,
                FedBuffConfig(rounds=6, local_epochs=1, buffer_goal=4,
                              staleness_decay=decay,
                              staleness_exponent=1.0, seed=0),
            )
            w0 = start.setdefault("w0", srv.global_weights.copy())
            finals[decay] = srv.fit(initial_weights=w0).final_weights
        assert not np.allclose(finals["constant"], finals["polynomial"])

    def test_runs_on_fleet(self, tiny_fleet, tiny_split):
        _, test_set = tiny_split
        result = FedBuffServer(
            tiny_fleet, test_set,
            FedBuffConfig(rounds=4, local_epochs=1, buffer_goal=3, seed=0),
            env=make_environment("churn"),
        ).fit()
        assert len(result.history.rounds) > 0

    def test_partial_participation_cohort(self, tiny_fleet, tiny_split):
        _, test_set = tiny_split
        srv = FedBuffServer(
            tiny_fleet, test_set,
            FedBuffConfig(rounds=3, local_epochs=1, buffer_goal=2,
                          participation=0.5, seed=0),
        )
        srv.fit()
        assert 1 <= len(srv._cohort_ids) <= len(tiny_fleet)


class TestTrainAhead:
    """In-flight units train before their ``unit_complete``, stacked with
    the earliest-due other pending units."""

    # Ragged shards, churn and crashes: completions arrive one per entry
    # and out of begin order, so results trained ahead pile up unless the
    # pool counts them.
    SPEC = dict(
        method="fedbuff", num_devices=40, num_samples=800, beta=0.3,
        participation=1.0, rounds=40, buffer_goal=3, env="churn", seed=1,
        faults="crash", fault_kwargs={"crash_prob": 0.3},
    )

    def test_crash_drops_the_result_and_restart_retrains_the_unit(
        self, monkeypatch
    ):
        server = build_experiment(ExperimentSpec(**self.SPEC))
        log = []
        train = async_server.run_units

        def spy_train(batched, fleet, ids, *args, unit_idx, **kwargs):
            log.extend(
                ("train", d, u, False) for d, u in zip(ids.tolist(), unit_idx.tolist())
            )
            return train(batched, fleet, ids, *args, unit_idx=unit_idx, **kwargs)

        monkeypatch.setattr(async_server, "run_units", spy_train)
        crash = server._on_device_crash

        def spy_crash(ev):
            dev_id = ev.payload[0]
            ahead = dev_id in server._trained
            crash(ev)
            assert dev_id not in server._trained
            assert dev_id not in server._pending
            log.append(("crash", dev_id, int(server._unit_idx[dev_id]), ahead))

        server._on_device_crash = spy_crash
        server.fit()
        retrained = 0
        for i, (kind, dev_id, unit, ahead) in enumerate(log):
            if kind != "crash" or not ahead:
                continue
            later = [e[2] for e in log[i + 1:] if e[0] == "train" and e[1] == dev_id]
            if later:
                # The lost unit's index was never consumed: the restarted
                # unit trains it again, from the model on hand at restart.
                assert later[0] == unit
                retrained += 1
        assert retrained > 0

    @pytest.mark.parametrize("ahead", [1, 8])
    def test_pool_is_bounded_and_moves_no_result(self, monkeypatch, ahead):
        spec = ExperimentSpec(**self.SPEC)
        reference = run_experiment(spec)
        monkeypatch.setattr(async_server, "_AHEAD", ahead)
        server = build_experiment(spec)
        peaks = []
        train_ahead = server._train_ahead

        def spy_train_ahead(wave):
            train_ahead(wave)
            assert len(server._trained) <= ahead + len(wave)
            peaks.append(len(server._trained))

        complete = server._on_unit_complete

        def spy_complete(ev):
            complete(ev)
            assert len(server._trained) <= ahead  # between events

        server._train_ahead = spy_train_ahead
        server._on_unit_complete = spy_complete
        result = server.fit()
        assert max(peaks) >= ahead
        assert not server._trained  # leftovers are discarded at stop
        if stacked_gemm_is_bitwise():
            np.testing.assert_array_equal(result.final_weights, reference.final_weights)
        else:
            np.testing.assert_allclose(
                result.final_weights, reference.final_weights, rtol=1e-12, atol=1e-12
            )
        assert result.history.to_dict()["times"] == reference.history.to_dict()["times"]


class TestSpecIntegration:
    def test_run_experiment_roundtrip(self):
        from repro.experiments import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            method="fedbuff", num_samples=300, num_devices=6, rounds=4,
            local_epochs=1, seed=0, buffer_goal=2,
            staleness_decay="hinge", eval_time_every=0.05,
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored == spec
        result = run_experiment(spec)
        assert result.config["buffer_goal"] == 2
        assert result.config["staleness_decay"] == "hinge"
        assert len(result.history.checkpoint_times) > 0

    def test_async_fields_ignored_by_sync_methods(self):
        from repro.experiments import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            method="fedavg", num_samples=300, num_devices=5, rounds=2,
            local_epochs=1, seed=0, buffer_goal=7, staleness_decay="constant",
        )
        result = run_experiment(spec)  # must not raise
        assert result.final_accuracy >= 0.0

    def test_spec_validates_async_fields(self):
        from repro.experiments import ExperimentSpec

        with pytest.raises(ValueError):
            ExperimentSpec(staleness_decay="bogus")
        with pytest.raises(ValueError):
            ExperimentSpec(buffer_goal=0)
        with pytest.raises(ValueError):
            ExperimentSpec(eval_time_every=-1.0)

    def test_sweepable_in_campaign_grid(self):
        from repro.campaign import sweep
        from repro.experiments import ExperimentSpec

        specs = sweep(
            ExperimentSpec(method="fedbuff", rounds=2),
            {"buffer_goal": [2, 4], "staleness_decay": ["constant", "hinge"]},
        )
        assert len(specs) == 4
        assert {s.buffer_goal for s in specs} == {2, 4}
