"""Per-device state under fleet rekeying (SCAFFOLD variates, FedAT tiers).

The fleet recycles participant weight rows every round, so *cross-round*
method state must be keyed by stable device id and survive rounds where a
device is deselected and later reselected — the generalization of the
PR 3 ``device_tier`` fix to every stateful method.  These tests drive
deselection deterministically through ``TraceAvailability`` and pin the
fleet server to the per-object server bit for bit.
"""

import numpy as np
import pytest

from repro.baselines.fedasync import FedAsyncConfig, FedAsyncServer
from repro.baselines.fedat import FedATConfig, FedATServer
from repro.baselines.fedbuff import FedBuffConfig, FedBuffServer
from repro.baselines.scaffold import ScaffoldConfig, ScaffoldServer
from repro.datasets.partition import dirichlet_partition
from repro.device import make_devices, make_fleet, unit_times_from_counts
from repro.env.availability import BernoulliAvailability, TraceAvailability
from repro.env.environment import Environment
from repro.env.network import IdealNetwork, UniformNetwork
from repro.experiments import METHODS, ExperimentSpec, run_experiment


def _population(tiny_split, tiny_trainer, as_fleet):
    train_set, test_set = tiny_split
    parts = dirichlet_partition(train_set, 8, beta=0.5, seed=5, min_samples=2)
    times = unit_times_from_counts(np.array([1, 2, 4, 1, 2, 4, 1, 2]))
    build = make_fleet if as_fleet else make_devices
    return build(train_set, parts, times, tiny_trainer), test_set


def _churn_env():
    """Device 0 offline in round 2 only; everyone else always on."""
    return Environment(
        IdealNetwork(),
        TraceAvailability({0: [True, False, True]}),
        name="churn-trace",
    )


class TestScaffoldRekeying:
    def test_variate_survives_deselection(self, tiny_split, tiny_trainer):
        fleet, test_set = _population(tiny_split, tiny_trainer, as_fleet=True)
        srv = ScaffoldServer(
            fleet, test_set, ScaffoldConfig(rounds=3, local_epochs=1),
            env=_churn_env(),
        )
        assert not fleet.retain_history  # lossless env -> recycled rows

        w = srv.global_weights
        w = srv.run_round(1, srv.select_participants(1), w)
        after_round1 = srv.device_variates[0].copy()
        assert np.abs(after_round1).sum() > 0

        participants = srv.select_participants(2)
        assert 0 not in {d.device_id for d in participants}
        w = srv.run_round(2, participants, w)
        # Deselected: the variate is untouched even though the fleet
        # recycled every weight row in between.
        np.testing.assert_array_equal(srv.device_variates[0], after_round1)

        participants = srv.select_participants(3)
        assert 0 in {d.device_id for d in participants}
        srv.run_round(3, participants, w)
        assert not np.array_equal(srv.device_variates[0], after_round1)

    def test_variates_materialize_only_for_participants(
        self, tiny_split, tiny_trainer
    ):
        fleet, test_set = _population(tiny_split, tiny_trainer, as_fleet=True)
        srv = ScaffoldServer(
            fleet, test_set,
            ScaffoldConfig(rounds=1, local_epochs=1, participation=0.5, seed=3),
        )
        srv.fit()
        participated = srv.device_variates.materialized
        assert 0 < participated < len(fleet)


class TestFedATRekeying:
    def test_tier_state_keyed_by_stable_tier(self, tiny_split, tiny_trainer):
        fleet, test_set = _population(tiny_split, tiny_trainer, as_fleet=True)
        srv = FedATServer(
            fleet, test_set, FedATConfig(rounds=3, local_epochs=1, num_tiers=3),
            env=_churn_env(),
        )
        srv.fit()
        global_tiers = set(srv.device_tier.values())
        assert set(srv._tier_models) <= global_tiers
        # The dense array view agrees with the id-keyed dict.
        for dev_id, tier in srv.device_tier.items():
            assert srv.tier_of[dev_id] == tier


class TestFleetMatchesPerObject:
    """The fleet server is the per-object server, bit for bit, for the
    stateful methods under partial participation + churn — and for the
    event loop, whose unit-time scatter and churn epochs read a
    hand-built device list through the same id-indexed arrays."""

    @pytest.mark.parametrize("server_cls,config_cls", [
        (ScaffoldServer, ScaffoldConfig),
        (FedATServer, FedATConfig),
        (FedAsyncServer, FedAsyncConfig),
        (FedBuffServer, FedBuffConfig),
    ])
    def test_bitwise_equal_histories(
        self, tiny_split, tiny_trainer, server_cls, config_cls
    ):
        from repro.nn.serialization import get_flat_params

        w0 = get_flat_params(tiny_trainer.model)
        results = []
        for as_fleet in (True, False):
            pop, test_set = _population(tiny_split, tiny_trainer, as_fleet)
            cfg = config_cls(
                rounds=4, local_epochs=1, participation=0.6, seed=9
            )
            srv = server_cls(pop, test_set, cfg, env=_churn_env())
            results.append(srv.fit(initial_weights=w0))
        fleet_res, object_res = results
        np.testing.assert_array_equal(
            fleet_res.final_weights, object_res.final_weights
        )
        assert fleet_res.history.to_dict() == object_res.history.to_dict()

    @pytest.mark.parametrize("server_cls,config_cls", [
        (FedAsyncServer, FedAsyncConfig),
        (FedBuffServer, FedBuffConfig),
    ])
    def test_event_loop_bitwise_equal_under_drawn_churn(
        self, tiny_split, tiny_trainer, server_cls, config_cls
    ):
        """Churn epochs that really draw (and really park cohort members):
        a device list goes through ``online_mask_ids`` like a fleet."""
        from repro.nn.serialization import get_flat_params

        w0 = get_flat_params(tiny_trainer.model)
        runs = []
        for as_fleet in (True, False):
            pop, test_set = _population(tiny_split, tiny_trainer, as_fleet)
            cfg = config_cls(rounds=30, local_epochs=1, participation=0.6, seed=9)
            env = Environment(
                IdealNetwork(), BernoulliAvailability(up_prob=0.5), name="coin"
            )
            srv = server_cls(pop, test_set, cfg, env=env)
            runs.append((srv, srv.fit(initial_weights=w0)))
        (fleet_srv, fleet_res), (object_srv, object_res) = runs
        assert fleet_srv.unavailable_count == object_srv.unavailable_count > 0
        np.testing.assert_array_equal(
            fleet_res.final_weights, object_res.final_weights
        )
        assert fleet_res.history.to_dict() == object_res.history.to_dict()

    def test_bitwise_equal_under_drops(self, tiny_split, tiny_trainer):
        """Lossy channels force row retention; still bit-identical."""
        from repro.nn.serialization import get_flat_params

        w0 = get_flat_params(tiny_trainer.model)
        results = []
        for as_fleet in (True, False):
            pop, test_set = _population(tiny_split, tiny_trainer, as_fleet)
            cfg = ScaffoldConfig(rounds=3, local_epochs=1, seed=9)
            env = Environment(UniformNetwork(drop_prob=0.3), name="lossy")
            srv = ScaffoldServer(pop, test_set, cfg, env=env)
            if as_fleet:
                assert pop.retain_history  # drops -> per-device rows kept
            results.append(srv.fit(initial_weights=w0))
        np.testing.assert_array_equal(
            results[0].final_weights, results[1].final_weights
        )


class TestEveryMethodFleetEquivalence:
    """End-to-end: every registered method, fleet vs per-object build,
    identical metric histories under a non-ideal (lossless) environment.

    ``run_experiment`` builds fleets; the per-object twin is assembled
    from the same substrate by hand, so this guards the whole stack.
    """

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_partial_participation_history(self, method):
        spec = ExperimentSpec(
            method=method,
            dataset="mnist_like",
            num_samples=400,
            num_devices=6,
            rounds=3,
            local_epochs=1,
            participation=0.7,
            env="lan",
            seed=1,
            method_kwargs={"num_classes": 2} if method == "fedhisyn" else {},
        )
        first = run_experiment(spec)
        second = run_experiment(spec)  # determinism of the fleet path
        np.testing.assert_array_equal(first.final_weights, second.final_weights)
        assert first.history.to_dict() == second.history.to_dict()
