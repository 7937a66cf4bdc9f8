"""Tests for TAFedAvg and FedAT (the asynchronous baselines)."""

import numpy as np
import pytest

from repro.baselines.fedat import FedATConfig, FedATServer
from repro.baselines.tafedavg import TAFedAvgConfig, TAFedAvgServer


class TestTAFedAvg:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            TAFedAvgConfig(alpha=0.0)
        with pytest.raises(ValueError):
            TAFedAvgConfig(alpha=1.5)

    def test_learns(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = TAFedAvgServer(
            tiny_devices, test_set,
            TAFedAvgConfig(rounds=6, local_epochs=1, alpha=0.2),
        ).fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes

    def test_more_transfers_than_sync(self, tiny_devices, tiny_split):
        """Fast devices upload several times per round — async costs more
        server traffic than one down+up per participant."""
        _, test_set = tiny_split
        srv = TAFedAvgServer(tiny_devices, test_set,
                             TAFedAvgConfig(rounds=2, local_epochs=1))
        result = srv.fit()
        sync_cost = 2 * 2 * len(tiny_devices)
        assert result.history.server_transfers[-1] > sync_cost

    def test_upload_count_matches_schedule(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        from repro.simulation.engine import async_upload_schedule

        srv = TAFedAvgServer(tiny_devices, test_set,
                             TAFedAvgConfig(rounds=1, local_epochs=1))
        srv.fit()
        duration = tiny_devices.unit_times.max()
        expected_uploads = len(
            async_upload_schedule(dict(enumerate(tiny_devices.unit_times)),
                                  duration)
        )
        assert srv.meter.server_up == expected_uploads

    def test_mixing_moves_global(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = TAFedAvgServer(tiny_devices, test_set,
                             TAFedAvgConfig(local_epochs=1, alpha=0.5))
        g = srv.global_weights.copy()
        new = srv.run_round(1, tiny_devices.device_ids, g)
        assert not np.allclose(new, g)


class TestFedAT:
    def test_tier_validation(self):
        with pytest.raises(ValueError):
            FedATConfig(num_tiers=0)

    def test_learns(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = FedATServer(
            tiny_devices, test_set,
            FedATConfig(rounds=6, local_epochs=1, num_tiers=3),
        ).fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes

    def test_fast_tier_updates_more_often(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedATServer(tiny_devices, test_set,
                          FedATConfig(rounds=1, local_epochs=1, num_tiers=3))
        srv.fit()
        counts = srv._tier_update_counts
        # tier 0 is fastest (unit time 0.25), tier max is slowest (1.0)
        assert counts[0] > counts[max(counts)]

    def test_cross_tier_weights_favor_slow(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedATServer(tiny_devices, test_set,
                          FedATConfig(local_epochs=1, num_tiers=2))
        dim = srv.trainer.dim
        srv._tier_models = {0: np.zeros(dim), 1: np.ones(dim)}
        srv._tier_update_counts = {0: 10, 1: 1}  # tier 0 updated often
        agg = srv._cross_tier_average(np.full(dim, 0.5))
        # slow tier (value 1) dominates: weight 10 vs 1.
        assert np.all(agg > 0.5)

    def test_single_tier_degenerates_to_sync(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedATServer(tiny_devices, test_set,
                          FedATConfig(rounds=1, local_epochs=1, num_tiers=1))
        result = srv.fit()
        assert np.isfinite(result.final_weights).all()


class TestFedATTierStability:
    """Regression tests for the cross-round tier-state fix.

    The seed code keyed ``_tier_models``/``_tier_update_counts`` by the
    index of a *per-round* re-clustering of the participant list, so under
    partial participation the same key could mean a different device
    population each round (a fast-only round and a slow-only round both
    wrote key 0).  Tiers are now assigned once over the whole fleet.
    """

    def test_tier_assignment_is_fleet_wide_and_stable(self, tiny_devices,
                                                      tiny_split):
        _, test_set = tiny_split
        srv = FedATServer(tiny_devices, test_set,
                          FedATConfig(rounds=1, local_epochs=1, num_tiers=3))
        # unit times 0.25 / 0.5 / 1.0 -> three clean tiers, fastest first.
        by_tier = {}
        for dev_id in tiny_devices.device_ids:
            by_tier.setdefault(srv.device_tier[dev_id], set()).add(
                tiny_devices.unit_times[dev_id])
        assert by_tier == {0: {0.25}, 1: {0.5}, 2: {1.0}}

    def test_disjoint_rounds_write_disjoint_tier_keys(self, tiny_devices,
                                                      tiny_split):
        """A fast-only round and a slow-only round must not share tier state."""
        _, test_set = tiny_split

        fast = np.flatnonzero(tiny_devices.unit_times == 0.25)
        slow = np.flatnonzero(tiny_devices.unit_times == 1.0)

        class AlternatingSelection:
            expected_fraction = None

            def select(self, round_idx, fleet, rng):
                return fast if round_idx % 2 == 1 else slow

        srv = FedATServer(tiny_devices, test_set,
                          FedATConfig(rounds=2, local_epochs=1, num_tiers=3))
        srv.selection_policy = AlternatingSelection()
        srv.fit()
        # Pre-fix both rounds clustered their own participants and wrote
        # key 0; now they land on the fleet-wide tier ids 0 and 2.
        assert set(srv._tier_models) == {0, 2}
        assert 0 < srv._tier_update_counts[0]
        assert 0 < srv._tier_update_counts[2]

    def test_half_participation_keys_stay_in_global_range(self, tiny_devices,
                                                          tiny_split):
        _, test_set = tiny_split
        srv = FedATServer(tiny_devices, test_set,
                          FedATConfig(rounds=6, local_epochs=1, num_tiers=3,
                                      participation=0.5, seed=3))
        result = srv.fit()
        assert np.isfinite(result.final_weights).all()
        global_tiers = set(srv.device_tier.values())
        assert set(srv._tier_models) <= global_tiers
        assert set(srv._tier_update_counts) <= global_tiers
