"""Cross-round device state lives with its reader.

The fleet stores weights only in the recycled round arena, so its state
stays O(participants) whatever the channel.  The drop fallback of Eq. 7
(``start_views``) reads the server's ``device_history`` instead, which only
its two readers, FedHiSyn and TAFedAvg, write, and only under a lossy
downlink.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, build_experiment

FALLBACK_METHODS = ("fedhisyn", "tafedavg")  # the start_views readers
OTHER_METHODS = ("fedavg", "fedprox", "tfedavg", "scaffold", "fedat")


def _with_selection_log(server):
    """Record every round's participant ids on ``server.selected``."""
    select = server.select_participants
    server.selected = []

    def logged(round_idx):
        ids = select(round_idx)
        server.selected.append(ids.copy())
        return ids

    server.select_participants = logged
    return server


class TestUploadReference:
    """``collect_models`` encodes each upload against the model its sender
    trained from.  When a device's pull is lost that is its last trained
    model, a row the round must not overwrite while it still serves as
    the reference."""

    @pytest.mark.parametrize("method", FALLBACK_METHODS)
    def test_no_upload_is_its_own_reference(self, method):
        server = build_experiment(ExperimentSpec(
            method=method, num_devices=16, rounds=6, codec="topk",
            env="ideal", env_kwargs={"drop_prob": 0.3}, seed=0,
        ))
        start_views, collect = server.start_views, server.collect_models
        fallbacks = 0
        self_refs = []

        def counted(ids, delivered, view):
            nonlocal fallbacks
            starts = start_views(ids, delivered, view)
            if isinstance(starts, dict):
                fallbacks += sum(start is not view for start in starts.values())
            return starts

        def checked(ids, stack, reference=None, **kwargs):
            for i, dev_id in enumerate(ids.tolist()):
                ref = reference.get(dev_id) if isinstance(reference, dict) else reference
                if ref is not None and (
                    np.shares_memory(ref, stack[i]) or np.array_equal(ref, stack[i])
                ):
                    self_refs.append(dev_id)
            return collect(ids, stack, reference=reference, **kwargs)

        server.start_views, server.collect_models = counted, checked
        server.fit()
        assert fallbacks > 0  # some device trained on after a lost pull
        assert self_refs == []


class TestFleetStateUnderLossyChannels:
    """A 400-device ``flaky_mobile`` fleet at 10% participation: fleet
    state is bounded by the largest round, not by the ever-active set."""

    @staticmethod
    def _fit(method):
        server = _with_selection_log(build_experiment(ExperimentSpec(
            method=method, num_devices=400, num_samples=4000,
            participation=0.1, env="flaky_mobile", rounds=8,
            method_kwargs={"num_classes": 2} if method == "fedhisyn" else {},
        )))
        assert server.env.network.drop_prob > 0
        server.fit()
        return server

    @staticmethod
    def _arena_bound(server):
        largest = max(len(ids) for ids in server.selected)
        return largest * server.fleet.dim * 8

    @pytest.mark.parametrize("method", OTHER_METHODS)
    def test_fleet_state_is_one_round(self, method):
        server = self._fit(method)
        assert server.fleet.state_nbytes <= self._arena_bound(server)
        assert server.device_history == {}  # nobody reads a fallback

    @pytest.mark.parametrize("method", FALLBACK_METHODS)
    def test_history_holds_exactly_the_ever_active(self, method):
        server = self._fit(method)
        assert server.fleet.state_nbytes <= self._arena_bound(server)
        ever_active = set(np.concatenate(server.selected).tolist())
        assert set(server.device_history) == ever_active
        for row in server.device_history.values():
            assert row.shape == (server.fleet.dim,)

    @pytest.mark.parametrize("method", FALLBACK_METHODS)
    def test_lossless_runs_keep_no_history(self, method):
        server = build_experiment(ExperimentSpec(
            method=method, num_devices=8, num_samples=400, rounds=2,
            env="lan", method_kwargs={"num_classes": 2} if method == "fedhisyn" else {},
        ))
        server.fit()
        assert server.device_history == {}
