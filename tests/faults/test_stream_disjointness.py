"""Fault rng streams are disjoint from every pre-existing stream.

The load-bearing contract: a run with the fault machinery *armed* but
injecting nothing (null rates) must be bit-identical to ``faults="none"``
— same history, same final weights, same transfer counts — because fault
draws live on their own seed-stream family ``(*, 200..202)``, away from
selection/availability/drops/training (substrate) and codec streams.
"""

import numpy as np

from repro.experiments import ExperimentSpec, run_experiment

#: Every rate zeroed: the model is non-null (machinery arms) but can
#: never inject anything.
_NULL_COMPOUND = {
    "crash_prob": 0.0,
    "straggle_prob": 0.0,
    "fraction": 0.0,
}


def _pair(method, env, **overrides):
    base = dict(method=method, rounds=4, num_devices=8, num_samples=400,
                partition="dirichlet", env=env)
    base.update(overrides)
    clean = ExperimentSpec(**base)
    armed = ExperimentSpec(**base, faults="compound",
                           fault_kwargs=dict(_NULL_COMPOUND))
    return run_experiment(clean), run_experiment(armed)


def _assert_identical(clean, armed):
    assert clean.history.to_dict() == armed.history.to_dict()
    np.testing.assert_array_equal(clean.final_weights, armed.final_weights)
    assert clean.transport == armed.transport


class TestArmedNullBitIdentity:
    def test_fedavg_under_wan(self):
        """Sync path: selection, drops and sampled latencies all keep
        their draws when the fault machinery is armed."""
        _assert_identical(*_pair("fedavg", "wan"))

    def test_fedavg_under_churn_with_partial_participation(self):
        _assert_identical(*_pair("fedavg", "churn", participation=0.6))

    def test_fedprox_under_flaky_mobile(self):
        _assert_identical(*_pair("fedprox", "flaky_mobile"))

    def test_fedasync_under_churn(self):
        """Async path: the armed event loop adds timers and heartbeats
        but zero perturbation of model/clock/metric state."""
        _assert_identical(*_pair("fedasync", "churn", rounds=6))

    def test_fedbuff_under_ideal(self):
        _assert_identical(*_pair("fedbuff", "ideal", rounds=6,
                                 buffer_goal=3))

    def test_fedavg_with_codec(self):
        """Fault streams are disjoint from the codec's +7 stream too."""
        _assert_identical(*_pair("fedavg", "wan", codec="topk",
                                 codec_kwargs={"fraction": 0.25}))


class TestSeedStreamLayout:
    def test_fault_stream_keys_disjoint_from_known_streams(self):
        """The reserved fault keys collide with no pre-existing stream
        family (selection (r,1), ring (r,2), availability (r,3), drops
        (0,101), training (dev, round, unit))."""
        from repro.core.server import (
            _FAULT_ASYNC_STREAM_KEY,
            _FAULT_MEMBER_STREAM_KEY,
            _FAULT_ROUND_STREAM,
        )

        assert _FAULT_MEMBER_STREAM_KEY == (0, 200)
        assert _FAULT_ASYNC_STREAM_KEY == (0, 202)
        assert _FAULT_ROUND_STREAM == 201
        reserved = {1, 2, 3, 101}
        assert _FAULT_MEMBER_STREAM_KEY[1] not in reserved
        assert _FAULT_ASYNC_STREAM_KEY[1] not in reserved
        assert _FAULT_ROUND_STREAM not in reserved

    def test_same_seed_same_faults(self):
        """Fault injection itself is deterministic: two identical armed
        runs produce identical resilience counters and weights."""
        spec = ExperimentSpec(method="fedavg", rounds=3, num_devices=8,
                              num_samples=400, env="wan", faults="compound",
                              fault_kwargs={"crash_prob": 0.3,
                                            "fraction": 0.25})
        a, b = run_experiment(spec), run_experiment(spec)
        assert a.resilience == b.resilience
        np.testing.assert_array_equal(a.final_weights, b.final_weights)

    def test_fault_kwargs_change_only_fault_draws(self):
        """Swapping the attack style never re-shuffles byzantine
        membership or the substrate: honest devices' history of arrival
        stays identical (same transfers)."""
        base = dict(method="fedavg", rounds=3, num_devices=8,
                    num_samples=400, env="wan", faults="byzantine")
        a = run_experiment(ExperimentSpec(
            **base, fault_kwargs={"fraction": 0.25, "attack": "sign_flip"}))
        b = run_experiment(ExperimentSpec(
            **base, fault_kwargs={"fraction": 0.25, "attack": "scaled"}))
        assert a.history.server_transfers == b.history.server_transfers
        assert a.history.times == b.history.times
