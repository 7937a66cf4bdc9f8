"""Loopback integration: the live transport cross-validated against sim.

The contract under test (DESIGN.md §14): a clean live run under a
lossless codec is **bit-identical** to the simulator — same per-round
metric history, same final weights, same transmission ledger — because
the coordinator runs the identical metering/clock/aggregation math and
only the bytes physically move.  Lossy codecs preserve the byte ledger
exactly and the learning outcome within stochastic tolerance.  And a
SIGKILLed worker is detected by heartbeat, parked, and survived — the
PR 7 crash-ledger semantics at process granularity.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.campaign import sweep
from repro.experiments import ExperimentSpec, run_experiment

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"

#: Small-but-nontrivial live spec: heterogeneous fleet, Dirichlet skew.
LIVE_SPEC = dict(
    dataset="mnist_like",
    num_samples=300,
    num_devices=6,
    partition="dirichlet",
    beta=0.3,
    rounds=2,
    local_epochs=1,
    model_preset="small",
    seed=0,
)

LIVE_KW = {"workers": 2}


def live(spec_dict, **transport_kwargs):
    return ExperimentSpec(
        **spec_dict,
        transport="live",
        transport_kwargs={**LIVE_KW, **transport_kwargs},
    )


class TestBitIdentity:
    def test_fedavg_live_matches_the_sim_golden_bitwise(self):
        """The acceptance gate: live fedavg == the pinned sim golden."""
        gold = json.loads((GOLDEN_DIR / "fedavg.json").read_text())
        result = run_experiment(live(gold["spec"]))
        history = result.history.to_dict()
        for series, want in gold["history"].items():
            assert history[series] == want, (
                f"live fedavg '{series}' diverged from the sim golden"
            )
        assert float(result.final_weights.sum()) == gold["final_weights_sum"]
        assert result.transport_backend == "live"

    @pytest.mark.parametrize("method", ["fedprox", "tfedavg"])
    def test_sync_methods_live_equal_sim(self, method):
        spec = dict(LIVE_SPEC, method=method)
        sim = run_experiment(ExperimentSpec(**spec))
        liv = run_experiment(live(spec))
        np.testing.assert_array_equal(sim.final_weights, liv.final_weights)
        assert sim.history.to_dict() == liv.history.to_dict()

    @pytest.mark.parametrize("codec", ["none", "topk"])
    def test_meter_ledger_identical_to_sim(self, codec):
        spec = dict(LIVE_SPEC, method="fedavg", codec=codec)
        sim = run_experiment(ExperimentSpec(**spec))
        liv = run_experiment(live(spec))
        live_meter = {
            k: v for k, v in liv.transport.items() if not k.startswith("live_")
        }
        assert live_meter == sim.transport


class TestCodecsOverTheWire:
    def test_topk_live_equals_sim_bitwise(self):
        """Error-feedback residual chains are deterministic, so even the
        lossy top-k run reproduces the simulator exactly: each device's
        residual lives with whichever process encodes its stream."""
        spec = dict(LIVE_SPEC, method="fedavg", codec="topk")
        sim = run_experiment(ExperimentSpec(**spec))
        liv = run_experiment(live(spec))
        np.testing.assert_array_equal(sim.final_weights, liv.final_weights)
        assert sim.transport["wire_bytes"] == liv.transport["wire_bytes"]

    def test_qsgd_live_tracks_sim_within_tolerance(self):
        """QSGD draws stochastic rounding from one codec rng whose call
        order differs across processes — byte ledgers stay exact, learning
        outcome agrees within tolerance."""
        spec = dict(LIVE_SPEC, method="fedavg", codec="qsgd", rounds=3)
        sim = run_experiment(ExperimentSpec(**spec))
        liv = run_experiment(live(spec))
        assert sim.transport["wire_bytes"] == liv.transport["wire_bytes"]
        assert abs(sim.final_accuracy - liv.final_accuracy) <= 0.15


class TestWorkerKill:
    def test_sigkilled_worker_is_detected_and_survived(self):
        """SIGKILL one of two workers mid-run: the heartbeat detector
        parks it (crash ledger: injected == detected == 1), its devices
        drop out of later rounds, and the run completes."""
        spec = dict(LIVE_SPEC, method="fedavg", rounds=4)
        result = run_experiment(
            live(
                spec,
                kill_rank=1,
                kill_round=2,
                heartbeat_interval=0.1,
                miss_limit=5,
            )
        )
        assert result.resilience["injected_crashes"] >= 1
        assert result.resilience["detected_crashes"] >= 1
        assert result.resilience["undetected_crashes"] == 0
        assert result.transport["live_workers_parked"] >= 1
        assert len(result.history.rounds) == 4  # the run completed
        assert result.final_accuracy > 0.0


class TestResultPlumbing:
    def test_live_stats_fold_into_transport(self):
        result = run_experiment(live(dict(LIVE_SPEC, method="fedavg")))
        assert result.transport_backend == "live"
        for key in (
            "live_datagrams_sent",
            "live_datagrams_received",
            "live_retransmits",
            "live_reassembly_failures",
            "live_heartbeat_misses",
            "live_workers_parked",
            "live_rounds_dispatched",
        ):
            assert key in result.transport
        assert result.transport["live_rounds_dispatched"] == LIVE_SPEC["rounds"]
        assert result.config["transport"] == "live"
        assert result.config["transport_kwargs"] == LIVE_KW
        # JSON round-trip keeps the backend tag.
        clone = type(result).from_dict(result.to_dict())
        assert clone.transport_backend == "live"

    def test_sim_results_stay_tagged_sim(self):
        result = run_experiment(ExperimentSpec(**dict(LIVE_SPEC, method="fedavg")))
        assert result.transport_backend == "sim"
        assert not any(k.startswith("live_") for k in result.transport)
        assert "transport" not in result.config


class TestSpecValidation:
    def test_unsupported_method_fails_at_spec_time(self):
        with pytest.raises(ValueError, match="supports methods"):
            ExperimentSpec(method="fedhisyn", transport="live")

    def test_lossy_env_fails_at_spec_time(self):
        with pytest.raises(ValueError, match="drop-free"):
            ExperimentSpec(
                method="fedavg", transport="live",
                env="flaky_mobile",
            )

    def test_fault_injection_fails_at_spec_time(self):
        with pytest.raises(ValueError, match="fault"):
            ExperimentSpec(
                method="fedavg", transport="live", faults="crash"
            )

    def test_unknown_transport_and_kwargs_fail(self):
        with pytest.raises(ValueError, match="unknown transport"):
            ExperimentSpec(transport="avian")
        with pytest.raises(ValueError, match="transport_kwargs"):
            ExperimentSpec(
                method="fedavg", transport="live",
                transport_kwargs={"warp": 9},
            )

    def test_spec_json_round_trip(self):
        spec = live(dict(LIVE_SPEC, method="fedavg"))
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_sweep_transport_axis_clears_kwargs_on_sim_cells(self):
        base = live(dict(LIVE_SPEC, method="fedavg"))
        specs = sweep(base, {"transport": ["sim", "live"]})
        by_name = {s.transport: s for s in specs}
        assert by_name["sim"].transport_kwargs == {}
        assert by_name["live"].transport_kwargs == LIVE_KW

    def test_sweep_transport_kwargs_land_on_live_cells_only(self):
        base = ExperimentSpec(**dict(LIVE_SPEC, method="fedavg"))
        specs = sweep(
            base,
            {"transport": ["sim", "live"]},
            transport_kwargs={"live": {"workers": 3}},
        )
        by_name = {s.transport: s for s in specs}
        assert by_name["sim"].transport_kwargs == {}
        assert by_name["live"].transport_kwargs == {"workers": 3}
