"""Per-device state under fleet rekeying (SCAFFOLD variates, FedAT tiers).

The fleet recycles participant weight rows every round, so *cross-round*
method state must be keyed by stable device id and survive rounds where a
device is deselected and later reselected — the generalization of the
PR 3 ``device_tier`` fix to every stateful method.  These tests drive
deselection deterministically through ``TraceAvailability`` and pin the
fleet to the frozen record of what per-object devices produced
(``tests/golden/population/matrix.json``) bit for bit.
"""

import json

import numpy as np
import pytest

from repro.baselines.fedat import FedATConfig, FedATServer
from repro.baselines.scaffold import ScaffoldConfig, ScaffoldServer
from repro.env.availability import TraceAvailability
from repro.env.environment import Environment
from repro.env.network import NetworkModel
from repro.experiments import METHODS, ExperimentSpec, run_experiment
from tests.golden.generate import (
    POPULATION_MATRIX,
    POPULATION_MATRIX_PATH,
    build_population_cell,
    population_observables,
)

FROZEN = json.loads(POPULATION_MATRIX_PATH.read_text())


def _churn_env():
    """Device 0 offline in round 2 only; everyone else always on."""
    return Environment(
        NetworkModel(),
        TraceAvailability({0: [True, False, True]}),
        name="churn-trace",
    )


class TestScaffoldRekeying:
    def test_variate_survives_deselection(self, tiny_split, tiny_fleet):
        fleet, test_set = tiny_fleet, tiny_split[1]
        srv = ScaffoldServer(
            fleet, test_set, ScaffoldConfig(rounds=3, local_epochs=1),
            env=_churn_env(),
        )

        w = srv.global_weights
        w = srv.run_round(1, srv.select_participants(1), w)
        after_round1 = srv.device_variates.row(0).copy()
        assert np.abs(after_round1).sum() > 0

        ids = srv.select_participants(2)
        assert 0 not in ids
        w = srv.run_round(2, ids, w)
        # Deselected: the variate is untouched even though the fleet
        # recycled every weight row in between.
        np.testing.assert_array_equal(srv.device_variates.row(0), after_round1)

        ids = srv.select_participants(3)
        assert 0 in ids
        srv.run_round(3, ids, w)
        assert not np.array_equal(srv.device_variates.row(0), after_round1)

    def test_variates_materialize_only_for_participants(
        self, tiny_split, tiny_fleet
    ):
        fleet, test_set = tiny_fleet, tiny_split[1]
        srv = ScaffoldServer(
            fleet, test_set,
            ScaffoldConfig(rounds=1, local_epochs=1, participation=0.5, seed=3),
        )
        srv.fit()
        # A never-written row reads as the shared read-only zeros.
        variates = srv.device_variates
        written = sum(variates.row(d).flags.writeable for d in fleet.device_ids.tolist())
        assert 0 < written < len(fleet)
        assert 0 < variates.nbytes < len(fleet) * variates.dim * 8


class TestFedATRekeying:
    def test_tier_state_keyed_by_stable_tier(self, tiny_split, tiny_fleet):
        fleet, test_set = tiny_fleet, tiny_split[1]
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
    """The fleet replays the frozen per-object record, bit for bit: the
    stateful methods and the event loop under partial participation +
    churn (hand-built servers), and every selection policy under churn
    and lossy links (``ExperimentSpec`` cells).  The record was captured
    through lists of standalone devices and the object policies at the
    last commit that had them — see ``tests/golden/generate.py``."""

    def test_frozen_record_covers_the_matrix(self):
        assert set(FROZEN) == set(POPULATION_MATRIX)

    @pytest.mark.parametrize("cell", sorted(POPULATION_MATRIX))
    def test_matches_per_object_record(self, cell):
        frozen = FROZEN[cell]
        assert frozen["spec"] == POPULATION_MATRIX[cell]
        # Through JSON, like the record: floats round-trip exactly.
        got = json.loads(json.dumps(population_observables(POPULATION_MATRIX[cell])))
        for name, want in frozen["observables"].items():
            assert got[name] == want, f"{cell}: '{name}' diverged"

    def test_cells_reach_what_they_claim(self):
        """Churn epochs that really draw, drops that really fire."""
        coin = FROZEN["hand-fedbuff-coin"]["observables"]
        assert coin["unavailable_count"] > 0
        lossy = build_population_cell(POPULATION_MATRIX["hand-scaffold-lossy"])
        assert lossy.env.network.drop_prob > 0
        lossy.fit()
        assert lossy.dropped_messages > 0
        assert FROZEN["hand-scaffold-lossy"]["observables"]["dropped_messages"] > 0


class TestEveryMethodFleetEquivalence:
    """End-to-end: every registered method is deterministic on the fleet
    under partial participation and a non-ideal (lossless) environment."""

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
