"""Regenerate the golden records the equivalence tests replay.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate.py          # method goldens
    PYTHONPATH=src python tests/golden/generate.py events   # async event matrix
    PYTHONPATH=src python tests/golden/generate.py population   # population matrix

The files under ``tests/golden/`` pin the exact per-round metric histories
of every registered method on one small experiment.  They were first
captured at the commit *before* the environment layer existed, so the
equivalence tests prove that ``env="ideal"`` reproduces pre-refactor
behavior bit-for-bit.  Only regenerate them when a PR deliberately changes
training semantics (and say so in the PR).  They are pinned on the scalar
oracle (:func:`run_oracle`: the built server with ``batched_trainer =
None``, every unit one ``LocalTrainer.train`` call), so their bits never
depend on how a BLAS build computes stacked GEMMs.

``tests/golden/async/event_matrix.json`` (a subdirectory: the glob in
``tests/test_golden_equivalence.py`` maps ``tests/golden/*.json`` onto the
method registry) pins the event loop itself.  It was captured at the last
commit that still had a one-event-per-device path in
``AsyncFederatedServer`` — that path, on the ``heap`` queue, with the
retry-ledger fix of ISSUE 19 applied — so
``test_batched_events_match_per_device_observables`` (tests/baselines)
proves the single wave path replays what per-device events produced,
fault-armed cells included.  Regenerating it from the wave path would
turn that proof into a tautology: do it only for a deliberate semantic
change, and say so in the PR.

``tests/golden/population/matrix.json`` pins the device population layer
the same way.  It was captured at the last commit that still had a
per-object population — hand-built cells through lists of standalone
``Device`` objects, ``ExperimentSpec`` cells through the object selection
policies and the object availability filter — so
``TestFleetMatchesPerObject`` (tests/baselines/test_state_rekeying.py)
proves the struct-of-arrays fleet and the id-array policies replay what
per-object devices produced.  This script can only regenerate it from
the fleet, which would prove nothing: same rule as the event matrix.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.registry import get_method
from repro.datasets import train_test_split
from repro.datasets.partition import dirichlet_partition
from repro.datasets.synthetic import SyntheticSpec, make_synthetic
from repro.device import LocalTrainer, make_fleet, unit_times_from_counts
from repro.env.availability import BernoulliAvailability, TraceAvailability
from repro.env.environment import Environment
from repro.env.network import NetworkModel
from repro.experiments import ExperimentSpec, build_experiment
from repro.nn.models import paper_mlp

GOLDEN_DIR = Path(__file__).resolve().parent
EVENT_MATRIX_PATH = GOLDEN_DIR / "async" / "event_matrix.json"
POPULATION_MATRIX_PATH = GOLDEN_DIR / "population" / "matrix.json"

#: One small-but-nontrivial setup: heterogeneous fleet, Dirichlet skew,
#: several rounds, every method on identical data.  Full participation is
#: deliberate — the FedAT tier-state fix (ISSUE 3) changes behavior only
#: below 100% participation.
GOLDEN_SPEC = dict(
    dataset="mnist_like",
    num_samples=400,
    num_devices=6,
    partition="dirichlet",
    beta=0.3,
    rounds=3,
    local_epochs=1,
    eval_every=1,
    model_preset="small",
    seed=0,
)

#: fedbuff's buffer goal is shrunk so its K-sized flushes actually cycle
#: several times inside the tiny golden run.
METHOD_KWARGS = {"fedhisyn": {"num_classes": 3}, "fedbuff": {"buffer_goal": 2}}


def scalar_oracle(server):
    """``server`` on the scalar reference path: with its batched trainer
    removed, ``run_units`` trains every member of every wave alone through
    ``LocalTrainer.train``.  The one oracle the goldens, the equivalence
    tests and the CI smoke compare the default (stacked) path against."""
    server.batched_trainer = None
    return server


def run_oracle(spec: ExperimentSpec):
    """Build ``spec`` and fit it on the scalar oracle; the RunResult."""
    return scalar_oracle(build_experiment(spec)).fit()


def _event_cell(method: str, env: str, faults: str, **overrides) -> dict:
    """Spec kwargs of one event-matrix cell (the 10-device base shape)."""
    kwargs = dict(
        method=method, num_samples=300, num_devices=10, rounds=5,
        local_epochs=1, seed=0, participation=1.0, env=env, faults=faults,
    )
    if method == "fedbuff":
        kwargs["buffer_goal"] = 3
    kwargs.update(overrides)
    return kwargs


_MID = dict(num_samples=600, num_devices=24, rounds=120, participation=0.8)
_CRASHY = dict(num_samples=400, num_devices=12, rounds=150,
               fault_kwargs={"crash_prob": 0.3})
#: Timers an order of magnitude under the unit times, so timeouts, backoff
#: chains and retry budgets all mature inside a short run.
_FAST_TIMERS = {"upload_timeout": 0.02, "retry_backoff": 0.005}

#: ``cell id -> spec kwargs``: {fedasync, fedbuff} x {ideal, churn,
#: flaky_mobile} x {none, compound} at full participation, then the cells
#: that reach what those cannot — partial participation, a lossy codec's
#: per-link reference chains, crashes racing drops (retransmission timers
#: dying with their device), long downtimes (detection, the shrinking
#: flush goal), the time-checkpoint process and a stop mid-wave.
EVENT_MATRIX: dict[str, dict] = {
    f"{method}-{env}-{faults}": _event_cell(method, env, faults)
    for method in ("fedasync", "fedbuff")
    for env in ("ideal", "churn", "flaky_mobile")
    for faults in ("none", "compound")
}
EVENT_MATRIX.update({
    "fedasync-churn-none-partial": _event_cell(
        "fedasync", "churn", "none", **_MID),
    "fedbuff-flaky_mobile-none-partial-topk": _event_cell(
        "fedbuff", "flaky_mobile", "none", codec="topk", **_MID),
    "fedasync-wan-straggler-partial-topk": _event_cell(
        "fedasync", "wan", "straggler", codec="topk",
        env_kwargs={"drop_prob": 0.2}, **_MID),
    "fedbuff-wan-crash-drops": _event_cell(
        "fedbuff", "wan", "crash", env_kwargs={"drop_prob": 0.3}, **_CRASHY),
    "fedasync-ideal-crash-drops-fast-timers": _event_cell(
        "fedasync", "ideal", "crash", env_kwargs={"drop_prob": 0.4},
        max_retries=2, method_kwargs=dict(_FAST_TIMERS), **_CRASHY),
    "fedasync-flaky_mobile-compound-crashy": _event_cell(
        "fedasync", "flaky_mobile", "compound", **_CRASHY),
    "fedbuff-churn-crash-long-downtime": _event_cell(
        "fedbuff", "churn", "crash", num_samples=800, num_devices=40,
        rounds=60, participation=0.8, buffer_goal=30,
        fault_kwargs={"crash_prob": 0.3, "downtime": 20.0}),
    "fedbuff-ideal-none-checkpoints": _event_cell(
        "fedbuff", "ideal", "none", num_devices=16, rounds=40,
        eval_every=8, eval_time_every=0.5),
    # The final aggregation lands in the middle of an upload wave: the
    # members behind it never dispatch, and ``events_processed`` says so.
    "fedasync-ideal-none-stops-mid-wave": _event_cell(
        "fedasync", "ideal", "none", num_samples=600, num_devices=16,
        rounds=40),
    "fedbuff-lan-none-partial-stops-mid-wave": _event_cell(
        "fedbuff", "lan", "none", num_samples=600, num_devices=24,
        rounds=30, participation=0.8, seed=1),
})


def _observables(server, result) -> dict:
    """Everything a run can move that every runtime has: weights, history,
    clock, meters, churn/drop accounting, ledgers."""
    weights = np.ascontiguousarray(result.final_weights)
    return {
        "final_weights_sha256": hashlib.sha256(weights.tobytes()).hexdigest(),
        "final_weights_sum": float(weights.sum()),
        "history": result.history.to_dict(),
        "clock_now": server.clock.now,
        "server_up": server.meter.server_up,
        "server_down": server.meter.server_down,
        "dropped_messages": server.dropped_messages,
        "unavailable_count": server.unavailable_count,
        "transport": result.transport,
        "resilience": result.resilience,
    }


def event_observables(spec_kwargs: dict) -> dict:
    """Run one event-matrix cell: the shared observables plus what only
    the event loop has (model version, dispatched-event count)."""
    server = build_experiment(ExperimentSpec(**spec_kwargs))
    result = server.fit()
    return {
        **_observables(server, result),
        "version": server._version,
        "events_processed": server.scheduler.events_processed,
    }


def _write_matrix(path: Path, matrix: dict[str, dict], observe) -> None:
    record = {
        cell: {"spec": spec, "observables": observe(spec)}
        for cell, spec in matrix.items()
    }
    path.parent.mkdir(exist_ok=True)
    # One line per cell: a diff names the cells that moved.
    lines = [f"{json.dumps(c)}: {json.dumps(e)}" for c, e in record.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path} ({len(record)} cells)")


def write_event_matrix() -> None:
    _write_matrix(EVENT_MATRIX_PATH, EVENT_MATRIX, event_observables)


#: Worlds of the hand-built cells — model instances a preset name cannot
#: express (a per-device trace, a fair-coin fleet, a bare lossy network).
_HAND_ENVS = {
    # Device 0 offline in round 2 only; everyone else always on.
    "trace": lambda: Environment(
        NetworkModel(), TraceAvailability({0: [True, False, True]}), name="trace"
    ),
    "coin": lambda: Environment(
        NetworkModel(), BernoulliAvailability(up_prob=0.5), name="coin"
    ),
    # Lossy channels force row retention.
    "lossy": lambda: Environment(NetworkModel(drop_prob=0.3), name="lossy"),
}


def _hand_cell(method: str, env: str, rounds: int, participation: float = 0.6) -> dict:
    return dict(hand_built=True, method=method, env=env, rounds=rounds,
                participation=participation)


def _policy_cell(method: str, selection: str, env: str) -> dict:
    kwargs = dict(
        method=method, num_samples=400, num_devices=16, rounds=4,
        local_epochs=1, seed=0, participation=0.6, selection=selection,
        env=env,
    )
    if env == "flaky_mobile":
        kwargs["env_kwargs"] = {"drop_prob": 0.1}
    if method == "fedbuff":
        kwargs.update(rounds=40, buffer_goal=3)
    if method == "fedhisyn":
        kwargs["method_kwargs"] = {"num_classes": 3}
    return kwargs


#: ``cell id -> cell kwargs``.  Hand-built cells (a server constructed
#: around a population directly, the way tests and benches do): the
#: stateful and event-loop methods under partial participation and traced
#: churn, the event loop under churn epochs that really draw, SCAFFOLD on
#: retained rows.  Spec cells: FedHiSyn ring hops on ``wan`` with and
#: without a codec, then every selection policy through
#: ``build_experiment``, under no churn, drawn churn, and
#: capacity-correlated churn with lossy links.
POPULATION_MATRIX: dict[str, dict] = {
    **{
        f"hand-{method}-trace": _hand_cell(method, "trace", rounds=4)
        for method in ("scaffold", "fedat", "fedasync", "fedbuff")
    },
    "hand-fedasync-coin": _hand_cell("fedasync", "coin", rounds=30),
    "hand-fedbuff-coin": _hand_cell("fedbuff", "coin", rounds=30),
    "hand-scaffold-lossy": _hand_cell(
        "scaffold", "lossy", rounds=3, participation=1.0),
    # Ring hops over sampled peer links, dense and with a codec whose
    # encoded size scales each hop's link time.
    **{
        f"fedhisyn-wan-{codec}": {
            **_policy_cell("fedhisyn", "bernoulli", "wan"), "codec": codec,
        }
        for codec in ("none", "topk")
    },
    **{
        f"{method}-{selection}-{env}": _policy_cell(method, selection, env)
        for method in ("fedavg", "fedhisyn", "fedat", "fedbuff")
        for selection in ("bernoulli", "fastest", "datasize")
        for env in ("ideal", "churn", "flaky_mobile")
    },
}


def hand_built_population():
    """``(fleet, test_set)``: 8 devices over a 4-class toy problem,
    Dirichlet(0.5) shards, unit counts 1/2/4."""
    spec = SyntheticSpec(
        name="tiny", num_classes=4, num_samples=400, latent_dim=8,
        feature_shape=(12,), separation=4.0, sigma_within=0.8, sigma_noise=0.3,
    )
    dataset = make_synthetic(spec, seed=0)
    train_set, test_set = train_test_split(dataset, 0.25, seed=2)
    model = paper_mlp(dataset.flat_features, dataset.num_classes,
                      seed=3, hidden=(16, 8))
    trainer = LocalTrainer(model, lr=0.1, batch_size=32, seed=4)
    parts = dirichlet_partition(train_set, 8, beta=0.5, seed=5, min_samples=2)
    times = unit_times_from_counts(np.array([1, 2, 4, 1, 2, 4, 1, 2]))
    return make_fleet(train_set, parts, times, trainer), test_set


def build_population_cell(cell: dict):
    """The (unfitted) server of one population-matrix cell."""
    if not cell.get("hand_built"):
        return build_experiment(ExperimentSpec(**cell))
    entry = get_method(cell["method"])
    fleet, test_set = hand_built_population()
    config = entry.config_cls(
        rounds=cell["rounds"], local_epochs=1,
        participation=cell["participation"], seed=9,
    )
    return entry.server_cls(
        fleet, test_set, config, env=_HAND_ENVS[cell["env"]]()
    )


def population_observables(cell: dict) -> dict:
    server = build_population_cell(cell)
    return _observables(server, server.fit())


def write_population_matrix() -> None:
    _write_matrix(
        POPULATION_MATRIX_PATH, POPULATION_MATRIX, population_observables
    )


def main() -> None:
    for method in ("fedavg", "fedprox", "scaffold", "tfedavg", "tafedavg",
                   "fedat", "fedhisyn", "fedasync", "fedbuff"):
        spec = ExperimentSpec(
            method=method,
            method_kwargs=METHOD_KWARGS.get(method, {}),
            **GOLDEN_SPEC,
        )
        result = run_oracle(spec)
        payload = {
            "spec": {"method": method,
                     "method_kwargs": METHOD_KWARGS.get(method, {}),
                     **GOLDEN_SPEC},
            "history": result.history.to_dict(),
            "per_round_unit": result.per_round_unit,
            "final_weights_sum": float(result.final_weights.sum()),
        }
        path = GOLDEN_DIR / f"{method}.json"
        path.write_text(json.dumps(payload, indent=1))
        print(f"wrote {path} (final acc {result.final_accuracy:.4f})")


if __name__ == "__main__":
    if sys.argv[1:] == ["events"]:
        write_event_matrix()
    elif sys.argv[1:] == ["population"]:
        write_population_matrix()
    else:
        main()
