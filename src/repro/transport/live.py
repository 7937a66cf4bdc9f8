"""The live backend: real worker processes, real UDP datagrams.

``LiveTransport`` runs the round loop's device training in ``workers``
OS processes (one coordinator endpoint + N worker endpoints exchanging
framed datagrams over loopback, :mod:`repro.transport.frames`).  It only
moves bytes and reports which updates arrived: the coordinator's server
meters, charges the virtual clock, draws drops and aggregates with the
same channel code the simulator runs.  That shared code is the
cross-validation contract:

* under the identity codec a clean live run is **bit-identical** to the
  ``sim`` transport (same meter calls, same clock charges, same
  training streams, same aggregation order — only the bytes physically
  move);
* under lossy codecs the bytes on the wire are exactly the bytes the
  simulator charges (``Encoded.to_bytes`` ↔ ``nbytes``), and accuracy
  tracks the simulated run within stochastic-rounding tolerance.

Failure handling mirrors PR 7's heartbeat semantics at process
granularity: every worker beats on a timer; a worker silent past
``heartbeat_interval * miss_limit`` is *parked* (counted as one
injected + detected crash — the external kill is real, and the detector
caught it), its devices excluded from subsequent dispatch, its partial
transfers discarded.  A parked worker that speaks again rejoins
(``false_suspicions += 1``).  Every round additionally carries a wall
``round_timeout`` so a killed worker can never hang the run: the round
completes with the updates that arrived, exactly like a PR 7 round
deadline.

Supported specs: the synchronous FedAvg family (``fedavg``,
``fedprox``, ``tfedavg``) on drop-free environments without injected
faults — everything else raises at spec-validation time.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.compression.base import PAYLOAD_KIND_CODES, PAYLOAD_KINDS, Encoded
from repro.transport.base import LiveTransportStats, Transport
from repro.transport.endpoint import Addr, Endpoint
from repro.transport.frames import (
    COORDINATOR_RANK,
    MSG_BYE,
    MSG_HEARTBEAT,
    MSG_JOIN,
    MSG_JOIN_ACK,
    MSG_MODEL,
    MSG_ROUND,
    MSG_SHUTDOWN,
    MSG_UPDATE,
    NO_DEVICE,
    Frame,
)
from repro.transport.registry import register_transport
from repro.transport.worker import worker_main

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.server import FederatedServer

__all__ = ["LiveTransport", "LIVE_CAPABLE_METHODS"]

#: Methods whose round loop runs entirely through the three transport
#: hooks.  Async/semi-async/gossip methods drive the channel at event
#: granularity and stay sim-only for now.
LIVE_CAPABLE_METHODS = frozenset({"fedavg", "fedprox", "tfedavg"})


@register_transport(
    "live",
    "real OS worker processes over loopback UDP, cross-validated "
    "against the simulator",
)
class LiveTransport(Transport):
    name = "live"
    description = (
        "coordinator + N worker processes exchanging framed UDP "
        "datagrams; sim-identical metering and aggregation"
    )

    def __init__(
        self,
        workers: int = 2,
        chunk_bytes: int = 1200,
        rto: float = 0.05,
        max_attempts: int = 20,
        heartbeat_interval: float = 0.25,
        miss_limit: int = 8,
        round_timeout: float = 60.0,
        join_timeout: float = 15.0,
        idle_timeout: float = 60.0,
        kill_rank: int | None = None,
        kill_round: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"live transport needs >= 1 worker, got {workers}")
        self.workers = int(workers)
        self.chunk_bytes = int(chunk_bytes)
        self.rto = float(rto)
        self.max_attempts = int(max_attempts)
        self.heartbeat_interval = float(heartbeat_interval)
        self.miss_limit = int(miss_limit)
        self.round_timeout = float(round_timeout)
        self.join_timeout = float(join_timeout)
        self.idle_timeout = float(idle_timeout)
        # Chaos knobs (tests/CI): SIGKILL worker ``kill_rank`` right after
        # round ``kill_round`` is dispatched to it.
        self.kill_rank = kill_rank
        self.kill_round = kill_round

        self.live_stats = LiveTransportStats()
        self.ep: Endpoint | None = None
        self._procs: list[multiprocessing.Process] = []
        self._addrs: dict[int, Addr] = {}
        self._last_seen: dict[int, float] = {}
        self._parked: set[int] = set()
        self._started = False
        self._down = False
        # (round_idx, device_id) -> (kind_code, param, payload bytes)
        self._updates: dict[tuple[int, int], tuple[int, int, bytes]] = {}
        self._last_view: np.ndarray | None = None
        # device_id -> wire model_units of the last round's arrived updates
        self._arrived: dict[int, float] | None = None

    # ----------------------------------------------------------- validation

    def validate_spec(self, spec: Any) -> None:
        from repro.env.registry import make_environment

        if spec.method not in LIVE_CAPABLE_METHODS:
            raise ValueError(
                f"transport 'live' supports methods "
                f"{sorted(LIVE_CAPABLE_METHODS)}, got {spec.method!r}"
            )
        env = make_environment(spec.env, **spec.env_kwargs)
        drop_prob = env.network.drop_prob
        if drop_prob > 0.0:
            raise ValueError(
                "transport 'live' needs a drop-free environment "
                f"(env {spec.env!r} has drop_prob={drop_prob}); real loss "
                "is handled by the datagram layer, not simulated drops"
            )
        if spec.faults != "none":
            raise ValueError(
                "transport 'live' cannot run injected fault models "
                f"(faults={spec.faults!r}); kill real workers instead "
                "(kill_rank/kill_round transport kwargs)"
            )

    # ------------------------------------------------------------ lifecycle

    def _spec_dict(self) -> dict:
        spec = self.spec
        if spec is None:
            raise RuntimeError("live transport was never bound to a spec")
        return spec.to_dict()

    def start(self) -> None:
        """Spawn the worker fleet and wait for every rank to join."""
        if self._started:
            return
        self._started = True
        self.ep = Endpoint(
            COORDINATOR_RANK,
            stats=self.live_stats,
            chunk_bytes=self.chunk_bytes,
            rto=self.rto,
            max_attempts=self.max_attempts,
        )
        self.ep.on(MSG_JOIN, self._on_join)
        self.ep.on(MSG_HEARTBEAT, self._on_heartbeat)
        self.ep.on(MSG_UPDATE, self._on_update)
        self.ep.on(MSG_BYE, self._on_bye)

        spec_dict = self._spec_dict()
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            ctx = multiprocessing.get_context("spawn")
        for rank in range(self.workers):
            proc = ctx.Process(
                target=worker_main,
                args=(
                    spec_dict,
                    rank,
                    self.workers,
                    self.ep.port,
                    self.chunk_bytes,
                    self.rto,
                    self.max_attempts,
                    self.heartbeat_interval,
                    self.join_timeout,
                    self.idle_timeout,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

        deadline = time.monotonic() + self.join_timeout
        while len(self._addrs) < self.workers:
            if time.monotonic() > deadline:
                missing = sorted(set(range(self.workers)) - set(self._addrs))
                self.shutdown()
                raise RuntimeError(
                    f"live transport: workers {missing} never joined "
                    f"within {self.join_timeout}s"
                )
            self.ep.pump(timeout=0.05)

    def shutdown(self) -> None:
        """Stop workers and close the endpoint; idempotent, never raises."""
        if self._down:
            return
        self._down = True
        if self.ep is not None:
            for addr in self._addrs.values():
                self.ep.send_control(MSG_SHUTDOWN, addr)
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stubborn worker
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover
                proc.kill()
                proc.join(timeout=1.0)
        self._procs.clear()
        if self.ep is not None:
            self.ep.close()
            self.ep = None

    def __del__(self) -> None:  # pragma: no cover - last-resort cleanup
        try:
            self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------- handlers

    def _on_join(self, frame: Frame, payload: bytes, addr: Addr) -> None:
        self._addrs[frame.rank] = addr
        self._last_seen[frame.rank] = time.monotonic()
        assert self.ep is not None
        self.ep.send_control(MSG_JOIN_ACK, addr)

    def _on_heartbeat(self, frame: Frame, payload: bytes, addr: Addr) -> None:
        self._last_seen[frame.rank] = time.monotonic()

    def _on_update(self, frame: Frame, payload: bytes, addr: Addr) -> None:
        self._last_seen[frame.rank] = time.monotonic()
        self._updates[(frame.round_idx, frame.device_id)] = (
            frame.kind, frame.param, payload,
        )

    def _on_bye(self, frame: Frame, payload: bytes, addr: Addr) -> None:
        if not self._down:
            # A worker leaving mid-run is a crash in all but name.
            self._park(frame.rank)

    # -------------------------------------------------- failure bookkeeping

    def _park(self, rank: int) -> None:
        if rank in self._parked or rank not in self._addrs:
            return
        self._parked.add(rank)
        self.live_stats.workers_parked += 1
        self.live_stats.heartbeat_misses += self.miss_limit
        # The kill was external and real; the detector caught it — one
        # injected, one detected crash, mirroring PR 7's ledger.
        res = self.server.resilience
        res.injected_crashes += 1
        res.detected_crashes += 1
        if self.ep is not None:
            self.ep.forget_peer(self._addrs[rank], rank)

    def _rejoin(self, rank: int) -> None:
        self._parked.discard(rank)
        self.live_stats.workers_rejoined += 1
        self.server.resilience.false_suspicions += 1

    def _check_liveness(self, baseline: dict[int, float]) -> None:
        now = time.monotonic()
        window = self.heartbeat_interval * self.miss_limit
        for rank in range(self.workers):
            seen = self._last_seen.get(rank, 0.0)
            if rank in self._parked:
                if seen > baseline.get(rank, 0.0):
                    self._rejoin(rank)
            elif now - max(seen, baseline.get(rank, 0.0)) > window:
                self._park(rank)

    def _owner(self, device_id: int) -> int:
        return int(device_id) % self.workers

    # ---------------------------------------------------------- round legs

    def downlink(
        self,
        server: "FederatedServer",
        weights: np.ndarray,
        enc: Encoded | None,
        view: np.ndarray,
    ) -> None:
        """Ship the broadcast payload to every non-parked worker as one
        chunked UDP transfer: the raw float64 vector under the identity
        codec, ``enc``'s wire bytes otherwise."""
        self.start()
        assert self.ep is not None
        if enc is None:
            blob = np.ascontiguousarray(weights, dtype=np.float64).tobytes()
            kind_code, param = PAYLOAD_KIND_CODES["raw"], 0
        else:
            blob = enc.to_bytes()
            kind_code, param = PAYLOAD_KIND_CODES[enc.kind], enc.param
        self._last_view = view
        for rank, addr in self._addrs.items():
            if rank in self._parked:
                continue
            self.ep.send_blob(
                MSG_MODEL,
                addr,
                blob,
                kind=kind_code,
                param=param,
                round_idx=server.current_round,
                device_id=NO_DEVICE,
                dim=weights.size,
            )

    def train_round(
        self,
        server: "FederatedServer",
        ids: np.ndarray,
        stack: np.ndarray,
        epochs: np.ndarray,
        round_idx: int,
        global_weights: np.ndarray,
        anchor: np.ndarray | None = None,
        mu: float = 0.0,
    ) -> None:
        """Dispatch ROUND control to the owning workers, reassemble their
        UPDATE transfers into ``stack``, decode in place.

        Lossy-proximal anchors other than the broadcast view would need
        their own transfer leg; the live-capable methods never produce
        one (fedprox anchors on the view).
        """
        self.start()
        assert self.ep is not None
        if anchor is not None and anchor is not self._last_view:
            raise RuntimeError(
                "live transport only supports anchoring on the broadcast "
                "view (fedprox); got a foreign anchor vector"
            )
        id_list = ids.tolist()
        index_of = {dev_id: i for i, dev_id in enumerate(id_list)}

        by_rank: dict[int, list[list[int]]] = {}
        for i, dev_id in enumerate(id_list):
            by_rank.setdefault(self._owner(dev_id), []).append(
                [dev_id, int(epochs[i])]
            )
        expected: set[int] = set()
        for rank, devices in by_rank.items():
            if rank in self._parked or rank not in self._addrs:
                continue
            control = json.dumps(
                {"devices": devices, "mu": float(mu), "anchor": anchor is not None}
            ).encode("utf-8")
            self.ep.send_blob(
                MSG_ROUND,
                self._addrs[rank],
                control,
                round_idx=round_idx,
                device_id=NO_DEVICE,
            )
            expected.update(dev_id for dev_id, _ in devices)
        self.live_stats.rounds_dispatched += 1

        if (
            self.kill_rank is not None
            and round_idx == self.kill_round
            and 0 <= self.kill_rank < len(self._procs)
            and self._procs[self.kill_rank].is_alive()
        ):
            self._procs[self.kill_rank].kill()

        # Liveness baseline: a coordinator-side stall (eval between
        # rounds) must not read as worker silence, so the park window
        # starts at loop entry, not at the last pre-stall datagram.
        now = time.monotonic()
        baseline = {rank: now for rank in range(self.workers)}
        deadline = now + self.round_timeout
        arrived: dict[int, float] = {}  # device_id -> wire model_units
        codec = server.codec
        while True:
            self.ep.pump(timeout=0.02)
            for dev_id in list(expected):
                entry = self._updates.pop((round_idx, dev_id), None)
                if entry is None:
                    continue
                kind_code, param, blob = entry
                i = index_of[dev_id]
                if codec.is_identity:
                    stack[i] = np.frombuffer(blob, dtype=np.float64)
                    arrived[dev_id] = 1.0
                else:
                    enc = Encoded.from_bytes(
                        blob,
                        PAYLOAD_KINDS[kind_code],
                        global_weights.size,
                        reference=self._last_view,
                        param=param,
                    )
                    stack[i] = codec.decode(enc)
                    arrived[dev_id] = enc.model_units
                expected.discard(dev_id)
            if not expected:
                break
            self._check_liveness(baseline)
            still_live = {
                dev_id
                for dev_id in expected
                if self._owner(dev_id) not in self._parked
            }
            if not still_live:
                break  # every missing update belongs to a dead worker
            if time.monotonic() > deadline:
                self.server.resilience.deadline_hits += 1
                break
        self._arrived = arrived

    def uplink(
        self,
        server: "FederatedServer",
        ids: np.ndarray,
        stack: np.ndarray,
        reference: np.ndarray | dict[int, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The senders whose updates really arrived.

        ``train_round`` already decoded each arriving update into its
        ``stack`` row; a killed worker's devices simply never make the
        list (the round-deadline fallback shape).
        """
        arrived = self._arrived
        if arrived is None:
            raise RuntimeError("collect_models before train_round on live")
        self._arrived = None
        present = np.flatnonzero([dev_id in arrived for dev_id in ids.tolist()])
        if not len(present):
            raise RuntimeError(
                "live round produced no updates (all workers dead?)"
            )
        units = None
        if not server.codec.is_identity:
            units = np.array([arrived[d] for d in ids[present].tolist()])
        return present, stack, units

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict[str, float]:
        return self.live_stats.snapshot()
