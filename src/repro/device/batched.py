"""Local SGD for many devices at once, as matrix math over the member axis.

:class:`BatchedTrainer` is the many-device counterpart of
:class:`~repro.device.device.LocalTrainer`.  The members of one call — a
barrier round's receivers, a FedAT tier round, a ring round's completion
wave, the in-flight units an event loop trains ahead — are independent SGD
runs of the same architecture that differ in data, start model and step
count.
What they share is the
**batch shape**: every full mini-batch is ``(batch_size, features)``
whatever the shard size.  So members are stacked by batch shape, not by
shard size (DESIGN.md §15): rows are ordered largest shard first, full-batch
step *j* runs as one stacked-GEMM pass
(:class:`~repro.nn.batched.BatchedSequential`) over the arena prefix of
members that still have a full batch, and each member's short tail batch
runs with the adjacent members of exactly its shard size.  The update
math (SGD step, FedProx pull, SCAFFOLD correction) runs as whole-matrix
ops over the same rows, mirroring ``LocalTrainer.train``'s fused scalar
path line for line.

Callers never pick a path: barrier rounds, SCAFFOLD, FedAT tier rounds,
ring waves and the event loop's train-ahead pool all train through
:func:`run_units`, the one place that decides between one stacked call and
the scalar loop.

Determinism contract: every member draws its epoch permutations from its
own ``(device_id, round_idx, unit_idx)`` stream — exactly the generator the
sequential path uses — so batched and sequential training see identical
shuffles.  The per-replica float ops are the same as the sequential path's,
so results are bit-identical wherever the BLAS build computes stacked-GEMM
slices exactly like their 2-D equivalents (and within ~1e-12 otherwise).
"""

from __future__ import annotations

import numpy as np

from repro.device.device import LocalTrainer
from repro.device.fleet import DeviceFleet
from repro.nn.batched import BatchedSequential

__all__ = ["BatchedTrainer", "run_units"]

#: Most members trained as one stack.  Python overhead per step is amortized
#: well before this width, and the three ``(width, dim)`` arenas plus one
#: batch of gathered samples per member stay a couple of MB however wide a
#: round or wave is; wider calls run as consecutive stacks.
_MAX_STACK = 16

#: Most results the event loop holds trained ahead of their ``unit_complete``
#: (``AsyncFederatedServer._train_ahead``): a wave that needs training
#: trains with the earliest-due other in-flight units, topping the pool up
#: to this many.  Twelve stacks' worth, so that sorting a pool of tail-only
#: shards by size lines up long runs of equal sizes (on ``async_churn``,
#: 192 instead of 96 cuts stacked steps by a third).  Costs at most this
#: many extra result vectors; an unbounded pool trains a little faster but
#: its RSS grows with the cohort.
_AHEAD = 192


class BatchedTrainer:
    """Trains the members of a round or wave as stacked model replicas."""

    def __init__(self, trainer: LocalTrainer, fleet: DeviceFleet) -> None:
        self.trainer = trainer
        self.fleet = fleet
        self.model = BatchedSequential(trainer.model)
        self.dim = trainer.dim
        x2d = fleet.x.reshape(fleet.x.shape[0], -1)
        if x2d.shape[1] != self.model.in_features:
            raise ValueError(
                f"fleet features ({x2d.shape[1]}) do not match the model's "
                f"input width ({self.model.in_features})"
            )
        self._x2d = x2d
        # The sequential loss validates targets per batch; the data block is
        # immutable after the fleet is built, so validate it once here.
        y = fleet.y
        if y.size and (int(y.min()) < 0 or int(y.max()) >= self.model.num_classes):
            raise ValueError(
                f"targets must be in [0, {self.model.num_classes}), "
                f"got range [{int(y.min())}, {int(y.max())}]"
            )
        self._y = y
        # One set of (width, dim) arenas, bound to the stacked model once;
        # every stack trains on a row range of them.
        width, batch = _MAX_STACK, trainer.batch_size
        self._theta = np.empty((width, self.dim))
        self._grad = np.empty((width, self.dim))
        self._scratch = np.empty((width, self.dim))
        self.model.bind(self._theta, self._grad)
        # One gathered mini-batch per member (features, targets), flat.
        self._xb = np.empty(width * batch * x2d.shape[1], dtype=x2d.dtype)
        self._yb = np.empty(width * batch, dtype=y.dtype)
        # One shuffle generator per stack row, re-seeded per stack.
        self._gens = [np.random.Generator(np.random.PCG64()) for _ in range(width)]
        # Per-member epoch permutations as fleet-block row indices, grown to
        # the largest shard seen.
        self._idx = np.empty((width, 0), dtype=np.intp)

    @staticmethod
    def supports(model) -> bool:
        """True when ``model`` can run on the batched engine."""
        return BatchedSequential.supports(model)

    def train_round(
        self,
        ids: np.ndarray,
        epochs: np.ndarray | int,
        round_idx: int,
        weights: np.ndarray,
        out: np.ndarray,
        anchor: np.ndarray | None = None,
        mu: float = 0.0,
        corrections: np.ndarray | None = None,
        unit_idx: np.ndarray | int = 0,
    ) -> np.ndarray:
        """Train every member; ``out[k]`` receives member ``k``'s result.

        ``ids`` are fleet device ids, ``epochs`` the per-member epoch counts
        and ``unit_idx`` the per-member training-unit indices (each aligned
        with ``ids``, or one value for all).  ``weights`` is the start
        model: one shared ``(dim,)`` vector (a broadcast), or one start
        vector per member; per-member starts and ``out`` are each a
        ``(len(ids), dim)`` matrix or a list of vectors.  ``corrections``,
        when given, is a ``(len(ids), dim)`` matrix of per-member additive
        gradient corrections (SCAFFOLD).  Returns the per-member SGD step
        counts.
        """
        ids = np.asarray(ids, dtype=np.intp)
        n = ids.size
        if not n:
            return np.empty(0, dtype=np.intp)
        ep = np.asarray(epochs)
        if ep.ndim == 0:
            ep = np.full(n, ep)
        if int(ep.min()) <= 0:
            raise ValueError(f"epochs must be positive, got {int(ep.min())}")
        units = np.asarray(unit_idx)
        if units.ndim == 0:
            units = np.full(n, units)
        trainer = self.trainer
        sizes = self.fleet.num_samples[ids]
        # Members of a stack share the epoch loop; inside an epoch group,
        # largest shard first makes the members that still have a full batch
        # at step j a prefix and puts equal sizes side by side.
        order = np.lexsort((-sizes, ep))
        by_order = ids[order]
        ep_of = ep[order].tolist()
        # Each member's own batch-shuffle stream: the PCG64 state of its
        # (device_id, round_idx, unit_idx) key, derived for the whole call at
        # once; then its shard size and fleet-block offset.
        states = trainer._seeds.pcg64_states(
            np.column_stack((by_order, np.full(n, round_idx), units[order]))
        )
        size_of = sizes[order].tolist()
        start_of = self.fleet.shard_starts[by_order].tolist()
        eta = trainer.lr
        if mu <= 0.0:
            anchor = None
        shared = isinstance(weights, np.ndarray) and weights.ndim == 1
        cap = len(self._theta)
        a = 0
        while a < n:
            b = a + 1
            while b < n and b - a < cap and ep_of[b] == ep_of[a]:
                b += 1
            pos = order[a:b]
            rows = list(zip(self._theta, pos.tolist()))
            if shared:
                self._theta[: b - a] = weights
            else:
                for row, p in rows:
                    row[:] = weights[p]
            corr = None if corrections is None else corrections[pos]
            # The stack's streams run on the pooled generators, kept live
            # across epochs so successive permutations continue each stream
            # exactly like the sequential path does.
            for gen, state in zip(self._gens, states[a:b]):
                gen.bit_generator.state = state
            members = list(zip(self._gens, size_of[a:b], start_of[a:b]))
            self._train_stack(members, ep_of[a], eta, anchor, mu, corr)
            for row, p in rows:
                out[p][:] = row
            a = b
        return ep * -(-sizes // trainer.batch_size)

    def _train_stack(
        self,
        members: list[tuple[np.random.Generator, int, int]],
        epochs: int,
        eta: float,
        anchor: np.ndarray | None,
        mu: float,
        corr: np.ndarray | None,
    ) -> None:
        """``epochs`` epochs in place on the leading arena rows, one per
        ``(shuffle stream, shard size, fleet-block offset)`` member; sizes
        are non-increasing."""
        batch = self.trainer.batch_size
        P = len(members)
        sizes = [n for _, n, _ in members]
        # Full-batch step j trains the prefix of members with more than j
        # full batches; a member's tail batch trains with the run of
        # neighbours of exactly its size (a run of one is a (1, dim) slice).
        # ``steps`` lists both as (first row, end row, first sample, end
        # sample) in execution order.
        steps = []
        width = P
        for j in range(sizes[0] // batch):
            while sizes[width - 1] < (j + 1) * batch:
                width -= 1
            steps.append((0, width, j * batch, (j + 1) * batch))
        a = 0
        while a < P:
            n = sizes[a]
            b = a + 1
            while b < P and sizes[b] == n:
                b += 1
            if n % batch:
                steps.append((a, b, n - n % batch, n))
            a = b
        if self._idx.shape[1] < sizes[0]:
            self._idx = np.empty((len(self._theta), sizes[0]), dtype=np.intp)
        idx = self._idx
        for _ in range(epochs):
            for p, (gen, n, start) in enumerate(members):
                np.add(gen.permutation(n), start, out=idx[p, :n])
            for a, b, lo, hi in steps:
                x, y = self._gather(idx[a:b, lo:hi])
                self.model.loss_and_grad(x, y, a, b)
                theta = self._theta[a:b]
                grad = self._grad[a:b]
                scratch = self._scratch[a:b]
                if corr is not None:
                    grad += corr[a:b]
                if anchor is not None:
                    np.subtract(theta, anchor, out=scratch)
                    scratch *= mu
                    grad += scratch
                np.multiply(grad, eta, out=scratch)
                theta -= scratch

    def _gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The samples at fleet-block ``rows`` (members x batch) as
        contiguous ``(members, batch, features)`` / ``(members, batch)``
        views of the batch buffers."""
        k, t = rows.shape
        feat = self._x2d.shape[1]
        x = self._xb[: k * t * feat].reshape(k, t, feat)
        y = self._yb[: k * t].reshape(k, t)
        # mode="clip": the indices are in range by construction, and the
        # default mode would stage the result in a temporary first.
        np.take(self._x2d, rows, axis=0, out=x, mode="clip")
        np.take(self._y, rows, out=y, mode="clip")
        return x, y


def _per_member(value: np.ndarray | int, n: int) -> list:
    """One value, or one per member, as ``n`` Python scalars (numpy scalars
    must not leak into rng stream keys).  Cheaper than ``np.broadcast_to``
    for the scalar case, which waves of one hit once per unit."""
    value = np.asarray(value)
    return [value.item()] * n if value.ndim == 0 else value.tolist()


def run_units(
    batched: BatchedTrainer | None,
    fleet: DeviceFleet,
    ids: np.ndarray,
    epochs: np.ndarray | int,
    round_idx: int,
    starts: np.ndarray | list[np.ndarray],
    out: np.ndarray | list[np.ndarray],
    anchor: np.ndarray | None = None,
    mu: float = 0.0,
    corrections: np.ndarray | None = None,
    unit_idx: np.ndarray | int = 0,
    sync: bool = False,
) -> np.ndarray:
    """Train one unit per member: the single entry point for training many
    devices, and the only code that decides how.

    Member ``k`` is fleet device ``ids[k]``; it trains ``epochs`` epochs
    (one value, or one per member) of unit ``unit_idx`` (likewise) on its
    ``(device_id, round_idx, unit_idx)`` stream, from ``starts`` (one
    shared ``(dim,)`` vector, or one start per member) into ``out[k]``,
    with the optional FedProx pull toward ``anchor`` and the per-member
    SCAFFOLD ``corrections`` rows.  Returns the per-member SGD step counts.

    Two or more members on a stackable model train as one
    ``batched.train_round`` call; anything else — a wave of one (a
    TAFedAvg unit, which starts from the previous mix), a model the engine
    cannot stack (``batched`` is None), or the scalar oracle
    (``server.batched_trainer = None``) — calls ``LocalTrainer.train`` once
    per member.  Callers then run their codec/drop/send bookkeeping over
    ``out`` in member order, so every rng draw and meter charge keeps its
    place.  ``sync=True`` snapshots each result into its device's row of
    the registered round arena (``fleet.set_weights``), for callers that
    train into staging buffers while the fleet rows stay readable (the
    ring engine, FedAT tiers); callers that trained straight into the
    arena's rows, or keep results to themselves, leave it off.  There is
    no other way to train a device.
    """
    ids = np.asarray(ids, dtype=np.intp)
    # A wave of one stays scalar: stacking it buys no GEMM width and pays
    # the stacked call's fixed cost.  TAFedAvg on ``lab`` (beta 0.3, 12
    # interleaved passes over its 100 devices, 2-vCPU box): median 390 us
    # per unit through ``LocalTrainer.train`` against 456 us through a
    # width-1 ``train_round``, outputs bitwise equal.
    if batched is not None and len(ids) >= 2:
        steps = batched.train_round(
            ids, epochs, round_idx, starts, out, anchor=anchor, mu=mu,
            corrections=corrections, unit_idx=unit_idx,
        )
    else:
        n = len(ids)
        epochs_of = _per_member(epochs, n)
        units = _per_member(unit_idx, n)
        shared = isinstance(starts, np.ndarray) and starts.ndim == 1
        train = fleet.trainer.train
        steps = np.empty(n, dtype=np.intp)
        for k, dev_id in enumerate(ids.tolist()):
            _, steps[k] = train(
                starts if shared else starts[k],
                fleet.shard(dev_id),
                epochs_of[k],
                stream_key=(dev_id, round_idx, units[k]),
                anchor=anchor,
                mu=mu,
                correction=None if corrections is None else corrections[k],
                out=out[k],
            )
    if sync:
        for dev_id, row in zip(ids.tolist(), out):
            fleet.set_weights(dev_id, row)
    return steps
