"""Local training: the one SGD routine every device's unit runs.

A device is an id into a :class:`~repro.device.fleet.DeviceFleet` (shard
bounds, unit time, a round-arena weight row); there is no per-device
object.  A single shared model instance per architecture executes every
device's training (the simulation is single-threaded), so parameters are
swapped in and out via the flat-vector serialization — 100 devices cost
100 vectors, not 100 models.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.nn.models import Sequential
from repro.utils.rng import SeedSequenceFactory

__all__ = ["LocalTrainer"]


class LocalTrainer:
    """Runs epochs of mini-batch SGD on a shard, weights-in/weights-out.

    One trainer (and its model template) is shared across all devices of a
    simulation.  ``train`` optionally applies

    * a FedProx proximal pull toward ``anchor`` with strength ``mu``, and/or
    * a SCAFFOLD-style additive gradient ``correction`` (flat vector),

    which is how every algorithm in :mod:`repro.baselines` reuses this one
    code path.
    """

    def __init__(
        self,
        model: Sequential,
        lr: float = 0.1,
        batch_size: int = 50,
        seed: int | None = 0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.lr = lr
        self.batch_size = batch_size
        self._seeds = SeedSequenceFactory(seed)
        self.dim = model.dim
        # Reusable d-vector for the fused update math (one per trainer; the
        # simulation is single-threaded so one scratch buffer serves every
        # device that shares this trainer).
        self._scratch = np.empty(self.dim, dtype=np.float64)
        # Reusable per-epoch gather destinations, grown to the largest shard
        # seen so the per-epoch shuffle is one ``np.take(..., out=...)``
        # instead of a fresh fancy-index allocation per epoch per device.
        self._x_epoch: np.ndarray | None = None
        self._y_epoch: np.ndarray | None = None

    def _epoch_buffers(
        self, x: np.ndarray, y: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Length-``n`` views of the reusable epoch gather buffers."""
        xb = self._x_epoch
        if xb is None or xb.shape[0] < n or xb.shape[1:] != x.shape[1:] or xb.dtype != x.dtype:
            cap = n if xb is None else max(n, xb.shape[0])
            self._x_epoch = xb = np.empty((cap,) + x.shape[1:], dtype=x.dtype)
        yb = self._y_epoch
        if yb is None or yb.shape[0] < n or yb.shape[1:] != y.shape[1:] or yb.dtype != y.dtype:
            cap = n if yb is None else max(n, yb.shape[0])
            self._y_epoch = yb = np.empty((cap,) + y.shape[1:], dtype=y.dtype)
        return xb[:n], yb[:n]

    def train(
        self,
        weights: np.ndarray,
        shard: ClassificationDataset,
        epochs: int,
        stream_key: tuple[int, ...] = (0,),
        anchor: np.ndarray | None = None,
        mu: float = 0.0,
        correction: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int]:
        """Train ``epochs`` passes starting from ``weights``.

        Returns ``(new_weights, num_sgd_steps)``.  ``stream_key`` selects
        the batch-shuffling stream so results are reproducible regardless
        of device scheduling order.  ``out``, when given, receives the
        trained vector in place (and is returned) so callers that own a
        destination row — the fleet round matrix — skip the fresh
        allocation.

        The per-batch update runs as whole-vector ops on the model's flat
        ``theta`` / ``grad`` buffers: the SGD step at the fixed rate
        ``self.lr``, the FedProx proximal pull, and the SCAFFOLD correction
        are each one BLAS-level operation over R^d rather than a Python
        loop over layers.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if len(shard) == 0:
            raise ValueError("cannot train on an empty shard")
        eta = self.lr
        model = self.model
        model.set_flat(weights)
        theta = model.theta
        grad = model.grad
        scratch = self._scratch
        rng = self._seeds.generator(*stream_key)
        prox = anchor is not None and mu > 0.0
        steps = 0
        n = len(shard)
        x_epoch, y_epoch = self._epoch_buffers(shard.x, shard.y, n)
        for _ in range(epochs):
            order = rng.permutation(n)
            # One shard-sized gather per epoch into the reused buffers;
            # batches are then contiguous views instead of per-batch
            # fancy-index copies.
            np.take(shard.x, order, axis=0, out=x_epoch)
            np.take(shard.y, order, axis=0, out=y_epoch)
            for start in range(0, n, self.batch_size):
                stop = start + self.batch_size
                # loss_and_grad leaves grad holding exactly this batch's
                # gradient (overwriting backward) — no zero fill needed.
                model.loss_and_grad(x_epoch[start:stop], y_epoch[start:stop])
                if correction is not None:
                    grad += correction
                if prox:
                    np.subtract(theta, anchor, out=scratch)
                    scratch *= mu
                    grad += scratch
                np.multiply(grad, eta, out=scratch)
                theta -= scratch
                steps += 1
        if out is None:
            return theta.copy(), steps
        np.copyto(out, theta)
        return out, steps
