"""Stacked-GEMM execution of one ``Sequential`` replicated across devices.

A federated round or completion wave trains P copies of the *same*
architecture, differing only in data and start point.
:class:`BatchedSequential` exploits that: it views a ``(P, dim)`` theta arena
as per-layer ``(P, in, out)`` weight stacks and runs forward/backward for any
row range of the P replicas at once as stacked GEMMs
(``np.matmul`` on ``(P, B, in) @ (P, in, out)`` dispatches one BLAS GEMM per
slice).  Gradients are written into a matching ``(P, dim)`` grad arena, so
the caller's optimizer math becomes whole-matrix ops over the arena.

Each participant's GEMM is computed independently per slice, so on BLAS
builds where a 2-D ``x @ W`` equals the corresponding slice of the stacked
product bitwise (the common case — verified by
``tests/nn/test_batched_sequential.py``), batched training is bit-identical
to the sequential path.  Where a BLAS build breaks that, results agree to
~1e-12 relative; see DESIGN.md §15 for the divergence policy.

Only the shapes the fast path needs are supported: ``Dense``/``ReLU`` stacks
(plus an optional leading ``Flatten``) under ``SoftmaxCrossEntropy``.
Anything else — convolutions, pooling, custom layers — reports
``supports() == False`` and the caller falls back to per-device training.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.losses import SoftmaxCrossEntropy

__all__ = ["BatchedSequential", "stacked_gemm_is_bitwise"]

_DENSE = 0
_RELU = 1


def stacked_gemm_is_bitwise() -> bool:
    """The BLAS canary: does this build compute stacked-matmul slices
    exactly like the corresponding 2-D GEMMs?  Where it does, batched
    training is bit-identical to the sequential path (tests and the perf
    suite then demand exact equality); where not, 1e-12 applies."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 7, 5))
    w = rng.normal(size=(3, 5, 4))
    stacked = np.matmul(x, w)
    back = np.matmul(x.transpose(0, 2, 1), stacked)
    return all(
        np.array_equal(stacked[i], x[i] @ w[i])
        and np.array_equal(back[i], x[i].T @ stacked[i])
        for i in range(3)
    )


def _plan(model):
    """Return ``(ops, None)`` for a batchable model, else ``(None, reason)``.

    ``ops`` is a list of ``(_DENSE, w_lo, fin, fout, b_lo)`` /  ``(_RELU,)``
    tuples; offsets index the flat parameter vector, mirroring the layout
    ``Sequential._build_flat`` builds (per layer: weight, then bias).
    """
    if type(getattr(model, "loss", None)) is not SoftmaxCrossEntropy:
        return None, "loss must be SoftmaxCrossEntropy"
    layers = getattr(model, "layers", None)
    if not layers:
        return None, "model has no layers"
    ops = []
    offset = 0
    for i, layer in enumerate(layers):
        kind = type(layer)
        if kind is Flatten:
            if i != 0:
                return None, "Flatten is only supported as the first layer"
        elif kind is Dense:
            fin, fout = layer.in_features, layer.out_features
            w_lo = offset
            b_lo = w_lo + fin * fout
            offset = b_lo + fout
            ops.append((_DENSE, w_lo, fin, fout, b_lo))
        elif kind is ReLU:
            ops.append((_RELU,))
        else:
            return None, f"unsupported layer type {kind.__name__}"
    if not ops or ops[0][0] is not _DENSE:
        return None, "model must start with a Dense layer (after Flatten)"
    if offset != model.dim:
        return None, "parameter layout mismatch"  # pragma: no cover
    return ops, None


class BatchedSequential:
    """P independent replicas of one MLP, executed as stacked GEMMs.

    ``bind`` attaches a ``(P, dim)`` theta arena and grad arena; the per-layer
    weight/bias stacks are zero-copy reshaped views into them, so updating the
    arena updates the models and ``loss_and_grad`` writes gradients straight
    into the grad arena.  Bind once, then execute on any row range
    ``[lo, hi)`` of the arena: a ragged wave trains a shrinking prefix, a
    lone tail batch a ``(1, dim)`` slice, without re-wiring the views.
    """

    def __init__(self, model) -> None:
        ops, reason = _plan(model)
        if ops is None:
            raise ValueError(f"model is not batchable: {reason}")
        self._ops = ops
        self.dim = int(model.dim)
        self.in_features = ops[0][2]
        for op in reversed(ops):
            if op[0] is _DENSE:
                self.num_classes = op[3]
                break
        self._theta = None
        self._grad = None
        self._w = None  # per-op tuple: (w_view, b_view, wg_view, bg_view)
        # fancy-index helpers for the cross-entropy gradient, grown on demand
        self._pidx = np.arange(0, dtype=np.intp)
        self._bidx = np.arange(0, dtype=np.intp)

    @staticmethod
    def supports(model) -> bool:
        """True when ``model`` can run on the batched engine."""
        ops, _ = _plan(model)
        return ops is not None

    def bind(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Attach ``(P, dim)`` theta/grad arenas; views persist until re-bind."""
        if theta.shape != grad.shape or theta.ndim != 2 or theta.shape[1] != self.dim:
            raise ValueError(
                f"expected matching (P, {self.dim}) arenas, "
                f"got {theta.shape} and {grad.shape}"
            )
        P = theta.shape[0]
        views = []
        for op in self._ops:
            if op[0] is _DENSE:
                _, w_lo, fin, fout, b_lo = op
                views.append(
                    (
                        theta[:, w_lo : w_lo + fin * fout].reshape(P, fin, fout),
                        theta[:, b_lo : b_lo + fout],
                        grad[:, w_lo : w_lo + fin * fout].reshape(P, fin, fout),
                        grad[:, b_lo : b_lo + fout],
                    )
                )
            else:
                views.append(None)
        self._theta = theta
        self._grad = grad
        self._w = views

    def _indices(self, P: int, B: int):
        if self._pidx.size < P:
            self._pidx = np.arange(P, dtype=np.intp)
        if self._bidx.size < B:
            self._bidx = np.arange(B, dtype=np.intp)
        return self._pidx[:P, None], self._bidx[None, :B]

    def loss_and_grad(
        self, x: np.ndarray, y: np.ndarray, lo: int = 0, hi: int | None = None
    ) -> None:
        """Overwrite grad-arena rows ``[lo, hi)`` (default: all) with the
        per-replica mean-CE gradients of those replicas.

        ``x`` is ``(hi - lo, B, in_features)`` float64, ``y`` is
        ``(hi - lo, B)`` integer class ids (validated by the caller, once
        per fleet); rows outside the range are not touched.  Replicates the
        sequential op order exactly — stacked ``matmul`` forward, shifted
        softmax, overwrite backward with ``np.add.reduce`` bias reduction and
        no input gradient at the first Dense — so each slice performs the same
        float ops as ``Sequential.loss_and_grad`` on that replica alone.
        """
        if self._w is None:
            raise RuntimeError("bind() must be called before loss_and_grad()")
        ops = self._ops
        rows = slice(lo, hi)
        # ---- forward, caching each Dense input and each ReLU mask ----
        caches = [None] * len(ops)
        cur = x
        for i, op in enumerate(ops):
            if op[0] is _DENSE:
                w, b = self._w[i][0][rows], self._w[i][1][rows]
                caches[i] = cur
                cur = np.matmul(cur, w)
                cur += b[:, None, :]
            else:
                caches[i] = cur > 0.0
                cur = np.maximum(cur, 0.0)
        logits = cur
        P, B, _ = logits.shape
        # ---- softmax cross-entropy gradient (mean over the batch axis) ----
        shifted = logits - logits.max(axis=2, keepdims=True)
        e = np.exp(shifted)
        s = e.sum(axis=2, keepdims=True)
        g = np.divide(e, s, out=e)
        p_idx, b_idx = self._indices(P, B)
        g[p_idx, b_idx, y] -= 1.0
        g /= B
        # ---- overwrite backward; stop before the first layer's input grad ----
        for i in range(len(ops) - 1, -1, -1):
            op = ops[i]
            if op[0] is _DENSE:
                x_l = caches[i]
                w, _, wg, bg = self._w[i]
                np.matmul(x_l.transpose(0, 2, 1), g, out=wg[rows])
                np.add.reduce(g, axis=1, out=bg[rows])
                if i == 0:
                    break
                g = np.matmul(g, w[rows].transpose(0, 2, 1))
            else:
                g *= caches[i]
