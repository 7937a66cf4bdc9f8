"""Loss functions pairing a scalar value with the logit gradient."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import log_softmax, softmax

__all__ = ["Loss", "SoftmaxCrossEntropy"]


class Loss:
    """Interface: ``value`` and ``grad`` of the empirical risk on a batch."""

    def value(self, logits: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Fused ``(value, grad)``; the default runs the two passes.

        Subclasses override this to share the expensive intermediates
        (softmax normalization, residuals) between the two results; the
        fused outputs must stay bitwise identical to the separate calls.
        """
        return self.value(logits, targets), self.grad(logits, targets)


class SoftmaxCrossEntropy(Loss):
    """Mean softmax cross-entropy over integer class targets."""

    def __init__(self) -> None:
        self._rows = np.empty(0, dtype=np.intp)  # cached arange, grown on demand

    def _row_index(self, n: int) -> np.ndarray:
        if self._rows.size < n:
            self._rows = np.arange(max(n, 256), dtype=np.intp)
        return self._rows[:n]

    def value(self, logits: np.ndarray, targets: np.ndarray) -> float:
        self._check(logits, targets)
        logp = log_softmax(logits, axis=1)
        n = logits.shape[0]
        return float(-logp[np.arange(n), targets].mean())

    def grad(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self._check(logits, targets)
        n = logits.shape[0]
        g = softmax(logits, axis=1)
        g[np.arange(n), targets] -= 1.0
        g /= n
        return g

    def value_and_grad(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """One shifted-exponential computation feeds both outputs.

        Mirrors ``log_softmax`` (for the value) and ``softmax`` (for the
        gradient) operation-for-operation so the results are bitwise equal
        to the unfused ``value`` + ``grad`` pair.
        """
        self._check(logits, targets)
        n = logits.shape[0]
        rows = self._row_index(n)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        s = e.sum(axis=1, keepdims=True)
        g = np.divide(e, s, out=e)  # e is not needed again; reuse for g
        np.log(s, out=s)  # s is consumed; reuse it for log Z
        value = float(-((shifted[rows, targets] - s[:, 0]).sum() / n))
        g[rows, targets] -= 1.0
        g /= n
        return value, g

    @staticmethod
    def _check(logits: np.ndarray, targets: np.ndarray) -> None:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, C), got {logits.shape}")
        if targets.shape != (logits.shape[0],):
            raise ValueError(
                f"targets must be (N,)={logits.shape[0]}, got {targets.shape}"
            )
        if targets.size:
            if targets.dtype == np.int64 and targets.flags.c_contiguous:
                # One reduction: any negative reinterprets as a huge uint64.
                if int(targets.view(np.uint64).max()) >= logits.shape[1]:
                    raise ValueError("target class index out of range")
            elif targets.min() < 0 or targets.max() >= logits.shape[1]:
                raise ValueError("target class index out of range")
