"""The paper's Non-IID divergence metric (Section 3.2, Eq. 4).

``D = sum_i sum_j | p_i(y=j) - p(y=j) |`` measures how far each device's
label distribution sits from the global one; the paper argues final-model
accuracy falls as D grows, and — because D is uncomputable on private data
— proposes the *empirical proxy*: the overall-test-set accuracy of a model
trained only on one device ("the higher the accuracy ... the closer the
data label distribution of the device is to the overall distribution").
Both forms are implemented.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.device.fleet import DeviceFleet
from repro.nn.serialization import set_flat_params

__all__ = ["per_device_divergence", "label_divergence", "empirical_divergence_proxy"]


def _distributions(label_hist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    label_hist = np.asarray(label_hist, dtype=np.float64)
    if label_hist.ndim != 2:
        raise ValueError(f"expected (devices, classes) histogram, got {label_hist.shape}")
    totals = label_hist.sum(axis=1, keepdims=True)
    if np.any(totals == 0):
        raise ValueError("every device needs at least one sample")
    p_i = label_hist / totals
    p_global = label_hist.sum(axis=0) / label_hist.sum()
    return p_i, p_global


def per_device_divergence(label_hist: np.ndarray) -> np.ndarray:
    """L1 distance of each device's label distribution from the global."""
    p_i, p_global = _distributions(label_hist)
    return np.abs(p_i - p_global).sum(axis=1)


def label_divergence(label_hist: np.ndarray) -> float:
    """Eq. (4): total divergence across devices."""
    return float(per_device_divergence(label_hist).sum())


def empirical_divergence_proxy(
    devices: DeviceFleet,
    test_set: ClassificationDataset,
    weight_stacks: np.ndarray,
) -> float:
    """Mean overall-test accuracy of per-device models (higher = closer to
    the global distribution = smaller effective D).

    ``weight_stacks`` is (num_devices, dim): each device's fully trained
    flat model.  All devices share one trainer/model template.
    """
    if weight_stacks.shape[0] != len(devices):
        raise ValueError("one weight vector per device required")
    model = devices.trainer.model
    accs = np.empty(len(devices))
    for i, w in enumerate(weight_stacks):
        set_flat_params(model, w)
        accs[i] = model.accuracy(test_set.x, test_set.y)
    return float(accs.mean())
