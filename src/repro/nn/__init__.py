"""Pure-NumPy neural-network substrate.

The paper trains PyTorch models; this offline reproduction provides an
equivalent minimal framework: layer objects with explicit ``forward`` /
``backward``, a softmax cross-entropy loss head, and flat parameter-vector
serialization so federated-learning code can treat a model as a point in
:math:`\\mathbb{R}^d`.  The SGD step itself is not here: it lives once in
:class:`~repro.device.device.LocalTrainer` (and its stacked twin,
:class:`~repro.device.batched.BatchedTrainer`).

All trainable scalars of a :class:`~repro.nn.models.Sequential` live in one
contiguous ``theta`` vector (gradients in a matching ``grad`` vector) that
every ``Parameter`` views, so serialization is a single copy and the SGD
step runs as whole-vector BLAS ops — see DESIGN.md, "Flat-buffer memory
model".

Public API
----------
- :class:`~repro.nn.layers.Dense`, :class:`~repro.nn.layers.Conv2d`,
  :class:`~repro.nn.layers.ReLU`, :class:`~repro.nn.layers.MaxPool2d`,
  :class:`~repro.nn.layers.Flatten`
- :class:`~repro.nn.models.Sequential` plus the paper's two architectures
  :func:`~repro.nn.models.paper_mlp` and :func:`~repro.nn.models.paper_cnn`
- :class:`~repro.nn.losses.SoftmaxCrossEntropy`
- :class:`~repro.nn.optim.InverseTimeLR`, the Theorem 5.1 schedule
- :func:`~repro.nn.serialization.get_flat_params`,
  :func:`~repro.nn.serialization.set_flat_params`
"""

from repro.nn.tensor import Parameter
from repro.nn.layers import Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.models import Sequential, logistic_model, paper_cnn, paper_mlp
from repro.nn.optim import InverseTimeLR
from repro.nn.serialization import (
    get_flat_grads,
    get_flat_params,
    num_params,
    set_flat_params,
)

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "Conv2d",
    "ReLU",
    "Flatten",
    "MaxPool2d",
    "Loss",
    "SoftmaxCrossEntropy",
    "Sequential",
    "paper_mlp",
    "paper_cnn",
    "logistic_model",
    "InverseTimeLR",
    "get_flat_params",
    "set_flat_params",
    "get_flat_grads",
    "num_params",
]
