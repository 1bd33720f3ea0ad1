"""The pixel-wise segmentation loss and one training step of the network.

``pixel_loss`` is the mean over pixels of the cross-entropy between the
class logits and an integer labelling, as TransUNet and TransUKAN train
with; ``step`` runs one forward, that loss and the backward.
"""

from __future__ import annotations

import numpy as np

from transukan import tensor as T
from transukan.network import TransUKanModel, forward
from transukan.tensor import ContractError, DimensionError, Tensor


def pixel_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over pixels of -log softmax(logits)[label]: (B, C, H, W) ``logits``
    against integer (B, H, W) ``labels`` in [0, C). The one-hot target is
    built in the logits' dtype, so the loss is in it too."""
    T.check_type("pixel_loss", "logits", logits, Tensor)
    T.check_type("pixel_loss", "labels", labels, np.ndarray)
    if logits.ndim != 4 or labels.shape != logits.shape[:1] + logits.shape[2:] \
            or labels.size == 0:
        raise DimensionError(f"pixel_loss expects (B, C, H, W) logits and non-empty "
                             f"(B, H, W) labels, got {logits.shape} and {labels.shape}")
    n_classes = logits.shape[1]
    if labels.dtype.kind not in "iu":
        raise ContractError(f"pixel_loss: labels must be integers, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError(f"pixel_loss: labels must lie in [0, {n_classes}), got "
                            f"[{labels.min()}, {labels.max()}]")
    target = np.eye(n_classes, dtype=logits.data.dtype)[labels].transpose(0, 3, 1, 2)
    picked = T.mul(T.log_softmax(logits, axis=1), Tensor(target))
    return T.scale(T.sum_all(picked), -1.0 / labels.size)


def step(model: TransUKanModel, images: Tensor, labels: np.ndarray) -> tuple[Tensor, Tensor]:
    """One training step: ``forward``, ``pixel_loss`` and ``T.backward``,
    which adds each parameter's gradient to its ``grad``. Returns
    ``(loss, logits)``."""
    logits = forward(images, model)
    loss = pixel_loss(logits, labels)
    T.backward(loss)
    return loss, logits
