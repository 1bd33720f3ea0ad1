"""Seeded procedural segmentation data: noisy images with disk and rectangle masks.

The same seed always gives the same arrays. Nothing is downloaded; the
package under test only ever sees the generated ``images`` and ``labels``.
"""

from __future__ import annotations

import numpy as np

NOISE_SIGMA = 0.35
FOREGROUND = 1.0


def _shape_mask(rng: np.random.Generator, size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            cy, cx = rng.uniform(0.2, 0.8, size=2) * size
            r = rng.uniform(0.08, 0.22) * size
            mask |= (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        else:
            y0, x0 = rng.integers(0, size * 3 // 4, size=2)
            hh, ww = rng.integers(size // 8, size // 3, size=2)
            mask[y0:y0 + hh, x0:x0 + ww] = True
    return mask


def make_batch(rng: np.random.Generator, batch: int, size: int):
    """Return ``(images, labels)``: float64 (batch, 1, size, size) images and
    int64 (batch, size, size) labels, 1 inside a shape and 0 outside."""
    masks = np.stack([_shape_mask(rng, size) for _ in range(batch)])
    images = FOREGROUND * masks + rng.normal(scale=NOISE_SIGMA, size=masks.shape)
    return images[:, None].astype(np.float64), masks.astype(np.int64)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(B, H, W) integer labels -> (B, n_classes, H, W) float64 one-hot."""
    return (labels[:, None] == np.arange(n_classes)[None, :, None, None]).astype(np.float64)
