"""Concrete base classifiers: linear softmax and two synthetic ones.

The linear classifier is the desk-scale stand-in for a trained network.
It is affine, so it exposes its (W, b) through ``BaseClassifier.affine``:
sampling then reads blur, brightness/contrast and additive-noise draws
as class scores, coefficients times a C-column projected basis, without
building their images (``smoothing._label_params``).
The synthetic classifiers (constant, mean-threshold) back the CLI's
``--synthetic`` flag.  Their smoothed confidences are exactly
computable for selected noise pairings, which is what lets the tests
use them as statistical oracles for the Monte-Carlo protocol.
"""

from __future__ import annotations

import numpy as np

from .smoothing import BaseClassifier

__all__ = [
    "LinearClassifier",
    "ConstantClassifier",
    "MeanThresholdClassifier",
]


class LinearClassifier(BaseClassifier):
    """argmax(W x + b) over flattened pixels; ties go to the smaller label."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray,
                 shape: tuple[int, int, int]):
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        k, w, h = shape
        if weights.ndim != 2 or weights.shape[1] != k * w * h:
            raise ValueError(f"weights must be C x {k * w * h}, got {weights.shape}")
        if bias.shape != (weights.shape[0],):
            raise ValueError("bias length must equal the number of classes")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise ValueError("weights and bias must be finite")
        self.weights = weights
        self.bias = bias
        self.shape = (k, w, h)
        self.num_classes = weights.shape[0]

    def _check_shape(self, shape) -> None:
        if tuple(shape) != self.shape:
            raise ValueError(f"classifier expects {self.shape} images, got {tuple(shape)}")

    def affine(self, shape) -> tuple[np.ndarray, np.ndarray]:
        self._check_shape(shape)
        return self.weights, self.bias

    def classify_flat_batch(self, flats: np.ndarray, shape) -> np.ndarray:
        self._check_shape(shape)
        return np.argmax(flats @ self.weights.T + self.bias, axis=1).astype(np.int64)


class ConstantClassifier(BaseClassifier):
    """Always returns the same label."""

    def __init__(self, label: int, num_classes: int = 2):
        if not 0 <= label < num_classes:
            raise ValueError("label out of range")
        self.label = label
        self.num_classes = num_classes

    def classify_flat_batch(self, flats: np.ndarray, shape) -> np.ndarray:
        return np.full(len(flats), self.label, dtype=np.int64)


class MeanThresholdClassifier(BaseClassifier):
    """Class 1 when the mean pixel value exceeds the threshold, else 0."""

    num_classes = 2

    def __init__(self, threshold: float):
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = threshold

    def classify_flat_batch(self, flats: np.ndarray, shape) -> np.ndarray:
        return (flats.mean(axis=1) > self.threshold).astype(np.int64)
