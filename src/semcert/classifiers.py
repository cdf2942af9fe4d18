"""Concrete base classifiers: linear softmax and analytic synthetic ones.

The linear classifier is the desk-scale stand-in for a trained network;
the synthetic classifiers (constant, mean-threshold) have
exactly computable smoothed confidences for selected noise pairings,
which makes them statistical oracles for validating the Monte-Carlo
protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radii import DistributionSpec
from .smoothing import BaseClassifier
from .statfn import std_normal_cdf
from .tensor import ImageTensor
from .transforms import Transform

__all__ = [
    "LinearClassifier",
    "ConstantClassifier",
    "MeanThresholdClassifier",
    "AnalyticConfidenceError",
    "analytic_smoothed_confidence",
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

    def classify_flat_batch(self, flats: np.ndarray, shape) -> np.ndarray:
        if tuple(shape) != self.shape:
            raise ValueError(f"classifier expects {self.shape} images, got {tuple(shape)}")
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


class AnalyticConfidenceError(ValueError):
    """The classifier/transform pairing has no closed-form smoothed confidence."""


def analytic_smoothed_confidence(classifier: BaseClassifier, transform: Transform,
                                 noise: DistributionSpec, x: ImageTensor) -> float:
    """Exact smoothed probability of the classifier's designated class.

    Supported pairings: a constant classifier under any transform
    (probability 1 for its label), and the mean-threshold classifier
    under noises that move the mean pixel value by a gaussian amount --
    brightness-only noise (contrast scale 0) shifts the mean by b, and
    isotropic additive pixel noise shifts it by N(0, sigma^2 / d).
    Mean-preserving transforms (periodic translation, unit-sum blur)
    give the degenerate 0/1 confidence.  Everything else raises
    AnalyticConfidenceError.
    """
    if isinstance(classifier, ConstantClassifier):
        return 1.0
    if not isinstance(classifier, MeanThresholdClassifier):
        raise AnalyticConfidenceError(
            f"no analytic confidence for {type(classifier).__name__}")
    mu = float(np.mean(x.data))
    t = classifier.threshold
    if transform.kind == "brightness_contrast":
        if noise.family != "gaussian":
            raise AnalyticConfidenceError("brightness pairing needs gaussian noise")
        sig_k, sig_b = noise.sigmas()
        if sig_k != 0.0:
            raise AnalyticConfidenceError(
                "mean-threshold confidence is only analytic with contrast noise disabled")
        if sig_b == 0.0:
            return float(mu > t)
        return std_normal_cdf((mu - t) / sig_b)
    if transform.kind == "additive_pixel":
        if noise.family != "gaussian":
            raise AnalyticConfidenceError("additive pairing needs gaussian noise")
        sig = noise.sigmas()
        if not np.all(sig == sig[0]):
            raise AnalyticConfidenceError("additive pairing needs isotropic noise")
        if sig[0] == 0.0:
            return float(mu > t)
        tau_eff = float(sig[0]) / math.sqrt(x.data.size)
        return std_normal_cdf((mu - t) / tau_eff)
    if transform.kind in ("translation_reflect", "gaussian_blur"):
        # mean-preserving transforms: the smoothed confidence is degenerate
        return float(mu > t)
    raise AnalyticConfidenceError(
        f"no analytic confidence for mean-threshold under {transform.kind!r}")
