import math

import mpmath
import numpy as np
import pytest

from helpers import (AnalyticConfidenceError, analytic_smoothed_confidence,
                     bc_mean_threshold_confidence, one_label)
from semcert.classifiers import ConstantClassifier, LinearClassifier, MeanThresholdClassifier
from semcert.radii import DistributionSpec
from semcert.statfn import std_normal_cdf
from semcert.tensor import ImageTensor
from semcert.transforms import additive_pixel_transform, transform_spec


class TestLinearClassifier:
    def test_bias_only(self, image_9x9):
        c = LinearClassifier(np.zeros((2, 81)), np.array([0.0, 1.0]), (1, 9, 9))
        assert one_label(c, image_9x9) == 1

    def test_tie_breaks_to_smallest(self, image_9x9):
        c = LinearClassifier(np.zeros((3, 81)), np.zeros(3), (1, 9, 9))
        assert one_label(c, image_9x9) == 0

    def test_single_pixel_detector_flips_at_threshold(self):
        # score_1 - score_0 = x[0,0,0] - 0.5: label flips exactly there
        w = np.zeros((2, 4))
        w[1, 0] = 1.0
        c = LinearClassifier(w, np.array([0.0, -0.5]), (1, 2, 2))
        lo = ImageTensor(np.array([[0.49, 0], [0, 0]], dtype=float)[None])
        hi = ImageTensor(np.array([[0.51, 0], [0, 0]], dtype=float)[None])
        assert one_label(c, lo) == 0
        assert one_label(c, hi) == 1

    def test_shape_mismatch(self, rng):
        c = LinearClassifier(np.zeros((2, 81)), np.zeros(2), (1, 9, 9))
        with pytest.raises(ValueError):
            one_label(c, ImageTensor(rng.random((1, 8, 8))))

    def test_batch_matches_scalar(self, rng):
        c = LinearClassifier(rng.normal(size=(4, 36)), rng.normal(size=4), (1, 6, 6))
        flats = rng.random((50, 36))
        batch = c.classify_flat_batch(flats, (1, 6, 6))
        for idx in range(50):
            assert batch[idx] == np.argmax(c.weights @ flats[idx] + c.bias)
            assert batch[idx] == one_label(c, ImageTensor(flats[idx].reshape(1, 6, 6)))

    def test_rejects_nonfinite(self):
        w = np.zeros((2, 4))
        w[0, 0] = np.inf
        with pytest.raises(ValueError):
            LinearClassifier(w, np.zeros(2), (1, 2, 2))


class TestSyntheticClassifiers:
    def test_constant(self, image_9x9):
        assert one_label(ConstantClassifier(3, 5), image_9x9) == 3
        with pytest.raises(ValueError):
            ConstantClassifier(5, 5)

    def test_mean_threshold(self):
        clf = MeanThresholdClassifier(0.5)
        assert one_label(clf, ImageTensor(np.full((1, 3, 3), 0.6))) == 1
        assert one_label(clf, ImageTensor(np.full((1, 3, 3), 0.5))) == 0
        with pytest.raises(ValueError):
            MeanThresholdClassifier(0.0)

    def test_batch_paths(self, rng):
        flats = rng.random((30, 16))
        np.testing.assert_array_equal(
            MeanThresholdClassifier(0.5).classify_flat_batch(flats, (1, 4, 4)),
            [int(row.mean() > 0.5) for row in flats])
        np.testing.assert_array_equal(
            ConstantClassifier(1, 3).classify_flat_batch(flats, (1, 4, 4)), np.ones(30))


class TestAnalyticConfidence:
    def test_constant_is_one(self, image_9x9):
        p = analytic_smoothed_confidence(
            ConstantClassifier(0), transform_spec("gaussian_blur"),
            DistributionSpec("exponential", (1.0,), dim=1), image_9x9)
        assert p == 1.0

    def test_mean_at_threshold_is_half(self):
        x = ImageTensor(np.full((1, 4, 4), 0.5))
        clf = MeanThresholdClassifier(0.5)
        p = analytic_smoothed_confidence(
            clf, transform_spec("brightness_contrast"),
            DistributionSpec("gaussian", (0.0, 0.3), dim=2), x)
        assert p == 0.5

    def test_one_sigma_above_threshold(self):
        tau = 0.2
        x = ImageTensor(np.full((1, 4, 4), 0.4 + tau))
        clf = MeanThresholdClassifier(0.4)
        p = analytic_smoothed_confidence(
            clf, transform_spec("brightness_contrast"),
            DistributionSpec("gaussian", (0.0, tau), dim=2), x)
        assert p == pytest.approx(std_normal_cdf(1.0), abs=1e-12)

    def test_additive_noise_uses_mean_scale(self, image_9x9):
        sigma = 0.3
        transform = additive_pixel_transform(image_9x9.shape)
        noise = DistributionSpec("gaussian", (sigma,), dim=transform.param_dim)
        clf = MeanThresholdClassifier(0.5)
        p = analytic_smoothed_confidence(clf, transform, noise, image_9x9)
        mu = float(np.mean(image_9x9.data))
        expect = std_normal_cdf((mu - 0.5) / (sigma / math.sqrt(81)))
        assert p == pytest.approx(expect, abs=1e-12)

    def test_bc_quadrature(self, image_9x9):
        # contrast scale 0: the brightness closed form; > 0: mpmath's quadrature
        mu = float(np.mean(image_9x9.data))
        for t in (0.3, mu, 0.6):
            closed = analytic_smoothed_confidence(
                MeanThresholdClassifier(t), transform_spec("brightness_contrast"),
                DistributionSpec("gaussian", (0.0, 0.1), dim=2), image_9x9)
            assert bc_mean_threshold_confidence(image_9x9, t, 0.0, 0.1) == pytest.approx(
                closed, abs=1e-14)
            for sigma_k, sigma_b in ((0.2, 0.1), (0.5, 0.3)):
                want = mpmath.quad(
                    lambda z: mpmath.ncdf((mu - t * mpmath.exp(-sigma_k * z)) / sigma_b)
                    * mpmath.npdf(z), [-12, 0, 12])
                got = bc_mean_threshold_confidence(image_9x9, t, sigma_k, sigma_b)
                assert got == pytest.approx(float(want), abs=1e-12)

    def test_unsupported_pairings(self, image_9x9):
        clf = MeanThresholdClassifier(0.5)
        with pytest.raises(AnalyticConfidenceError):
            analytic_smoothed_confidence(
                clf, transform_spec("brightness_contrast"),
                DistributionSpec("gaussian", (0.3, 0.3), dim=2), image_9x9)
        with pytest.raises(AnalyticConfidenceError):
            analytic_smoothed_confidence(
                LinearClassifier(np.zeros((2, 81)), np.zeros(2), (1, 9, 9)),
                transform_spec("rotation"),
                DistributionSpec("gaussian", (0.1,), dim=1), image_9x9)
