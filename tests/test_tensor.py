import math

import numpy as np
import pytest

from helpers import bilinear_one
from semcert.tensor import ImageTensor, bilinear_many


class TestImageTensor:
    def test_shape_and_accessors(self, rng):
        x = ImageTensor(rng.random((3, 5, 7)))
        assert (x.channels, x.width, x.height) == (3, 5, 7)

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            ImageTensor(np.zeros((2, 2)))
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ImageTensor(bad)

    def test_immutable(self, image_9x9):
        with pytest.raises(ValueError):
            image_9x9.data[0, 0, 0] = 1.0


def _bilinear_reference(plane, i, j):
    """Per-point bilinear value in pure Python, same formula and operation order."""
    W, H = len(plane), len(plane[0])
    if not (0.0 <= i <= W - 1 and 0.0 <= j <= H - 1):
        return 0.0
    i0 = min(math.floor(i), max(W - 2, 0))
    j0 = min(math.floor(j), max(H - 2, 0))
    i1 = min(i0 + 1, W - 1)
    j1 = min(j0 + 1, H - 1)
    fi, fj = i - i0, j - j0
    return ((1.0 - fi) * ((1.0 - fj) * plane[i0][j0] + fj * plane[i0][j1])
            + fi * ((1.0 - fj) * plane[i1][j0] + fj * plane[i1][j1]))


class TestBilinear:
    def test_integer_grid_point(self):
        data = np.zeros((1, 4, 5))
        data[0, 2, 3] = 0.7
        x = ImageTensor(data)
        assert bilinear_one(x, 0, 2, 3) == 0.7

    def test_outside_domain_is_zero(self, rng):
        x = ImageTensor(rng.random((1, 4, 4)))
        assert bilinear_one(x, 0, -0.5, 1.0) == 0.0
        assert bilinear_one(x, 0, 1.0, 4.2) == 0.0

    def test_symmetric_four_corner_average(self):
        x = ImageTensor(np.array([0.0, 1.0, 1.0, 0.0]).reshape(1, 2, 2))
        assert bilinear_one(x, 0, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_invalid_channel(self, image_9x9):
        with pytest.raises(ValueError):
            bilinear_one(image_9x9, 3, 1.0, 1.0)

    def test_matches_manual_formula(self, rng):
        x = ImageTensor(rng.random((2, 6, 6)))
        for _ in range(200):
            k = int(rng.integers(0, 2))
            i = rng.uniform(0, 5)
            j = rng.uniform(0, 5)
            i0, j0 = int(np.floor(i)), int(np.floor(j))
            i0, j0 = min(i0, 4), min(j0, 4)
            fi, fj = i - i0, j - j0
            d = x.data[k]
            expected = ((1 - fi) * ((1 - fj) * d[i0, j0] + fj * d[i0, j0 + 1])
                        + fi * ((1 - fj) * d[i0 + 1, j0] + fj * d[i0 + 1, j0 + 1]))
            assert bilinear_one(x, k, i, j) == pytest.approx(expected, abs=1e-14)

    def test_continuity_within_cell(self, rng):
        # |Q(i+delta, j) - Q(i, j)| <= delta * max pixel range inside one cell
        x = ImageTensor(rng.random((1, 8, 8)))
        rng2 = np.random.default_rng(1)
        for _ in range(300):
            i = rng2.uniform(0.0, 6.0)
            j = rng2.uniform(0.0, 7.0)
            delta = rng2.uniform(0.0, 1.0 - (i - np.floor(i)))
            lhs = abs(bilinear_one(x, 0, i + delta, j) - bilinear_one(x, 0, i, j))
            assert lhs <= delta * 1.0 + 1e-12

    def test_bounded_by_neighbourhood(self, rng):
        x = ImageTensor(rng.random((1, 6, 6)))
        for _ in range(300):
            i = rng.uniform(0, 5)
            j = rng.uniform(0, 5)
            i0 = min(int(np.floor(i)), 4)
            j0 = min(int(np.floor(j)), 4)
            block = x.data[0, i0:i0 + 2, j0:j0 + 2]
            v = bilinear_one(x, 0, i, j)
            assert block.min() - 1e-12 <= v <= block.max() + 1e-12

    def test_far_edge_reads_edge_pixel(self, rng):
        x = ImageTensor(rng.random((1, 5, 5)))
        assert bilinear_one(x, 0, 4.0, 2.0) == x.data[0, 4, 2]
        assert bilinear_one(x, 0, 4.0, 4.0) == x.data[0, 4, 4]

    @pytest.mark.parametrize("shape", [(2, 6, 7), (1, 1, 6), (1, 6, 1), (1, 1, 1)])
    def test_matches_pure_python_reference(self, rng, shape):
        K, W, H = shape
        x = ImageTensor(rng.random(shape) - 0.5)
        ii = np.concatenate([rng.uniform(-1.5, W + 0.5, 400),  # inside and outside
                             np.full(20, W - 1.0), rng.uniform(0, W - 1, 20),  # far edges
                             rng.integers(0, W, 20).astype(float),  # grid points
                             [-1e-12, W - 1 + 1e-12, 0.0]])
        jj = np.concatenate([rng.uniform(-1.5, H + 0.5, 400),
                             rng.uniform(0, H - 1, 20), np.full(20, H - 1.0),
                             rng.integers(0, H, 20).astype(float),
                             [0.0, H - 1.0, -1e-12]])
        for k in range(K):
            plane = x.data[k].tolist()
            expected = [_bilinear_reference(plane, i, j) for i, j in zip(ii, jj)]
            np.testing.assert_array_equal(bilinear_many(x, k, ii, jj), expected)
            # an all-inside batch takes the unmasked path
            inside = (ii >= 0) & (ii <= W - 1) & (jj >= 0) & (jj <= H - 1)
            np.testing.assert_array_equal(bilinear_many(x, k, ii[inside], jj[inside]),
                                          np.asarray(expected)[inside])

    def test_vectorized_matches_scalar(self, rng):
        x = ImageTensor(rng.random((1, 7, 7)))
        ii = rng.uniform(-1, 7, size=50)
        jj = rng.uniform(-1, 7, size=50)
        batch = bilinear_many(x, 0, ii, jj)
        for idx in range(50):
            assert batch[idx] == pytest.approx(bilinear_one(x, 0, ii[idx], jj[idx]),
                                               abs=1e-15)

