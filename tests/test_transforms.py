import math
import tracemalloc

import numpy as np
import pytest

import helpers
from helpers import apply_one, blur_one, polar_rotation_coords, wrapped_kernel_spectrum
from semcert import transforms
from semcert.tensor import ImageTensor
from semcert.transforms import (_BLOCK_POINTS, Transform, additive_pixel_transform,
                                center_coords, rotate_many, scale_many, transform_spec)


def blur_many(x, alphas):
    return transform_spec("gaussian_blur").apply_many(x, alphas)


def gaussian_blur(x, alpha):
    return apply_one(transform_spec("gaussian_blur"), x, alpha)


def brightness_contrast(x, k, b):
    return apply_one(transform_spec("brightness_contrast"), x, (k, b))


def translate(x, dx, dy, padding):
    return apply_one(transform_spec(f"translation_{padding}"), x, (dx, dy))


def rotate(x, angle):
    return apply_one(transform_spec("rotation"), x, angle)


def scale(x, s):
    return apply_one(transform_spec("scaling"), x, s)


class TestTransformSpecs:
    def test_param_dims(self):
        assert transform_spec("brightness_contrast").param_dim == 2
        assert transform_spec("translation_reflect").param_dim == 2
        assert transform_spec("translation_black").param_dim == 2
        for kind in ("gaussian_blur", "rotation", "scaling"):
            assert transform_spec(kind).param_dim == 1

    def test_additive_pixel(self, image_9x9):
        t = additive_pixel_transform(image_9x9.shape)
        assert t.param_dim == 81
        delta = np.full(81, 0.01)
        out = apply_one(t, image_9x9, delta)
        np.testing.assert_allclose(out.data, image_9x9.data + 0.01)

    def test_unknown_kind(self, image_9x9):
        with pytest.raises(ValueError):
            transform_spec("shear")
        with pytest.raises(ValueError, match="unknown transform kind"):
            Transform("shear", 1).apply_many(image_9x9, [0.1])

    @pytest.mark.parametrize("transform,params,message", [
        (transform_spec("brightness_contrast"), [0.1, 0.2], "got shape"),
        (transform_spec("brightness_contrast"), [[0.1, 0.2, 0.3]], "got shape"),
        (transform_spec("rotation"), [[0.1, 0.2]], "got shape"),
        (transform_spec("translation_black"), [[[1.0, 2.0]]], "got shape"),
        (additive_pixel_transform((1, 9, 9)), np.zeros((2, 80)), "got shape"),
        (additive_pixel_transform((1, 8, 10)), np.zeros((2, 80)), "pixel count"),
    ], ids=["flat_pair", "three_wide", "rotation_two_wide", "three_dim",
            "additive_short", "additive_other_image"])
    def test_wrong_parameter_width(self, image_9x9, transform, params, message):
        with pytest.raises(ValueError, match=message):
            transform.apply_many(image_9x9, params)


class TestGaussianBlur:
    def test_zero_is_identity(self, image_9x9):
        # alpha 0 is the unit impulse: every coefficient of the residual
        # form is exactly 0, so the image comes back bit for bit
        assert np.array_equal(gaussian_blur(image_9x9, 0.0).data, image_9x9.data)

    def test_no_alphas(self, rng):
        x = ImageTensor(rng.random((3, 5, 7)))
        out = blur_many(x, np.empty(0))
        assert out.shape == (0, 3, 5, 7)

    def test_constant_preserved(self):
        c = ImageTensor(np.full((1, 8, 8), 0.37))
        out = gaussian_blur(c, 6.5)
        np.testing.assert_allclose(out.data, 0.37, atol=1e-12)

    def test_additivity(self):
        # sequential blurs match the combined blur up to kernel truncation
        gen = np.random.default_rng(99)
        for trial in range(50):
            x = ImageTensor(gen.random((1, 16, 16)))
            for a, b in ((1, 1), (2, 3), (4, 4)):
                lhs = gaussian_blur(gaussian_blur(x, a), b)
                rhs = gaussian_blur(x, a + b)
                assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-3

    def test_negative_alpha_rejected(self, image_9x9):
        with pytest.raises(ValueError):
            gaussian_blur(image_9x9, -0.1)

    def test_mean_preserved(self, image_9x9):
        # unit-sum kernel on the periodic canvas keeps the mean exactly
        out = gaussian_blur(image_9x9, 7.3)
        assert np.mean(out.data) == pytest.approx(np.mean(image_9x9.data), abs=1e-12)

    # odd, even (a Nyquist bin), non-square and three-channel canvases;
    # at alpha 40 the 26-tap half-kernel wraps around every one of them
    @pytest.mark.parametrize("shape", [(1, 9, 9), (1, 8, 8), (1, 5, 7), (3, 8, 12)],
                             ids=["9x9", "8x8", "5x7", "3x8x12"])
    def test_matches_direct_sum(self, rng, shape):
        x = ImageTensor(rng.random(shape))
        alphas = np.array([1e-3, 0.7, 6.5, 40.0])
        batch = blur_many(x, alphas)
        for idx, a in enumerate(alphas):
            np.testing.assert_allclose(batch[idx], blur_one(x, a), rtol=0, atol=1e-12)

    # the spectra from the half-kernel's cosine sums equal the rfft of the
    # taps folded onto the axis, also where the kernel wraps several times
    @pytest.mark.parametrize("shape", [(1, 9, 9), (1, 8, 8), (1, 5, 7), (3, 8, 12)],
                             ids=["9x9", "8x8", "5x7", "3x8x12"])
    def test_spectra_match_folded_fft(self, rng, shape):
        _, width, height = shape
        alphas = np.concatenate([[0.0, 1e-3, 0.7, 6.5, 40.0], rng.uniform(0.0, 40.0, 200)])
        lam, mu = transforms._blur_coefs(alphas[:, None], width, height)
        np.testing.assert_allclose(lam, wrapped_kernel_spectrum(alphas, width),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(mu, wrapped_kernel_spectrum(alphas, height),
                                   rtol=0, atol=1e-15)

    def test_zero_alpha_spectrum_is_ones(self, rng):
        # alpha 0 among wide kernels: its rows are exactly 1, so its
        # residual coefficients are exactly 0
        alphas = rng.uniform(10.0, 40.0, 64)
        alphas[[0, 17, 63]] = 0.0
        lam, mu = transforms._blur_coefs(alphas[:, None], 8, 12)
        for spectrum in (lam, mu):
            assert np.all(spectrum[[0, 17, 63]] == 1.0)
            assert np.all(spectrum[1:17, 0] == 1.0) and np.all(spectrum[1:17, 1:] < 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, image_9x9, alpha):
        with pytest.raises(ValueError, match="blur parameter must be finite and >= 0"):
            blur_many(image_9x9, [0.5, alpha])

    def test_memory_bounded_by_output(self, rng):
        x = ImageTensor(rng.random((1, 28, 28)))
        alphas = rng.exponential(1.0, 4096)
        tracemalloc.start()
        try:
            out = blur_many(x, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * out.nbytes


class TestBrightnessContrast:
    @pytest.mark.parametrize("params", [(math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
                                        (0.1, math.nan), (0.1, math.inf)],
                             ids=["k_nan", "k_inf", "k_minus_inf", "b_nan", "b_inf"])
    def test_non_finite_params_rejected(self, image_9x9, params):
        with pytest.raises(ValueError, match="brightness/contrast parameters must be finite"):
            transform_spec("brightness_contrast").apply_many(image_9x9, [(0.0, 0.0), params])

    def test_identity(self, image_9x9):
        np.testing.assert_array_equal(brightness_contrast(image_9x9, 0.0, 0.0).data,
                                      image_9x9.data)

    def test_single_pixel(self):
        x = ImageTensor(np.full((1, 1, 1), 0.5))
        out = brightness_contrast(x, math.log(2.0), 0.1)
        assert out.data[0, 0, 0] == pytest.approx(1.2, abs=1e-15)

    def test_brightness_alone_additive(self, image_9x9):
        lhs = brightness_contrast(brightness_contrast(image_9x9, 0.0, 0.07), 0.0, 0.21)
        rhs = brightness_contrast(image_9x9, 0.0, 0.28)
        np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-15)

    def test_resolving_identity(self, rng):
        # composing (k1,b1) then (k2,b2) equals (k1+k2, b1 + e^{-k1} b2)
        x = ImageTensor(rng.random((1, 6, 6)))
        k1, b1, k2, b2 = 0.3, 0.12, -0.45, -0.05
        lhs = brightness_contrast(brightness_contrast(x, k1, b1), k2, b2)
        rhs = brightness_contrast(x, k1 + k2, b1 + math.exp(-k1) * b2)
        np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-15)

    def test_memory_bounded_by_output(self, rng):
        x = ImageTensor(rng.random((1, 28, 28)))
        params = rng.normal(0.0, 0.3, (4096, 2))
        tracemalloc.start()
        try:
            out = transform_spec("brightness_contrast").apply_many(x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes


class TestTranslate:
    def test_subhalf_rounds_to_identity(self, image_9x9):
        for padding in ("reflect", "black"):
            out = translate(image_9x9, 0.4, -0.4, padding)
            assert out.data.tobytes() == image_9x9.data.tobytes()

    def test_black_full_displacement(self, rng):
        x = ImageTensor(rng.random((1, 6, 6)))
        out = translate(x, 6, 0, "black")
        assert np.all(out.data == 0.0)

    def test_black_partial_shift(self, rng):
        x = ImageTensor(rng.random((1, 5, 5)))
        out = translate(x, 2, -1, "black")
        np.testing.assert_array_equal(out.data[:, 2:, :4], x.data[:, :3, 1:])
        assert np.all(out.data[:, :2, :] == 0.0)
        assert np.all(out.data[:, :, 4:] == 0.0)

    def test_reflect_integer_shifts_additive(self, rng):
        x = ImageTensor(rng.random((1, 7, 7)))
        for a1, a2, b1, b2 in [(3, -2, -5, 4), (1, 1, 1, 1), (6, 0, 3, -2)]:
            lhs = translate(translate(x, a1, b1, "reflect"), a2, b2, "reflect")
            rhs = translate(x, a1 + a2, b1 + b2, "reflect")
            np.testing.assert_array_equal(lhs.data, rhs.data)

    def test_reflect_preserves_value_multiset(self, rng):
        x = ImageTensor(rng.random((1, 8, 8)))
        out = translate(x, 3, 5, "reflect")
        np.testing.assert_array_equal(np.sort(out.data.ravel()),
                                      np.sort(x.data.ravel()))


# (dx, dy) on a 2x7x5 canvas: inside it, at its edges (|shift| = W or H),
# past them, at +-1e15, and at halves, which round upward
_SHIFTS = {
    "inside": [(0, 0), (1, -2), (-3, 4), (6, -4), (-6, 1), (2.4, -1.6)],
    "edge": [(7, 0), (0, -5), (-7, 5), (7, -5), (6, 5), (-7, 4)],
    "past": [(8, 0), (0, -6), (-9, 11), (15, -10), (-70, 3), (3, 51)],
    "huge": [(1e15, 0), (0, -1e15), (1e15, -1e15), (-1e15 - 3, 1e15 + 0.5)],
    "half": [(0.5, -0.5), (-0.5, 0.5), (2.5, -3.5), (-6.5, 4.5), (7.5, -5.5)],
}


class TestTranslateMany:
    @pytest.mark.parametrize("case", sorted(_SHIFTS))
    @pytest.mark.parametrize("padding", ["reflect", "black"])
    def test_matches_per_shift_oracle(self, rng, padding, case):
        x = ImageTensor(rng.random((2, 7, 5)))
        out = transform_spec(f"translation_{padding}").apply_many(x, _SHIFTS[case])
        assert out.shape == (len(_SHIFTS[case]), 2, 7, 5)
        for row, (dx, dy) in zip(out, _SHIFTS[case]):
            assert row.tobytes() == helpers.translate(x, dx, dy, padding).data.tobytes()

    @pytest.mark.parametrize("padding", ["reflect", "black"])
    def test_halves_round_up(self, rng, padding):
        # floor(v + 0.5): 0.5 -> 1, -0.5 -> 0, -1.5 -> -1 and 2.5 -> 3, where
        # ties to even give 0, 0, -2 and 2
        x = ImageTensor(rng.random((2, 7, 5)))
        spec = transform_spec(f"translation_{padding}")
        np.testing.assert_array_equal(spec.apply_many(x, [(0.5, -0.5), (-1.5, 2.5)]),
                                      spec.apply_many(x, [(1, 0), (-1, 3)]))

    @pytest.mark.parametrize("padding", ["reflect", "black"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, image_9x9, padding, bad):
        spec = transform_spec(f"translation_{padding}")
        for params in ([(bad, 0.0)], [(1.0, 2.0), (0.0, bad)]):
            with pytest.raises(ValueError, match="translation shifts must be finite"):
                spec.apply_many(image_9x9, params)

    @pytest.mark.parametrize("padding", ["reflect", "black"])
    def test_memory_bounded_by_output(self, rng, padding):
        x = ImageTensor(rng.random((1, 28, 28)))
        params = rng.normal(0.0, 10.0, (4096, 2))
        tracemalloc.start()
        try:
            out = transform_spec(f"translation_{padding}").apply_many(x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes


def _disk_mask(width, height):
    c_w, c_h = center_coords(width, height)
    ii, jj = np.meshgrid(np.arange(width), np.arange(height), indexing="ij")
    return np.sqrt((ii - c_w) ** 2 + (jj - c_h) ** 2) < min(c_w, c_h)


class TestRotate:
    def test_zero_angle(self, image_9x9):
        out = rotate(image_9x9, 0.0)
        mask = _disk_mask(9, 9)
        np.testing.assert_allclose(out.data[0][mask], image_9x9.data[0][mask],
                                   atol=1e-12)
        assert np.all(out.data[0][~mask] == 0.0)

    def test_rotationally_symmetric_image_unchanged(self):
        # a constant image is the rotation-invariant case that survives
        # bilinear resampling exactly: every angle yields the same output
        x = ImageTensor(np.full((1, 9, 9), 0.61))
        base = rotate(x, 0.0)
        for angle in (0.3, -1.2, 2.9):
            np.testing.assert_allclose(rotate(x, angle).data, base.data, atol=1e-9)

    def test_disk_padding_always_zero(self, image_9x9, rng):
        mask = _disk_mask(9, 9)
        for angle in rng.uniform(-math.pi, math.pi, 10):
            out = rotate(image_9x9, angle)
            assert np.all(out.data[0][~mask] == 0.0)

    def test_back_rotation_deviation_reported(self, image_9x9):
        # interpolation aliasing: returning is only approximate; the
        # deviation is recorded, not asserted against a tolerance
        back = rotate(rotate(image_9x9, 0.4), -0.4)
        dev = float(np.linalg.norm(back.data - rotate(image_9x9, 0.0).data))
        assert math.isfinite(dev) and dev >= 0.0

    def test_batch_matches_single(self, image_9x9, rng):
        # three kernel blocks' worth of angles, so block boundaries are crossed
        angles = rng.uniform(-1, 1, 3 * _BLOCK_POINTS // int(_disk_mask(9, 9).sum()))
        batch = rotate_many(image_9x9, angles)
        for idx, a in enumerate(angles):
            np.testing.assert_array_equal(batch[idx], rotate(image_9x9, a).data)

    def test_memory_bounded_by_output(self, rng):
        x = ImageTensor(rng.random((1, 28, 28)))
        angles = rng.uniform(-math.pi, math.pi, 4096)
        tracemalloc.start()
        try:
            out = rotate_many(x, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes


class TestRotationSourceMap:
    _ANGLES = np.concatenate([[-math.pi, math.pi, 0.0, 1e-9],
                              np.random.default_rng(9).uniform(-math.pi, math.pi, 60)])

    @pytest.mark.parametrize("width,height", [(28, 28), (9, 9), (10, 7)])
    def test_affine_form_matches_polar_form(self, width, height):
        # angle addition moves a source by at most a few ulps of the canvas
        ii, jj = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float),
                             indexing="ij")
        src_i, src_j = transforms._source_map("rotation", width, height, ii, jj)(self._ANGLES)
        want_i, want_j = polar_rotation_coords(width, height, self._ANGLES)
        assert np.max(np.abs(src_i - want_i)) <= 1e-13
        assert np.max(np.abs(src_j - want_j)) <= 1e-13

    @pytest.mark.parametrize("width,height", [(28, 28), (9, 9), (10, 7), (7, 10), (4, 4), (5, 4)])
    def test_disk_sources_inside_omega(self, width, height):
        ii, jj, _ = transforms._pixel_geometry("rotation", width, height)
        coords = transforms._source_map("rotation", width, height, ii, jj)
        src_i, src_j = coords(np.linspace(-math.pi, math.pi, 20_001))
        assert src_i.min() >= 0.0 and src_i.max() <= width - 1
        assert src_j.min() >= 0.0 and src_j.max() <= height - 1


class TestScale:
    def test_identity(self, image_9x9):
        np.testing.assert_allclose(scale(image_9x9, 1.0).data, image_9x9.data,
                                   atol=1e-12)

    def test_constant_upscale(self):
        c = ImageTensor(np.full((1, 5, 5), 0.6))
        np.testing.assert_allclose(scale(c, 1.7).data, 0.6, atol=1e-15)

    def test_downscale_black_pads_corners(self, rng):
        x = ImageTensor(rng.random((1, 4, 4)))
        out = scale(x, 0.5)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert out.data[0, i, j] == 0.0

    def test_nonpositive_factor_rejected(self, image_9x9):
        with pytest.raises(ValueError):
            scale(image_9x9, 0.0)
        with pytest.raises(ValueError):
            scale(image_9x9, -1.0)

    def test_batch_matches_single(self, image_9x9, rng):
        # three kernel blocks; shrinking and stretching factors share each
        # block, so sources inside and outside Omega meet in one call
        factors = rng.uniform(0.5, 2.0, 3 * _BLOCK_POINTS // 81)
        batch = scale_many(image_9x9, factors)
        for idx, s in enumerate(factors):
            np.testing.assert_array_equal(batch[idx], scale(image_9x9, s).data)
