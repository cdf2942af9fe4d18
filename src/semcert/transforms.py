"""Semantic image transforms as pure functions of (image, parameter).

Five user-facing transform families (Gaussian blur, brightness/contrast,
translation with two padding modes, rotation, scaling) plus the additive
pixel perturbation used to smooth rotation and scaling in image space.

Conventions fixed here:

* Blur convolves each channel with a separable Gaussian kernel of
  squared radius ``alpha``, truncated at ``ceil(4*sqrt(alpha))`` taps
  per side and renormalized to sum 1.  The convolution is circular
  (periodic boundary): a unit-sum kernel then maps constant images to
  themselves exactly, and sequential blurs compose associatively on the
  fixed canvas, so blur additivity holds up to kernel truncation alone.
* Brightness/contrast maps each pixel v to e^k (v + b), unclamped: the
  smoothed classifier must see exactly that image.  It is rounded as
  e^k * v + e^k * b.
* Blur, brightness/contrast and the additive pixel perturbation are
  linear in the image.  ``Transform.linear_form`` writes each as
  coefficients of the parameter times a basis built once from the image,
  plus an offset (``LinearForm``): [e^k, e^k b] times [x; 1] for
  brightness/contrast; the perturbation itself, plus x, for additive
  noise; for blur (lambda_u mu_v - 1) times G_uv, plus x, from the
  kernel spectra along W and H (``_blur_coefs``) and a basis whose cost
  per image grows with the image side (``_blur_basis``: MNIST-sized
  images, not 64x64 ones).  ``apply_many`` builds a batch of any of them
  from that form, and ``LinearForm.project`` carries the same form
  through an affine classifier, so a caller can read class scores
  without building images (for blur, one spectrum at a time).
* Translation shifts by integers (``Transform.integer_shifts``): each
  displacement v rounds to floor(v + 0.5).  In 'reflect' mode pixels
  shifted past one edge re-enter at the opposite edge, so integer shifts
  compose additively and preserve the multiset of pixel values; 'black'
  mode fills vacated pixels with 0.  Each shift is then reduced into
  int64 without changing the image: modulo W (or H) into [-W//2,
  W - W//2) for reflect, clipped to [-W, W] for black.  A batch is built
  in its output, one ``np.roll`` or one slice copy per shift.
* Rotation is counter-clockwise about the image center, bilinearly
  interpolated, with everything outside the centered disk of radius
  min(c_W, c_H) set to 0.
* Scaling stretches about the center by factor s > 0; shrinking
  naturally black-pads through the interpolation's zero extension.
* Both source maps are affine in a pixel's offset from the center
  (``_source_map``; rotation takes one cos and one sin per angle), and
  one loop interpolates any set of pixels at many parameters
  (``_warp_pixels``).  ``_pixel_geometry`` names the pixels each warp
  interpolates, and so the pixels the aliasing bound sums: the disk for
  rotation, every pixel for scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .tensor import ImageTensor, bilinear_many

__all__ = [
    "Transform",
    "LinearForm",
    "transform_spec",
    "additive_pixel_transform",
    "rotate_many",
    "scale_many",
    "center_coords",
]

# Transformed images (or rows as large) held at once by a loop over many
# parameters: sampling in ``smoothing`` and anchor images in ``pipeline``.
# 4096 images of 28x28 take about 26 MB.  ``aliasing`` takes intervals in
# blocks of about this many distances and holds only a block's end images.
_BLOCK_IMAGES = 4096


@dataclass(frozen=True)
class LinearForm:
    """A batch of images (or class scores) as coefs(params) @ basis + offset.

    ``coefs`` maps (B, param_dim) parameters to (B, n) coefficients, or
    to factors lambda, mu with coefficients lambda_u mu_v - 1 (blur), and
    depends on the parameters alone; ``basis`` (n, d) and ``offset`` (d,)
    depend on the image alone, so a caller that evaluates many
    parameters on one image builds the form once.  ``basis`` None stands
    for the identity (the coefficients are the pixel offsets themselves)
    and ``offset`` None for zero.
    """

    coefs: Callable[[np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]]
    basis: np.ndarray | None
    offset: np.ndarray | None

    def product(self, params: np.ndarray) -> np.ndarray:
        """coefs(params) @ basis; a fresh array unless ``basis`` is None."""
        coef = self.coefs(params)
        if isinstance(coef, tuple):
            return _factored_product(*coef, self.basis)
        return coef if self.basis is None else coef @ self.basis

    def apply(self, params: np.ndarray) -> np.ndarray:
        """(B, d) rows coefs(params) @ basis + offset."""
        out = self.product(params)
        if self.offset is None:
            return out
        if self.basis is None:
            return out + self.offset
        out += self.offset
        return out

    def project(self, weights: np.ndarray, bias: np.ndarray) -> "LinearForm":
        """The form of the class scores rows @ weights.T + bias.

        Each row's scores are coefs @ (basis @ W.T) + (offset @ W.T + b):
        C columns where the image has d.  Rounding differs from scoring
        the built image, so an argmax can differ at an exact-score tie.
        """
        basis = weights.T if self.basis is None else self.basis @ weights.T
        offset = bias if self.offset is None else self.offset @ weights.T + bias
        return LinearForm(self.coefs, basis, offset)


@dataclass(frozen=True)
class Transform:
    """A transform family: its kind and parameter dimension."""

    kind: str
    param_dim: int

    def check_params(self, params) -> np.ndarray:
        """``params`` as a float (B, param_dim) array; ValueError if it is not one.

        (B,) is taken as (B, 1) when param_dim is 1.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.ndim == 1 and self.param_dim == 1:
            params = params[:, None]
        if params.ndim != 2 or params.shape[1] != self.param_dim:
            raise ValueError(f"{self.kind} takes (B, {self.param_dim}) parameters, "
                             f"got shape {params.shape}")
        return params

    def linear_form(self, x: ImageTensor) -> LinearForm | None:
        """The ``LinearForm`` of this transform on ``x``, or None if it is not linear."""
        kind = self.kind
        if kind == "gaussian_blur":
            return LinearForm(partial(_blur_coefs, width=x.width, height=x.height),
                              _blur_basis(x), x.data.ravel())
        if kind == "brightness_contrast":
            return LinearForm(_bc_coefs, np.stack([x.data.ravel(), np.ones(x.data.size)]),
                              None)
        if kind == "additive_pixel":
            if self.param_dim != x.data.size:
                raise ValueError("additive perturbation length must equal pixel count")
            return LinearForm(_identity, None, x.data.ravel())
        return None

    def integer_shifts(self, x: ImageTensor, params: np.ndarray) -> tuple | None:
        """The int64 shifts (m1, m2) of translation ``params``, as
        ``check_params`` returns them, on ``x``; None for another kind."""
        if self.kind not in ("translation_reflect", "translation_black"):
            return None
        if not np.all(np.isfinite(params)):
            raise ValueError("translation shifts must be finite")
        reflect = self.kind == "translation_reflect"
        shifts = []
        for v, n in zip(params.T, (x.width, x.height)):  # a (B, 2) broadcast was slower
            m = np.floor(v + 0.5)
            m = np.mod(m + n // 2, n) - n // 2 if reflect else np.clip(m, -n, n)
            shifts.append(m.astype(np.int64))
        return tuple(shifts)

    def apply_many(self, x: ImageTensor, params) -> np.ndarray:
        """Transform ``x`` at each row of ``params``; returns (B, K, W, H).

        ``params`` is (B, param_dim), or (B,) when param_dim is 1.  With
        ``linear_form`` and ``integer_shifts`` this is the one place that
        maps a kind to the code building its images.
        """
        params = self.check_params(params)
        kind = self.kind
        form = self.linear_form(x)
        if form is not None:
            return form.apply(params).reshape((len(params),) + x.shape)
        if kind == "rotation":
            return rotate_many(x, params[:, 0])
        if kind == "scaling":
            return scale_many(x, params[:, 0])
        shifts = self.integer_shifts(x, params)
        if shifts is not None:
            return _translate_many(x, kind, *shifts)
        raise ValueError(f"unknown transform kind {kind!r}")


def _identity(params: np.ndarray) -> np.ndarray:
    return params


def _bc_coefs(params: np.ndarray) -> np.ndarray:
    """[e^k, e^k b] per (k, b) row: e^k (v + b) is rounded as e^k v + e^k b."""
    if not np.all(np.isfinite(params)):
        raise ValueError("brightness/contrast parameters must be finite")
    gain = np.exp(params[:, 0])
    return np.stack([gain, gain * params[:, 1]], axis=1)


_SPECS = {
    "gaussian_blur": Transform("gaussian_blur", 1),
    "brightness_contrast": Transform("brightness_contrast", 2),
    "translation_reflect": Transform("translation_reflect", 2),
    "translation_black": Transform("translation_black", 2),
    "rotation": Transform("rotation", 1),
    "scaling": Transform("scaling", 1),
}


def transform_spec(kind: str) -> Transform:
    """Look up the registered transform family for ``kind``."""
    try:
        return _SPECS[kind]
    except KeyError:
        raise ValueError(f"unknown transform kind {kind!r}") from None


def additive_pixel_transform(shape: tuple[int, int, int]) -> Transform:
    """Additive pixel perturbation x + delta for images of ``shape``."""
    k, w, h = shape
    return Transform("additive_pixel", k * w * h)


# ---------------------------------------------------------------------------
# Gaussian blur

def _bin_projectors(length: int) -> np.ndarray:
    """Real projectors onto DFT bins u and length - u, u = 0..length//2.

    Q_u[i, j] = (w_u / length) cos(2 pi u (i - j) / length), with w_u = 1
    for u = 0 and the Nyquist bin and 2 otherwise; the Q_u sum to the
    identity.  Returns a (length//2 + 1, length, length) array.
    """
    u = np.arange(length // 2 + 1)
    weight = np.where((u == 0) | (2 * u == length), 1.0, 2.0) / length
    diff = np.subtract.outer(np.arange(length), np.arange(length))
    return weight[:, None, None] * np.cos(2.0 * np.pi * np.multiply.outer(u, diff) / length)


def _blur_coefs(params: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel spectra (lambda, mu) along W and H, one row per squared radius.

    A wrapped kernel's DFT at integer bins is that of its unwrapped taps,
    so lambda_u = (1 + 2 sum_t g_t cos(2 pi u t / W)) / (1 + 2 sum_t g_t),
    one GEMM over the half-kernel g_t = exp(-t^2 / (2 alpha)), 1 <= t <=
    ceil(4 sqrt(alpha)), however often it wraps.  At alpha 0 there are no
    taps and the rows are exactly 1: the residual coefficients
    lambda_u mu_v - 1 are exactly 0, and the blur returns x bit for bit.
    """
    alphas = params[:, 0]
    if not np.all(np.isfinite(alphas) & (alphas >= 0.0)):
        raise ValueError("blur parameter must be finite and >= 0")
    radii = np.ceil(4.0 * np.sqrt(alphas))[:, None]
    taps = np.arange(1, int(radii.max(initial=0.0)) + 1)
    with np.errstate(divide="ignore"):
        half = np.where(taps <= radii, np.exp(-taps**2 / (2.0 * alphas[:, None])), 0.0)

    def spectrum(length):
        phase = np.multiply.outer(taps, np.arange(length // 2 + 1)) % length
        dft = 1.0 + half @ (2.0 * np.cos(2.0 * np.pi * phase / length))
        return dft / dft[:, :1]  # bin 0 is the kernel sum

    lam = spectrum(width)
    return lam, lam if height == width else spectrum(height)


def _factored_product(lam: np.ndarray, mu: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows (lam_u mu_v - 1) @ basis for the blur spectra lam and mu.

    With P = basis as (nu, nv, c), lam mu^T - 1 = (lam - 1) mu^T + 1 (mu - 1)^T
    gives ((lam - 1) @ P) contracted with mu per row, plus (mu - 1) @ sum_u P.
    Its (B, nv, c) intermediate is smaller than the (B, nu * nv)
    coefficients, and its work less, exactly when c < nu: class scores,
    not images.
    """
    nu, nv, width = lam.shape[1], mu.shape[1], basis.shape[1]
    if width >= nu:
        coef = lam[:, :, None] * mu[:, None, :]
        coef -= 1.0
        return coef.reshape(len(lam), nu * nv) @ basis
    part = ((lam - 1.0) @ basis.reshape(nu, nv * width)).reshape(len(lam), nv, width)
    out = (mu[:, None, :] @ part)[:, 0]
    out += (mu - 1.0) @ basis.reshape(nu, nv, width).sum(axis=0)
    return out


def _blur_basis(x: ImageTensor) -> np.ndarray:
    """Blur basis G_uv = Q_u X Q_v, one flattened row per bin pair (u, v).

    Circular convolution with a symmetric kernel of spectrum lambda is
    sum_u lambda_u Q_u, so the blur of X is X + sum_uv (lambda_u mu_v - 1)
    G_uv.  An image costs K*W*H*(W/2+1)*(H/2+1) multiply-adds, against
    O(K*W*H*log(W*H)) for separable FFT passes.  On one x86-64 core
    (OpenBLAS) that took 12 us per 1x28x28 image where the FFT passes
    took 26, and 52 against 90 at 3x32x32, but 218 against 106 at 1x64x64
    and 645 against 368 at 3x64x64: the crossover lies between 32 and 64
    pixels a side.
    """
    q_w, q_h = _bin_projectors(x.width), _bin_projectors(x.height)
    # G[u, v, k] = Q_u X_k Q_v (each Q symmetric)
    basis = np.einsum("uij,kjl,vlm->uvkim", q_w, x.data, q_h, optimize=True)
    return basis.reshape(len(q_w) * len(q_h), -1)


# ---------------------------------------------------------------------------
# Translation

def _translate_many(x: ImageTensor, kind: str, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """``x`` shifted right by each m1 and down by each m2; returns (B, K, W, H)."""
    w, h = x.width, x.height
    reflect = kind == "translation_reflect"
    out = (np.empty if reflect else np.zeros)((len(m1),) + x.shape)
    for row, a, b in zip(out, m1.tolist(), m2.tolist()):
        if reflect:
            row[...] = np.roll(x.data, (a, b), axis=(1, 2))
        else:  # a shift by a whole side leaves both slices empty
            row[:, max(a, 0):w + min(a, 0), max(b, 0):h + min(b, 0)] = (
                x.data[:, max(-a, 0):w + min(-a, 0), max(-b, 0):h + min(-b, 0)])
    return out


# ---------------------------------------------------------------------------
# Rotation and scaling

def center_coords(width: int, height: int) -> tuple[float, float]:
    """Continuous center (c_W, c_H) of a W x H pixel grid."""
    return (width - 1) / 2.0, (height - 1) / 2.0


# Interpolated points per kernel block.  Each buffer of the kernel then
# holds about 256 KB, small enough to stay in cache, and a warp over many
# parameters needs little memory beyond its output.
_BLOCK_POINTS = 1 << 15


def _kernel_rows(points: int) -> int:
    """Parameters per kernel block of ``_warp_pixels`` for ``points`` pixels."""
    return max(1, _BLOCK_POINTS // max(points, 1))


def _pixel_geometry(kind: str, width: int, height: int):
    """The pixels (ii, jj), 1-d, that a ``kind`` warp of a W x H grid
    interpolates, with their center distances d.

    Rotation interpolates the pixels strictly inside the centered disk
    of radius min(c_W, c_H) and sets the others to 0; scaling
    interpolates every pixel.  The warps and the aliasing bound read
    their pixels here, so the disk rule is written once.
    """
    c_w, c_h = center_coords(width, height)
    ii, jj = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    d = np.sqrt((ii - c_w) ** 2 + (jj - c_h) ** 2)
    if kind == "rotation":
        disk = d < min(c_w, c_h)
        return ii[disk], jj[disk], d[disk]
    return ii, jj, d


def _source_map(kind: str, width: int, height: int, ii: np.ndarray, jj: np.ndarray):
    """Where pixels (ii, jj) read the source: ``coords(params)``, params of any shape.

    coords returns (src_i, src_j) of shape params.shape + ii.shape.  Both maps are
    affine in the pixel's offset (di, dj) = (ii - c_W, jj - c_H) from the center c.
    Rotation by t (CCW) reads c + (di cos t + dj sin t, dj cos t - di sin t), the
    polar form c + d (cos(g - t), sin(g - t)) of the pixel at (d, g) expanded by
    angle addition, so it takes one cos and one sin per angle and no trigonometry
    per point.  Scaling by t reads c + (di, dj) / t.  The warps and the aliasing
    bound read these coordinates, and no other code computes them.

    ``coords(params, out)`` writes into ``out``, a float64 array of shape
    (3,) + params.shape + ii.shape (the two coordinates, then scratch), when given.
    """
    if kind not in ("rotation", "scaling"):
        raise ValueError(f"unknown transform kind {kind!r}")
    c_w, c_h = center_coords(width, height)
    di, dj = ii - c_w, jj - c_h

    def coords(params, out=None):
        t = np.reshape(params, np.shape(params) + (1,) * np.ndim(ii))
        if out is None:
            out = np.empty((3,) + np.shape(t)[:np.ndim(params)] + np.shape(ii))
        src_i, src_j, part = out
        if kind == "scaling":
            np.divide(di, t, out=src_i)
            np.divide(dj, t, out=src_j)
        else:
            cos_t, sin_t = np.cos(t), np.sin(t)
            np.multiply(di, cos_t, out=src_i)
            np.multiply(dj, sin_t, out=part)
            src_i += part
            np.multiply(dj, cos_t, out=src_j)
            np.multiply(di, sin_t, out=part)
            src_j -= part
        src_i += c_w
        src_j += c_h
        return src_i, src_j
    return coords


def _warp_pixels(x: ImageTensor, kind: str, params: np.ndarray, ii: np.ndarray,
                 jj: np.ndarray, out: np.ndarray | None = None):
    """Pixels (ii, jj), 1-d, of ``x`` warped by ``params``, one kernel block at a time.

    The one interpolation loop of rotation, scaling and the aliasing bound:
    blocks of about _BLOCK_POINTS points, one ``bilinear_many`` per
    channel, through buffers allocated once per call.  Yields (lo, block),
    block the (b, K, P) pixels at params[lo:lo + b]: a view of ``out``,
    (B, K, P), when given, else of one buffer that the next block
    overwrites, so a caller copies or reduces each block before the next.
    """
    coords = _source_map(kind, x.width, x.height, ii, jj)
    step = _kernel_rows(len(ii))
    rows = min(step, len(params))
    work = np.empty((7, rows, len(ii)))  # source coordinates, then interpolation scratch
    own = np.empty((rows, x.channels, len(ii))) if out is None else None
    for lo in range(0, len(params), step):
        n = min(step, len(params) - lo)
        src_i, src_j = coords(params[lo:lo + n], out=work[:3, :n])
        block = own[:n] if out is None else out[lo:lo + n]
        for k in range(x.channels):
            bilinear_many(x, k, src_i, src_j, out=block[:, k], work=work[2:, :n])
        yield lo, block


def _warp_many(x: ImageTensor, kind: str, params: np.ndarray) -> np.ndarray:
    """``x`` warped by each of ``params``; returns (B, K, W, H).

    The pixels ``_pixel_geometry`` names are interpolated, the others +0.0.
    """
    ii, jj, _ = _pixel_geometry(kind, x.width, x.height)
    flat = (ii * x.height + jj).astype(np.intp)
    out = np.zeros((len(params), x.channels, x.width * x.height))
    for lo, block in _warp_pixels(x, kind, params, ii, jj):
        out[lo:lo + len(block), :, flat] = block
    return out.reshape((len(params),) + x.shape)


def rotate_many(x: ImageTensor, angles) -> np.ndarray:
    """Rotate one image by many angles (radians, CCW); returns (B, K, W, H).

    Only the pixels of the centered disk of radius min(c_W, c_H) are
    interpolated; the others are +0.0.  A disk pixel lies at distance
    d < min(c_W, c_H) from the center, and its source lies at the same
    distance up to rounding.  Squared distances are multiples of 1/4 on
    the pixel grid, so min(c_W, c_H) - d >= 1 / (8 min(c_W, c_H)), far
    above the rounding: the source lies strictly inside Omega at every
    angle, and the interpolation needs no outside-Omega mask for it.
    """
    return _warp_many(x, "rotation", np.atleast_1d(np.asarray(angles, dtype=np.float64)))


def scale_many(x: ImageTensor, factors) -> np.ndarray:
    """Scale one image by many factors; returns (B, K, W, H)."""
    factors = np.atleast_1d(np.asarray(factors, dtype=np.float64))
    if np.any(factors <= 0.0):
        raise ValueError("scaling factor must be > 0")
    return _warp_many(x, "scaling", factors)
