"""Image tensors, coordinate geometry and bilinear interpolation.

Coordinate convention, used everywhere in this package: an image is a
K x W x H tensor indexed ``data[k, i, j]`` where ``i`` runs along the
width (0 .. W-1) and ``j`` along the height (0 .. H-1).  The continuous
coordinate domain is ``Omega = [0, W-1] x [0, H-1]``; interpolation
queries outside Omega evaluate to 0.  Rotation and scaling geometry
depend on this convention, so it is fixed here once.

All pixel data is stored as 64-bit floats: the aliasing bounds sum over
every pixel and would accumulate rounding error in lower precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ImageTensor", "bilinear_many"]


@dataclass(frozen=True)
class ImageTensor:
    """Immutable K x W x H real-valued image.

    Values are not clamped: an unclamped brightness/contrast change or
    additive noise may leave [0, 1].  The backing array is made
    read-only: an anchor image is a view into its block of anchor
    images, read in place by every check of that anchor.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"image data must be K x W x H, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("image must have at least one pixel")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image data contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def bilinear_many(x: ImageTensor, k: int, ii: np.ndarray, jj: np.ndarray,
                  out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Vectorized bilinear interpolation over arrays of coordinates.

    ``ii`` and ``jj`` must have the same shape; the result has that
    shape.  Points outside Omega evaluate to +0.0.  The lower cell
    corner is clamped to the last interior cell, min(floor(c), W-2), so
    a point on the far edge (i == W-1 or j == H-1) is interpolated in
    that cell with fractional part 1 and no out-of-range neighbour is
    read; a 1-pixel-wide axis has a single corner.  The four corners
    are read by flat gathers from one base index, and outside points
    are masked only when some point lies outside Omega.

    The result is written into ``out`` when given (any array of that
    shape, strided views included), and ``work``, a float64 array of
    shape (5,) + ii.shape, holds the intermediates: a caller that
    interpolates many blocks of one shape then allocates nothing per
    block beyond a mask of outside points.
    """
    if not 0 <= k < x.channels:
        raise ValueError(f"channel index {k} out of range for {x.channels} channels")
    ii = np.asarray(ii, dtype=np.float64)
    jj = np.asarray(jj, dtype=np.float64)
    if ii.shape != jj.shape:
        raise ValueError("coordinate arrays must have matching shapes")
    W, H = x.width, x.height
    if out is None:
        out = np.empty(ii.shape)
    if work is None:
        work = np.empty((5,) + ii.shape)
    corner_i, corner_j, frac_i, frac_j = work[:4]
    base = work[4].view(np.int64)

    outside = None
    if ii.size and not (ii.min() >= 0.0 and ii.max() <= W - 1
                        and jj.min() >= 0.0 and jj.max() <= H - 1):
        outside = ~((ii >= 0.0) & (ii <= W - 1) & (jj >= 0.0) & (jj <= H - 1))
        np.copyto(frac_i, ii)
        np.copyto(frac_i, 0.0, where=outside)
        np.copyto(frac_j, jj)
        np.copyto(frac_j, 0.0, where=outside)
        ii, jj = frac_i, frac_j

    # lower corner (i0, j0) and fractions fi = ii - i0, fj = jj - j0
    np.floor(ii, out=corner_i)
    np.minimum(corner_i, max(W - 2, 0), out=corner_i)
    np.floor(jj, out=corner_j)
    np.minimum(corner_j, max(H - 2, 0), out=corner_j)
    np.subtract(ii, corner_i, out=frac_i)
    np.subtract(jj, corner_j, out=frac_j)
    corner_i *= H
    corner_i += corner_j
    np.copyto(base, corner_i, casting="unsafe")

    # corner (i0 + a, j0 + b) is flat[base + a * di + b * dj]: gather it
    # from the flat plane shifted by that offset (in range by the clamp)
    flat = x.data[k].reshape(-1)
    di = H if W > 1 else 0
    dj = 1 if H > 1 else 0
    gj, near = corner_j, corner_i
    np.subtract(1.0, frac_j, out=gj)
    np.multiply(gj, flat.take(base, out=near, mode="clip"), out=out)
    flat[dj:].take(base, out=near, mode="clip")
    near *= frac_j
    out += near
    far = near
    flat[di:].take(base, out=far, mode="clip")
    far *= gj
    corner = gj
    flat[di + dj:].take(base, out=corner, mode="clip")
    corner *= frac_j
    far += corner
    np.subtract(1.0, frac_i, out=corner)
    out *= corner
    far *= frac_i
    out += far
    if outside is not None:
        np.copyto(out, 0.0, where=outside)
    return out
