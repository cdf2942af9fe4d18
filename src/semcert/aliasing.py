"""Rigorous upper bounds on the worst-case interpolation aliasing error.

Certifying rotation or scaling over a parameter interval [a, b] against
N anchor parameters requires the maximum l2 sampling error: the largest
distance, over all parameters in [a, b], from the transformed image to
its nearest anchor-transformed image.  This module computes a provable
upper bound M on the *square* of that quantity by two-level interval
subdivision: each outer interval contributes exact squared distances at
R inner subsample points plus a Lipschitz slack term for what happens
between subsamples.

The per-interval Lipschitz constants come from interpolation cell
statistics: for every output pixel, the set of integer grid cells its
source coordinate visits over the interval, and the per-cell maximum
color and maximal corner spread over that set.  The cell set is the
source curve supersampled at <= 0.25 px of arc length, each sample's
floor cell closed with its 8-neighborhood, intersected with the
pixel's attainable box (its sampled extremes widened by the overshoot
margin).  The box contains every sample's own floor cell, so a
sample's closure cells inside the box form one rectangle of 1 to 3
cells a side, and the statistics over the whole set are the max over
samples of one rectangle lookup in precomputed range-max tables
(``_range_max_tables``).  Cells outside the interior read 0 there,
exactly as the interpolation does.  Scaling is discontinuous where a
source coordinate crosses the image border; such crossing parameters
are enumerated exactly and each affected outer interval is bounded
one-sidedly around its (single) crossing.

M is tracked as the squared quantity; compare sqrt(M) against radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ImageTensor
from .transforms import (_BLOCK_IMAGES, _BLOCK_POINTS, _kernel_rows, _pixel_geometry,
                         _source_map, _warp_pixels, center_coords)

__all__ = [
    "ConfigurationError",
    "IntervalGrid",
    "AliasingBound",
    "IntervalBound",
    "scaling_discontinuities",
    "aliasing_bound",
]

_MAX_SOURCE_STEP = 0.25  # px of source motion between trajectory supersamples
# Zero cells around the interior in the range-max tables: a closure
# rectangle starting further out than this lies wholly outside.
_PAD = 3


class ConfigurationError(ValueError):
    """Grid configuration cannot produce a sound bound as requested."""


@dataclass(frozen=True)
class IntervalGrid:
    """Anchor grid over [a, b]: uniform for rotation, harmonic for scaling.

    The scaling grid is uniform in 1/alpha (so anchors run from b down
    to a), matching the transform's 1/alpha source-coordinate motion.
    ``n_outer`` anchors define n_outer - 1 intervals, each subdivided at
    ``n_inner`` points (endpoints included).
    """

    kind: str
    a: float
    b: float
    n_outer: int
    n_inner: int

    def __post_init__(self):
        if self.kind not in ("rotation", "scaling"):
            raise ValueError(f"grid kind must be rotation or scaling, got {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"grid ends must be finite, got [{self.a!r}, {self.b!r}]")
        if not self.a < self.b:
            raise ValueError("need a < b")
        if self.kind == "scaling" and self.a <= 0.0:
            raise ValueError("scaling factors must be positive")
        if self.n_outer < 2 or self.n_inner < 2:
            raise ValueError("need at least 2 outer anchors and 2 inner points")

    def anchors(self) -> np.ndarray:
        t = np.linspace(0.0, 1.0, self.n_outer)
        if self.kind == "rotation":
            return self.a + (self.b - self.a) * t
        return (self.a * self.b) / (self.a + (self.b - self.a) * t)

    def intervals(self) -> np.ndarray:
        """(n_outer - 1, 2) ascending [lo, hi] pairs of consecutive anchors."""
        anchors = self.anchors()
        pairs = np.stack([anchors[:-1], anchors[1:]], axis=1)
        return np.sort(pairs, axis=1)

    def inner_points(self, lo, hi) -> np.ndarray:
        """Ascending subsample points of [lo, hi], endpoints included.

        ``lo`` and ``hi`` may be arrays of interval ends; each interval's
        points then run along a new last axis.
        """
        lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
        t = np.linspace(0.0, 1.0, self.n_inner)
        if self.kind == "rotation":
            points = lo + (hi - lo) * t
        else:
            points = np.sort((lo * hi) / (lo + (hi - lo) * t), axis=-1)
        # both formulas can miss an end by an ulp, leaving a sliver uncovered
        points[..., 0], points[..., -1] = lo[..., 0], hi[..., 0]
        return points


@dataclass(frozen=True)
class IntervalBound:
    """Per-interval contribution to the aliasing bound."""

    lo: float
    hi: float
    bound: float
    slack_lipschitz: float
    exposed_lipschitz: float
    discontinuity: float | None = None


@dataclass(frozen=True)
class AliasingBound:
    """Upper bound M on the squared maximum l2 sampling error.

    ``worst`` is the outer interval that attains M (the first, on ties);
    ``lipschitz_l`` is the largest exposed constant over all intervals.
    """

    worst: IntervalBound
    lipschitz_l: float

    def __post_init__(self):
        if self.m_value < 0.0:
            raise ValueError("aliasing bound must be >= 0")

    @property
    def m_value(self) -> float:
        return self.worst.bound

    @property
    def sqrt_m(self) -> float:
        return math.sqrt(self.m_value)


# ---------------------------------------------------------------------------
# Source-coordinate trajectories and cell color statistics

def _sample_counts(kind: str, reach: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Source-curve samples per interval for a pixel ``reach`` from the center.

    Adjacent samples are at most _MAX_SOURCE_STEP apart on that pixel's
    curve, and so on the curve of every pixel nearer the center.
    """
    speed = reach if kind == "rotation" else reach / np.float_power(lo, 2)
    return np.maximum(2, np.ceil(speed * (hi - lo) / _MAX_SOURCE_STEP).astype(np.int64) + 1)


def _source_curves(x: ImageTensor, kind: str, rr: np.ndarray, ss: np.ndarray,
                   dist: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Supersampled source coordinates for pixels (rr, ss), ``dist`` from
    the center, over intervals [lo, hi].

    Returns (src_i, src_j) of shape (n_samples, n_intervals, n_pixels),
    the per-pixel speed bound used by the Lipschitz constants, and the
    per-pixel overshoot margin: how far beyond its sampled extremes each
    coordinate can stray between samples (zero for scaling, whose
    coordinates are monotone in the parameter; d * h^2 / 8 for
    rotation's circular arcs, from the second-derivative bound).  Both
    are (n_intervals, n_pixels).

    All pixels share one sampling per interval, with adjacent samples at
    most _MAX_SOURCE_STEP apart on the curve of the pixel farthest from
    the center.  An interval that needs fewer samples than another
    repeats its last one, which changes no extreme and no visited cell.
    Squares use ``np.float_power``, the C library's ``pow`` on every
    platform; ``np.power``'s vector loop and ``x * x`` can round an ulp
    apart from it.
    """
    counts = _sample_counts(kind, dist.max(initial=0.0), lo, hi)
    # np.linspace(lo, hi, count) per row, padded with repeats of hi
    last = (counts - 1)[:, None]
    k = np.minimum(np.arange(counts.max()), last)
    step = (hi - lo) / (counts - 1)
    params = np.where(k == last, hi[:, None], k * step[:, None] + lo[:, None]).T
    src_i, src_j = _source_map(kind, x.width, x.height, rr, ss)(params)
    if kind == "rotation":
        speed = np.broadcast_to(dist, (len(lo), len(dist)))  # exact l2 speed of the arc
        return src_i, src_j, speed, dist * np.float_power(step, 2)[:, None] / 8.0
    speed = dist / np.float_power(lo, 2)[:, None]  # worst case of dist / t^2 on [lo, hi]
    return src_i, src_j, speed, np.zeros_like(speed)


def _range_max_tables(x: ImageTensor) -> np.ndarray:
    """Cell statistics maximised over every rectangle of 1 to 3 cells a side.

    The statistics of a cell are the max and the spread (max - min) of
    its four corners.  Interior cells have lower corners (ci, cj) with
    ci in [0, W-2] and cj in [0, H-2]; only there does the interpolation
    vary.  On every other cell the interpolated surface is identically 0
    (outside the coordinate domain, up to the measure-zero boundary line
    whose jumps the discontinuity handling owns), so those cells
    contribute nothing: the interior's (W-1, H-1, 2K) statistics, cell
    max first, are padded with _PAD zero cells on each side.  Entry
    [h-1, w-1, a, b] of the result, of shape (3, 3, W-1 + 2 _PAD,
    H-1 + 2 _PAD, 2K), is the max over the h x w cells whose first cell
    is (a - _PAD, b - _PAD); entries past the padded edge are never read.

    The corner max bounds |colour| only when no pixel is negative, so a
    negative pixel is rejected here, where every bound starts.
    """
    if np.any(x.data < 0.0):
        raise ValueError("aliasing bounds need pixel values >= 0, got a minimum of "
                         f"{float(x.data.min())!r}")
    corners = np.stack([x.data[:, :-1, :-1], x.data[:, 1:, :-1],
                        x.data[:, :-1, 1:], x.data[:, 1:, 1:]])
    cell_max = corners.max(axis=0)
    stats = np.concatenate([cell_max, cell_max - corners.min(axis=0)]).transpose(1, 2, 0)
    padded = np.pad(stats, ((_PAD, _PAD), (_PAD, _PAD), (0, 0)))
    tables = np.zeros((3, 3) + padded.shape)
    rows = padded
    for h in range(3):
        if h:
            rows = np.maximum(rows[:-1], padded[h:])
        cols = rows
        for w in range(3):
            if w:
                cols = np.maximum(cols[:, :-1], rows[:, w:])
            tables[h, w, :cols.shape[0], :cols.shape[1]] = cols
    return tables


def _rect_max(tables: np.ndarray, r0, r1, c0, c1) -> np.ndarray:
    """Max of the stacked cell statistics over cells [r0, r1] x [c0, c1].

    Each side spans 1 to 3 cells.  A rectangle starting before -_PAD or
    after the last interior cell lies wholly outside the interior, so
    clipping its corner into the zero padding keeps its value 0.
    Returns the index arrays' shape plus a last axis of 2K.
    """
    _, _, wp, hp, n_stats = tables.shape
    r = np.clip(r0, -_PAD, wp - 2 * _PAD) + _PAD
    c = np.clip(c0, -_PAD, hp - 2 * _PAD) + _PAD
    flat = ((((r1 - r0) * 3 + (c1 - c0)) * wp + r) * hp + c).astype(np.intp)
    return np.take(tables.reshape(-1, n_stats), flat, axis=0)


def _closure_stats(tables: np.ndarray, src_i: np.ndarray, src_j: np.ndarray,
                   margin: np.ndarray) -> np.ndarray:
    """Max cell statistics over each pixel's closed cell set.

    The attainable box [i_lo, i_hi] x [j_lo, j_hi] contains every
    sample's floor cell (fi, fj), since floor(min - margin) <= fi <=
    floor(max + margin).  So the sample's closure cells inside the box
    are exactly the rectangle [max(fi-1, i_lo), min(fi+1, i_hi)] x
    [max(fj-1, j_lo), min(fj+1, j_hi)], and the max over the closed
    cell set (the sampled cells' 8-neighborhoods inside the box) is
    the max over samples of one ``_rect_max`` lookup.  Returns
    (n_intervals, n_pixels, 2K) for the curves of ``_source_curves``.
    """
    i_lo = np.floor(src_i.min(axis=0) - margin)
    i_hi = np.floor(src_i.max(axis=0) + margin)
    j_lo = np.floor(src_j.min(axis=0) - margin)
    j_hi = np.floor(src_j.max(axis=0) + margin)
    fi, fj = np.floor(src_i), np.floor(src_j)
    rects = _rect_max(tables, np.maximum(fi - 1, i_lo), np.minimum(fi + 1, i_hi),
                      np.maximum(fj - 1, j_lo), np.minimum(fj + 1, j_hi))
    return rects.max(axis=0)


# ---------------------------------------------------------------------------
# Interval Lipschitz constants

def _interval_constants(x: ImageTensor, kind: str, lo: np.ndarray,
                        hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exposed, slack) Lipschitz constants of g(alpha) = ||phi(x,alpha) -
    phi(x,anchor)||^2 on each outer interval [lo[n], hi[n]].

    ``exposed`` is the plain per-pixel product bound, summed:
    2 * d * m_delta * m_bar for rotation, sqrt(2) * dist/t1^2 * m_delta
    * m_bar for scaling.  ``slack`` sharpens the color factor to
    min(m_bar, Lip_phi * interval_width) -- inside one interval the
    transform cannot move further from its anchor than its own Lipschitz
    constant allows -- and is the constant used in the aliasing bound.

    Intervals are taken in chunks of about _BLOCK_POINTS pixel samples.
    Each interval's sums run over (pixel, channel) in that order.
    """
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    rr, ss, d = _pixel_geometry(kind, x.width, x.height)
    exposed, slack = np.zeros(len(lo)), np.zeros(len(lo))
    if len(rr) == 0:
        return exposed, slack
    tables = _range_max_tables(x)
    samples = int(_sample_counts(kind, d.max(), lo, hi).max(initial=2))
    per_chunk = max(1, _BLOCK_POINTS // (len(rr) * samples))
    factor = 2.0 if kind == "rotation" else math.sqrt(2.0)
    for start in range(0, len(lo), per_chunk):
        part = slice(start, start + per_chunk)
        src_i, src_j, speed, margin = _source_curves(x, kind, rr, ss, d, lo[part], hi[part])
        stats = _closure_stats(tables, src_i, src_j, margin)
        m_bar, m_delta = np.split(stats, 2, axis=-1)
        speed = speed[..., None]
        exposed[part] = np.sum(factor * speed * m_delta * m_bar, axis=(1, 2))
        lip_phi = math.sqrt(2.0) * speed * m_delta
        color = np.minimum(m_bar, lip_phi * (hi[part] - lo[part])[:, None, None])
        slack[part] = np.sum(2.0 * lip_phi * color, axis=(1, 2))
    return exposed, slack


# ---------------------------------------------------------------------------
# Scaling discontinuities

def scaling_discontinuities(width: int, height: int, a: float, b: float) -> list[float]:
    """Scaling factors in [a, b] where a source coordinate crosses the border.

    Row r's source coordinate hits {0, W-1} exactly at alpha =
    |r - c_W| / c_W (likewise columns), so there are at most W + H
    crossings; at each one the affected border pixels jump between
    interpolated and black.
    """
    if not 0.0 < a < b:
        raise ValueError("need 0 < a < b")
    c_w, c_h = center_coords(width, height)
    candidates = set()
    if c_w > 0.0:
        for r in range(width):
            candidates.add(abs(r - c_w) / c_w)
    if c_h > 0.0:
        for s in range(height):
            candidates.add(abs(s - c_h) / c_h)
    return sorted(t for t in candidates if a <= t <= b)


# ---------------------------------------------------------------------------
# The aliasing bound

def _pairwise_envelope(points: np.ndarray, values: np.ndarray, lip: float) -> float:
    """Upper bound on sup g over [points[0], points[-1]] for lip-Lipschitz g
    known exactly at ``points``."""
    if len(points) == 1:
        return float(values[0])
    widths = np.diff(points)
    return float(np.max(0.5 * (values[:-1] + values[1:]) + 0.5 * lip * widths))


def _below_crossing_bound(points: np.ndarray, values: np.ndarray, lip: float,
                          t: float) -> float:
    """Upper bound on sup g over the half-open [points[0], t).

    The transform is right-continuous at a border crossing t (crossing
    pixels are black strictly below t and interpolated at and above it),
    so g is continuous and lip-Lipschitz on [points[0], t) and the
    crossing parameter itself belongs to the other side.
    """
    inside = points < t
    pts, vals = points[inside], values[inside]
    if len(pts) == 0:
        return 0.0
    tail = float(vals[-1]) + lip * (t - float(pts[-1]))
    return max(_pairwise_envelope(pts, vals, lip), tail)


def _at_and_above_crossing_bound(points: np.ndarray, values: np.ndarray, lip: float,
                                 t: float, value_at_t: float) -> float:
    """Upper bound on sup g over the closed [t, points[-1]]."""
    inside = points > t
    pts = np.concatenate(([t], points[inside]))
    vals = np.concatenate(([value_at_t], values[inside]))
    return _pairwise_envelope(pts, vals, lip)


def aliasing_bound(x: ImageTensor, kind: str, grid: IntervalGrid) -> AliasingBound:
    """Upper bound M >= (maximum l2 sampling error)^2 over grid's range.

    An interval's anchors are its first and last inner points, so the
    squared distances of its inner images to those two end images are
    exact at each point; between them the min of the two anchor
    distances is bounded by the endpoint-pair envelope plus Lipschitz
    slack.  The warps read only the pixels the distances sum
    (``_pixel_geometry``: rotation's disk).  Intervals are taken a block
    at a time.  A block's ends (its anchors) are warped once, in anchor
    order, into one buffer that every block reuses; the points between
    the ends are warped one kernel block at a time, and each kernel
    block is reduced to its distances to both ends before the next
    overwrites it.  Every distance, end to end included, is one
    ``_sq_dists`` row sum.
    Scaling intervals containing a border-crossing parameter are bounded
    one-sidedly around the crossing (each side against its own anchor
    only).  Requires at most one crossing per outer interval; configure
    a larger n_outer otherwise.
    """
    if grid.kind != kind:
        raise ValueError(f"grid is for {grid.kind!r}, not {kind!r}")

    intervals = grid.intervals()
    n_int = len(intervals)

    discs: dict[int, float] = {}
    if kind == "scaling":
        for t in scaling_discontinuities(x.width, x.height, grid.a, grid.b):
            hit = (intervals[:, 0] <= t) & (t <= intervals[:, 1])
            for i in np.flatnonzero(hit).tolist():
                if discs.setdefault(i, t) != t:
                    raise ConfigurationError(
                        f"outer interval [{intervals[i, 0]:.6g}, {intervals[i, 1]:.6g}] "
                        f"contains more than one scaling discontinuity; "
                        f"increase n_outer beyond {grid.n_outer}")

    exposed, slack = _interval_constants(x, kind, intervals[:, 0], intervals[:, 1])
    rr, ss, _ = _pixel_geometry(kind, x.width, x.height)
    anchors = grid.anchors()
    worst = None

    per_block = max(1, _BLOCK_IMAGES // grid.n_inner)
    between = grid.n_inner - 2  # points of an interval strictly between its ends
    # a block's ends in anchor order: interval r runs from end r + low to end
    # r + 1 - low, as rotation's anchors ascend and scaling's descend
    low = 0 if kind == "rotation" else 1
    ends = np.empty((min(per_block, n_int) + 1, x.channels, len(rr)))
    diff = np.empty((min(_kernel_rows(len(rr)), per_block * grid.n_inner),) + ends.shape[1:])
    for block_lo in range(0, n_int, per_block):
        block = slice(block_lo, min(block_lo + per_block, n_int))
        inner = grid.inner_points(intervals[block, 0], intervals[block, 1])
        n_b = len(inner)
        for _ in _warp_pixels(x, kind, anchors[block_lo:block_lo + n_b + 1], rr, ss, ends):
            pass
        crossings = [(i - block_lo, t) for i, t in discs.items() if 0 <= i - block_lo < n_b]
        g_lo, g_hi = np.zeros((n_b, grid.n_inner)), np.zeros((n_b, grid.n_inner))
        g_lo[:, -1] = g_hi[:, 0] = _sq_dists(ends[low:low + n_b], ends,
                                             np.arange(n_b) + 1 - low, diff)
        for lo, warped in _warp_pixels(x, kind, inner[:, 1:-1].ravel(), rr, ss):
            point = np.arange(lo, lo + len(warped))
            r = point // between
            at = point + 2 * r + 1  # the point's entry in the flat (n_b, n_inner) rows
            g_lo.reshape(-1)[at] = _sq_dists(warped, ends, r + low, diff)
            g_hi.reshape(-1)[at] = _sq_dists(warped, ends, r + 1 - low, diff)

        lip = slack[block]
        pair_min = np.minimum(g_lo[:, :-1] + g_lo[:, 1:], g_hi[:, :-1] + g_hi[:, 1:])
        bounds = np.max(0.5 * pair_min + 0.5 * lip[:, None] * np.diff(inner, axis=1), axis=1)
        for row, t in crossings:
            _, img_t = next(_warp_pixels(x, kind, np.array([t]), rr, ss))  # one kernel block
            g_hi_t = float(_sq_dists(img_t, ends, [row + 1 - low], diff)[0])
            left = _below_crossing_bound(inner[row], g_lo[row], float(lip[row]), t)
            right = _at_and_above_crossing_bound(inner[row], g_hi[row], float(lip[row]), t,
                                                 g_hi_t)
            bounds[row] = max(left, right)

        row = int(np.argmax(bounds))  # the first, on ties
        if worst is None or bounds[row] > worst.bound:
            i = block_lo + row
            worst = IntervalBound(float(intervals[i, 0]), float(intervals[i, 1]),
                                  float(bounds[row]), float(slack[i]), float(exposed[i]),
                                  discs.get(i))

    return AliasingBound(worst, float(exposed.max(initial=0.0)))


def _sq_dists(images: np.ndarray, ends: np.ndarray, index, diff: np.ndarray) -> np.ndarray:
    """Squared l2 distance of each (K, P) image ``images[i]`` to ``ends[index[i]]``.

    The images pass through the scratch ``diff`` as many at a time as it
    holds: gathered, subtracted and squared in place, each then summed as
    one contiguous row.
    """
    out = np.empty(len(images))
    for lo in range(0, len(images), len(diff)):
        part = diff[:min(len(diff), len(images) - lo)]
        np.take(ends, index[lo:lo + len(part)], axis=0, out=part, mode="clip")
        np.subtract(images[lo:lo + len(part)], part, out=part)
        part *= part
        out[lo:lo + len(part)] = part.reshape(len(part), -1).sum(axis=1)
    return out
