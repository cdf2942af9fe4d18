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
source coordinate visits over the interval (conservatively
over-approximated by supersampling the source curve at <= 0.25 px of
arc length and closing with the 8-neighborhood), and the per-cell
maximum color and maximal corner spread over that set.  Scaling is
discontinuous where a source coordinate crosses the image border; such
crossing parameters are enumerated exactly and each affected outer
interval is bounded one-sidedly around its (single) crossing.

M is tracked as the squared quantity; compare sqrt(M) against radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ImageTensor
from .transforms import _BLOCK_IMAGES, _pixel_geometry, center_coords, transform_spec

__all__ = [
    "ConfigurationError",
    "IntervalGrid",
    "AliasingBound",
    "IntervalBound",
    "grid_pixel_trajectory",
    "max_color_stats",
    "rotation_interval_lipschitz",
    "scaling_interval_lipschitz",
    "scaling_discontinuities",
    "aliasing_bound",
]

_MAX_SOURCE_STEP = 0.25  # px of source motion between trajectory supersamples


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

    def inner_points(self, lo: float, hi: float) -> np.ndarray:
        """Ascending subsample points of one interval, endpoints included."""
        t = np.linspace(0.0, 1.0, self.n_inner)
        if self.kind == "rotation":
            return lo + (hi - lo) * t
        return np.sort((lo * hi) / (lo + (hi - lo) * t))


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

def _source_curves(x: ImageTensor, kind: str, rr: np.ndarray, ss: np.ndarray,
                   lo: float, hi: float):
    """Supersampled source coordinates for pixels (rr, ss) over [lo, hi].

    Returns (src_i, src_j) of shape (n_pixels, n_samples) with adjacent
    samples at most _MAX_SOURCE_STEP apart in source space, the
    per-pixel speed bound used by the Lipschitz constants, and the
    per-pixel overshoot margin: how far beyond its sampled extremes each
    coordinate can stray between samples (zero for scaling, whose
    coordinates are monotone in the parameter; d * h^2 / 8 for
    rotation's circular arcs, from the second-derivative bound).
    """
    c_w, c_h = center_coords(x.width, x.height)
    if kind == "rotation":
        d = np.sqrt((rr - c_w) ** 2 + (ss - c_h) ** 2)
        speed = d  # exact l2 speed of the circular source curve
        max_motion = float(d.max(initial=0.0)) * (hi - lo)
        n_samples = max(2, int(math.ceil(max_motion / _MAX_SOURCE_STEP)) + 1)
        theta = np.linspace(lo, hi, n_samples)
        g = np.arctan2(ss - c_h, rr - c_w)
        src_i = c_w + d[:, None] * np.cos(g[:, None] - theta[None, :])
        src_j = c_h + d[:, None] * np.sin(g[:, None] - theta[None, :])
        step = (hi - lo) / (n_samples - 1)
        margin = d * step ** 2 / 8.0
        return src_i, src_j, speed, margin
    if kind == "scaling":
        dist = np.sqrt((rr - c_w) ** 2 + (ss - c_h) ** 2)
        speed = dist / lo ** 2  # worst case of dist / t^2 on [lo, hi]
        max_motion = float(speed.max(initial=0.0)) * (hi - lo)
        n_samples = max(2, int(math.ceil(max_motion / _MAX_SOURCE_STEP)) + 1)
        alpha = np.linspace(lo, hi, n_samples)
        src_i = c_w + (rr[:, None] - c_w) / alpha[None, :]
        src_j = c_h + (ss[:, None] - c_h) / alpha[None, :]
        return src_i, src_j, speed, np.zeros_like(dist)
    raise ValueError(f"unknown transform kind {kind!r}")


def _cell_stats(x: ImageTensor):
    """Corner max and corner spread of every interior interpolation cell.

    Interior cells have lower corners (ci, cj) with ci in [0, W-2] and
    cj in [0, H-2]; only there does the interpolation vary.  On every
    other cell the interpolated surface is identically 0 (outside the
    coordinate domain, up to the measure-zero boundary line whose jumps
    the discontinuity handling owns), so those cells contribute nothing.
    Returned arrays have shape (K, max(W-1, 1), max(H-1, 1)).

    The corner max bounds |colour| only when no pixel is negative, so a
    negative pixel is rejected here, where every bound starts.
    """
    if np.any(x.data < 0.0):
        raise ValueError("aliasing bounds need pixel values >= 0, got a minimum of "
                         f"{float(x.data.min())!r}")
    if x.width < 2 or x.height < 2:
        shape = (x.channels, max(x.width - 1, 1), max(x.height - 1, 1))
        return np.zeros(shape), np.zeros(shape)
    corners = np.stack([x.data[:, :-1, :-1], x.data[:, 1:, :-1],
                        x.data[:, :-1, 1:], x.data[:, 1:, 1:]])
    cell_max = corners.max(axis=0)
    cell_spread = cell_max - corners.min(axis=0)
    return cell_max, cell_spread


def _visited_cells(src_i: np.ndarray, src_j: np.ndarray, margin: np.ndarray,
                   closure: bool):
    """Cells touched by sampled source curves, plus a coverage mask.

    With ``closure``, every sampled cell's 8-neighborhood is included
    (adjacent samples move at most _MAX_SOURCE_STEP, so the continuous
    curve cannot reach beyond a neighboring cell between samples) and
    then intersected with the per-pixel attainable coordinate box
    (sampled extremes widened by the overshoot margin): both sets
    provably contain every cell the continuous curve enters, so their
    intersection does too.
    """
    ci = np.floor(src_i).astype(np.int64)[..., None]
    cj = np.floor(src_j).astype(np.int64)[..., None]
    if not closure:
        return ci, cj, np.ones(ci.shape, dtype=bool)
    offsets = np.array([-1, 0, 1])
    oi, oj = np.meshgrid(offsets, offsets, indexing="ij")
    ci = ci + oi.ravel()[None, None, :]
    cj = cj + oj.ravel()[None, None, :]
    i_lo = np.floor(src_i.min(axis=1) - margin)[:, None, None]
    i_hi = np.floor(src_i.max(axis=1) + margin)[:, None, None]
    j_lo = np.floor(src_j.min(axis=1) - margin)[:, None, None]
    j_hi = np.floor(src_j.max(axis=1) + margin)[:, None, None]
    in_box = (ci >= i_lo) & (ci <= i_hi) & (cj >= j_lo) & (cj <= j_hi)
    return ci, cj, in_box


def _gather_stats(stats: np.ndarray, ci: np.ndarray, cj: np.ndarray,
                  in_box: np.ndarray, width: int, height: int) -> np.ndarray:
    """Max of a per-cell statistic over each pixel's cell set.

    ``stats`` covers interior cells only; non-interior cells contribute
    0, as do closure cells masked out of the attainable box.  Result
    shape: (K, n_pixels).
    """
    valid = in_box & (ci >= 0) & (ci <= width - 2) & (cj >= 0) & (cj <= height - 2)
    pi = np.clip(ci, 0, max(width - 2, 0))
    pj = np.clip(cj, 0, max(height - 2, 0))
    vals = stats[:, pi, pj] * valid[None, ...]
    return vals.max(axis=(2, 3))


def grid_pixel_trajectory(x: ImageTensor, kind: str, r: int, s: int,
                          interval: tuple[float, float],
                          closure: bool = True) -> set[tuple[int, int]]:
    """Integer cells visited by pixel (r, s)'s source curve over an interval.

    With ``closure`` (the default, used by all bounds) the sampled cells
    are closed under the 8-neighborhood, which provably covers every
    cell the continuous curve enters between samples; without it the
    raw sampled cells are returned.
    """
    t1, t2 = interval
    if not t1 < t2:
        raise ValueError("interval must satisfy t1 < t2")
    rr = np.asarray([float(r)])
    ss = np.asarray([float(s)])
    src_i, src_j, _, margin = _source_curves(x, kind, rr, ss, t1, t2)
    ci, cj, in_box = _visited_cells(src_i, src_j, margin, closure)
    return set(zip(ci[in_box].ravel().tolist(), cj[in_box].ravel().tolist()))


def max_color_stats(x: ImageTensor, k: int, cells) -> tuple[float, float]:
    """(max corner color, max corner spread) over a set of cells.

    Cells are (ci, cj) lower-corner indices.  A cell outside the
    interior range [0, W-2] x [0, H-2] contributes (0, 0), because
    interpolation is 0 outside Omega: its surface is identically 0 up to
    the boundary line, whose values the 8-neighborhood closure already
    takes from the adjacent interior cell.  Such cells are skipped, not
    clipped onto the nearest interior cell.  This is the cell rule of
    the bound itself: ``_cell_stats`` then ``_gather_stats``.
    """
    cells = np.asarray(list(cells), dtype=np.int64).reshape(-1, 2)
    if not len(cells):
        raise ValueError("cell set must be nonempty")
    if not 0 <= k < x.channels:
        raise ValueError(f"channel index {k} out of range")
    # one "pixel" whose cell set is ``cells``: (1, n_cells, 1) index arrays
    ci, cj = cells[None, :, 0, None], cells[None, :, 1, None]
    in_box = np.ones(ci.shape, dtype=bool)
    m_bar, m_delta = (float(_gather_stats(stats, ci, cj, in_box, x.width, x.height)[k, 0])
                      for stats in _cell_stats(x))
    return m_bar, m_delta


# ---------------------------------------------------------------------------
# Interval Lipschitz constants

def _interval_constants(x: ImageTensor, kind: str, lo: float, hi: float,
                        stats=None) -> tuple[float, float]:
    """(exposed, slack) Lipschitz constants of g(alpha) = ||phi(x,alpha) -
    phi(x,anchor)||^2 on one outer interval.

    ``exposed`` is the plain per-pixel product bound, summed:
    2 * d * m_delta * m_bar for rotation, sqrt(2) * dist/t1^2 * m_delta
    * m_bar for scaling.  ``slack`` sharpens the color factor to
    min(m_bar, Lip_phi * interval_width) -- inside one interval the
    transform cannot move further from its anchor than its own Lipschitz
    constant allows -- and is the constant used in the aliasing bound.
    """
    rr, ss, _, _, disk = _pixel_geometry(x.width, x.height)
    if kind == "rotation":  # pixels outside the disk are 0 at every angle
        rr, ss = rr[disk], ss[disk]
    rr, ss = rr.ravel(), ss.ravel()
    if len(rr) == 0:
        return 0.0, 0.0
    cell_max, cell_spread = _cell_stats(x) if stats is None else stats
    src_i, src_j, speed, margin = _source_curves(x, kind, rr, ss, lo, hi)
    ci, cj, in_box = _visited_cells(src_i, src_j, margin, closure=True)
    m_bar = _gather_stats(cell_max, ci, cj, in_box, x.width, x.height)
    m_delta = _gather_stats(cell_spread, ci, cj, in_box, x.width, x.height)

    if kind == "rotation":
        exposed = float(np.sum(2.0 * speed[None, :] * m_delta * m_bar))
    else:
        exposed = float(np.sum(math.sqrt(2.0) * speed[None, :] * m_delta * m_bar))
    lip_phi = math.sqrt(2.0) * speed[None, :] * m_delta
    color = np.minimum(m_bar, lip_phi * (hi - lo))
    slack = float(np.sum(2.0 * lip_phi * color))
    return exposed, slack


def rotation_interval_lipschitz(x: ImageTensor, interval: tuple[float, float]) -> float:
    """Lipschitz constant for squared-distance curves on a rotation interval.

    Sum over channels and disk pixels of 2 * d * m_delta * m_bar with
    the color statistics taken over that interval's trajectories.
    """
    t1, t2 = interval
    if not t1 < t2:
        raise ValueError("interval must satisfy t1 < t2")
    return _interval_constants(x, "rotation", t1, t2)[0]


def scaling_interval_lipschitz(x: ImageTensor, interval: tuple[float, float]) -> float:
    """Analogous constant for scaling, speed bounded at the left endpoint."""
    t1, t2 = interval
    if t1 <= 0.0:
        raise ValueError("scaling interval must be positive")
    if not t1 < t2:
        raise ValueError("interval must satisfy t1 < t2")
    return _interval_constants(x, "scaling", t1, t2)[0]


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

    For every outer interval the squared distances to its two anchors
    are evaluated exactly at the inner subsample points; between
    subsamples the min of the two anchor distances is bounded by the
    endpoint-pair envelope plus Lipschitz slack.  Scaling intervals
    containing a border-crossing parameter are bounded one-sidedly
    around the crossing (each side against its own anchor only).
    Requires at most one crossing per outer interval; configure a larger
    n_outer otherwise.
    """
    if kind not in ("rotation", "scaling"):
        raise ValueError(f"unknown transform kind {kind!r}")
    if grid.kind != kind:
        raise ValueError(f"grid is for {grid.kind!r}, not {kind!r}")

    spec = transform_spec(kind)
    anchors = grid.anchors()
    anchor_imgs = spec.apply_many(x, anchors).reshape(len(anchors), -1)
    intervals = grid.intervals()
    n_int = len(intervals)

    discs: dict[int, float] = {}
    if kind == "scaling":
        for t in scaling_discontinuities(x.width, x.height, grid.a, grid.b):
            hit = [i for i in range(n_int)
                   if intervals[i, 0] <= t <= intervals[i, 1]]
            for i in hit:
                if i in discs and discs[i] != t:
                    raise ConfigurationError(
                        f"outer interval [{intervals[i, 0]:.6g}, {intervals[i, 1]:.6g}] "
                        f"contains more than one scaling discontinuity; "
                        f"increase n_outer beyond {grid.n_outer}")
                discs[i] = t

    stats = _cell_stats(x)
    worst = None
    lipschitz_l = 0.0

    per_block = max(1, _BLOCK_IMAGES // grid.n_inner)
    for block_lo in range(0, n_int, per_block):
        block_hi = min(block_lo + per_block, n_int)
        block = range(block_lo, block_hi)
        inner = np.stack([grid.inner_points(*intervals[i]) for i in block])
        flat_imgs = spec.apply_many(x, inner.ravel()).reshape(len(inner), grid.n_inner, -1)

        for row, i in enumerate(block):
            lo, hi = intervals[i]
            # anchors of this interval, matched to the ascending [lo, hi]
            lo_idx, hi_idx = (i, i + 1) if anchors[i] == lo else (i + 1, i)
            pts = inner[row]
            g_lo = np.sum((flat_imgs[row] - anchor_imgs[lo_idx]) ** 2, axis=1)
            g_hi = np.sum((flat_imgs[row] - anchor_imgs[hi_idx]) ** 2, axis=1)
            exposed, slack = _interval_constants(x, kind, lo, hi, stats)
            lipschitz_l = max(lipschitz_l, exposed)

            t = discs.get(i)
            if t is None:
                widths = np.diff(pts)
                pair_min = np.minimum(g_lo[:-1] + g_lo[1:], g_hi[:-1] + g_hi[1:])
                bound = float(np.max(0.5 * pair_min + 0.5 * slack * widths))
            else:
                img_t = spec.apply_many(x, [t]).reshape(-1)
                g_hi_t = float(np.sum((img_t - anchor_imgs[hi_idx]) ** 2))
                left = _below_crossing_bound(pts, g_lo, slack, t)
                right = _at_and_above_crossing_bound(pts, g_hi, slack, t, g_hi_t)
                bound = max(left, right)

            if worst is None or bound > worst.bound:
                worst = IntervalBound(lo, hi, bound, slack, exposed, t)

    return AliasingBound(worst, lipschitz_l)
