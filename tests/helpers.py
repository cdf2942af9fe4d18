"""Shared test oracles.

Reference versions of what the package computes in batches or does not
compute at all: one image's label and one transformed image, one
translated image built shift by shift, rotation's polar source
coordinates, a direct circular Gaussian blur and its kernel spectra by
an FFT, the cells a pixel's source curve visits and their
colour statistics, single interval Lipschitz constants, the aliasing
bound one interval at a time, exact smoothed confidences of the
synthetic classifiers, the Clopper-Pearson bisection as first written, a
report-CSV reader, and dense enumeration of the sampling error.

The cell statistics and the enumeration deliberately avoid the bound
machinery they validate: statistics are read from each cell's four
corners, and distances are recomputed from the raw transforms.
"""

import csv
import math
from collections import namedtuple

import numpy as np

from semcert import aliasing
from semcert.classifiers import ConstantClassifier, LinearClassifier, MeanThresholdClassifier
from semcert.io import _CSV_FIELDS, FormatError
from semcert.statfn import _log_binom_tail_terms, std_normal_cdf
from semcert.tensor import ImageTensor, bilinear_many
from semcert.transforms import _pixel_geometry, center_coords, transform_spec


class ImageOnlyLinear(LinearClassifier):
    """A ``LinearClassifier`` that hides its (W, b), so sampling builds and
    classifies every image; it counts the images it classifies."""

    evals = 0

    def affine(self, shape):
        return None

    def classify_flat_batch(self, flats, shape):
        self.evals += len(flats)
        return super().classify_flat_batch(flats, shape)


def random_linear(seed, shape, classes=10, bias=0.1):
    """A random C x d ``LinearClassifier`` for images of ``shape``."""
    g = np.random.default_rng(seed)
    return LinearClassifier(g.normal(size=(classes, int(np.prod(shape)))),
                            bias * g.normal(size=classes), shape)


def one_label(classifier, x):
    """The classifier's label for one image, as a one-row batch."""
    out = classifier.classify_flat_batch(x.data.reshape(1, -1), x.shape)
    assert out.shape == (1,) and out.dtype == np.int64
    return int(out[0])


def apply_one(transform, x, params):
    """``transform`` applied to ``x`` at one parameter vector."""
    return ImageTensor(transform.apply_many(x, np.reshape(params, (1, -1)))[0])


def translate(x, dx, dy, padding):
    """``x`` shifted right by round(dx) and down by round(dy) pixels, one shift alone.

    Rounds floor(v + 0.5) in Python integers and reduces nothing:
    'reflect' rolls the pixels around (``np.roll`` takes any shift);
    'black' copies the overlap into zeros, and no overlap is left once a
    shift reaches the side.
    """
    m1, m2 = math.floor(dx + 0.5), math.floor(dy + 0.5)
    if padding == "reflect":
        return ImageTensor(np.roll(x.data, (m1, m2), axis=(1, 2)))
    assert padding == "black", padding
    out = np.zeros_like(x.data)
    W, H = x.width, x.height
    if abs(m1) < W and abs(m2) < H:
        dst_i = slice(max(m1, 0), W + min(m1, 0))
        src_i = slice(max(-m1, 0), W + min(-m1, 0))
        dst_j = slice(max(m2, 0), H + min(m2, 0))
        src_j = slice(max(-m2, 0), H + min(-m2, 0))
        out[:, dst_i, dst_j] = x.data[:, src_i, src_j]
    return ImageTensor(out)


def bilinear_one(x, k, i, j):
    """Bilinearly interpolated value of channel ``k`` at one point (i, j)."""
    return float(bilinear_many(x, k, np.array([i], dtype=float), np.array([j], dtype=float))[0])


def polar_rotation_coords(width, height, angles):
    """Sources c + d (cos(g - t), sin(g - t)) of every pixel at each angle t.

    The polar form, one cos and one sin per (angle, pixel); returns
    (src_i, src_j) of shape (len(angles), W, H).
    """
    c_w, c_h = center_coords(width, height)
    ii, jj = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float),
                         indexing="ij")
    d, g = np.hypot(ii - c_w, jj - c_h), np.arctan2(jj - c_h, ii - c_w)
    t = np.asarray(angles, dtype=float)[:, None, None]
    return c_w + d * np.cos(g - t), c_h + d * np.sin(g - t)


def blur_one(x, alpha):
    """Circular Gaussian blur summed tap by tap: no kernel folding, no spectra.

    The taps at integer offsets within ceil(4*sqrt(alpha)) of zero are
    renormalised to sum 1, and each (row, column) tap pair adds the image
    rolled by that pair of offsets, so a kernel wider than the image
    wraps around it as many times as it needs.
    """
    r = math.ceil(4.0 * math.sqrt(alpha)) if alpha > 0.0 else 0
    offsets = np.arange(-r, r + 1)
    taps = np.exp(-offsets ** 2 / (2.0 * alpha)) if alpha > 0.0 else np.ones(1)
    taps = taps / taps.sum()
    out = np.zeros(x.shape)
    for s, ts in zip(offsets, taps):
        for t, tt in zip(offsets, taps):
            out += ts * tt * np.roll(x.data, (s, t), axis=(1, 2))
    return out


def wrapped_kernel_spectrum(alphas, length):
    """Blur kernel spectra by folding the taps onto the axis, then an rfft.

    Row b is the DFT at bins 0..length//2 of the truncated Gaussian of
    squared radius alphas[b], renormalised to sum 1, with each tap added
    to its offset modulo ``length``; its imaginary part is 0 by symmetry.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    radii = np.ceil(4.0 * np.sqrt(alphas)).astype(np.int64)
    rmax = int(radii.max(initial=0))
    offsets = np.arange(-rmax, rmax + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        taps = np.exp(-(offsets[None, :] ** 2) / (2.0 * alphas[:, None]))
    taps = np.where(np.abs(offsets[None, :]) <= radii[:, None], taps, 0.0)
    taps[alphas == 0.0] = 0.0
    taps[alphas == 0.0, rmax] = 1.0
    taps /= taps.sum(axis=1, keepdims=True)
    wrapped = np.zeros((len(alphas), length))
    for t, col in enumerate(np.mod(offsets, length)):
        wrapped[:, col] += taps[:, t]
    return np.fft.rfft(wrapped, axis=1).real


# ---------------------------------------------------------------------------
# Aliasing: trajectory cells, cell statistics, interval constants

def _visited_cells(src_i, src_j, margin, closure):
    """Cells touched by sampled source curves, plus a coverage mask.

    ``src_i`` and ``src_j`` are (n_pixels, n_samples).  With
    ``closure``, every sampled cell's 8-neighborhood is included
    (adjacent samples move at most a quarter pixel, so the continuous
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


def trajectory_cells(x, kind, interval, rr, ss, closure=True):
    """Cell sets of pixels (rr[p], ss[p])'s source curves over one interval.

    The curves are built for every pixel the bound sums plus the
    requested ones, so a pixel of the bound is sampled exactly as the
    bound samples it.  With ``closure`` (the rule of every bound) the
    sampled cells are closed under the 8-neighborhood; without it the
    raw sampled cells are returned.
    """
    t1, t2 = interval
    if not t1 < t2:
        raise ValueError("interval must satisfy t1 < t2")
    bound_rr, bound_ss, bound_d = _pixel_geometry(kind, x.width, x.height)
    rr, ss = np.asarray(rr, dtype=float), np.asarray(ss, dtype=float)
    c_w, c_h = center_coords(x.width, x.height)
    d = np.concatenate([bound_d, np.sqrt((rr - c_w) ** 2 + (ss - c_h) ** 2)])
    rr, ss = np.concatenate([bound_rr, rr]), np.concatenate([bound_ss, ss])
    src_i, src_j, _, margin = aliasing._source_curves(x, kind, rr, ss, d, np.array([t1]),
                                                      np.array([t2]))
    keep = slice(len(bound_rr), None)
    ci, cj, in_box = _visited_cells(src_i[:, 0, keep].T, src_j[:, 0, keep].T,
                                    margin[0, keep], closure)
    return [set(zip(i[m].tolist(), j[m].tolist())) for i, j, m in zip(ci, cj, in_box)]


def grid_pixel_trajectory(x, kind, r, s, interval, closure=True):
    """Integer cells visited by pixel (r, s)'s source curve over an interval."""
    return trajectory_cells(x, kind, interval, [r], [s], closure)[0]


def max_color_stats(x, k, cells):
    """(max corner color, max corner spread) over a set of cells.

    Cells are (ci, cj) lower-corner indices, read from their four corner
    pixels.  A cell outside the interior [0, W-2] x [0, H-2] contributes
    (0, 0), because interpolation is 0 outside Omega: its surface is
    identically 0 up to the boundary line, whose values the
    8-neighborhood closure already takes from the adjacent interior
    cell.
    """
    cells = np.asarray(list(cells), dtype=np.int64).reshape(-1, 2)
    if not len(cells):
        raise ValueError("cell set must be nonempty")
    if not 0 <= k < x.channels:
        raise ValueError(f"channel index {k} out of range")
    ci, cj = cells[:, 0], cells[:, 1]
    interior = (ci >= 0) & (ci <= x.width - 2) & (cj >= 0) & (cj <= x.height - 2)
    ci, cj = ci[interior], cj[interior]
    plane = x.data[k]
    corners = np.stack([plane[ci, cj], plane[ci + 1, cj], plane[ci, cj + 1],
                        plane[ci + 1, cj + 1]])
    stats = np.zeros((len(cells), 2))
    stats[interior, 0] = corners.max(axis=0)
    stats[interior, 1] = corners.max(axis=0) - corners.min(axis=0)
    m_bar, m_delta = stats.max(axis=0)
    return float(m_bar), float(m_delta)


def rotation_interval_lipschitz(x, interval):
    """Exposed Lipschitz constant of one rotation interval.

    Sum over channels and disk pixels of 2 * d * m_delta * m_bar with
    the color statistics taken over that interval's trajectories.
    """
    t1, t2 = interval
    if not t1 < t2:
        raise ValueError("interval must satisfy t1 < t2")
    return float(aliasing._interval_constants(x, "rotation", [t1], [t2])[0][0])


def scaling_interval_lipschitz(x, interval):
    """Analogous constant for scaling, speed bounded at the left endpoint."""
    t1, t2 = interval
    if t1 <= 0.0:
        raise ValueError("scaling interval must be positive")
    if not t1 < t2:
        raise ValueError("interval must satisfy t1 < t2")
    return float(aliasing._interval_constants(x, "scaling", [t1], [t2])[0][0])


def transform_flat_batch(x, kind, params):
    return transform_spec(kind).apply_many(x, params).reshape(len(params), -1)


def interval_by_interval_bound(x, kind, grid):
    """``aliasing_bound`` as one loop over the intervals, each warping its own points.

    Whole images from ``apply_many``, read at the pixels the bound sums,
    and the interval constants of the package; the worst interval is the
    first of the largest bounds.
    """
    rr, ss, _ = _pixel_geometry(kind, x.width, x.height)
    pixels = (slice(None), slice(None), rr.astype(np.intp), ss.astype(np.intp))
    intervals = grid.intervals()
    exposed, slack = aliasing._interval_constants(x, kind, intervals[:, 0], intervals[:, 1])
    crossings = (aliasing.scaling_discontinuities(x.width, x.height, grid.a, grid.b)
                 if kind == "scaling" else [])
    worst = None
    for i, (lo, hi) in enumerate(intervals):
        pts, lip = grid.inner_points(lo, hi), float(slack[i])
        # contiguous rows: a sum along strided rows adds in another order
        imgs = np.ascontiguousarray(
            transform_spec(kind).apply_many(x, pts)[pixels].reshape(len(pts), -1))
        g_lo = np.sum((imgs - imgs[0]) ** 2, axis=1)
        g_hi = np.sum((imgs - imgs[-1]) ** 2, axis=1)
        t = next((c for c in crossings if lo <= c <= hi), None)
        if t is None:
            pair_min = np.minimum(g_lo[:-1] + g_lo[1:], g_hi[:-1] + g_hi[1:])
            bound = float(np.max(0.5 * pair_min + 0.5 * lip * np.diff(pts)))
        else:
            img_t = transform_spec(kind).apply_many(x, [t])[pixels].reshape(-1)
            g_hi_t = float(np.sum((img_t - imgs[-1]) ** 2))
            bound = max(aliasing._below_crossing_bound(pts, g_lo, lip, t),
                        aliasing._at_and_above_crossing_bound(pts, g_hi, lip, t, g_hi_t))
        if worst is None or bound > worst.bound:
            worst = aliasing.IntervalBound(float(lo), float(hi), bound, lip,
                                           float(exposed[i]), t)
    return aliasing.AliasingBound(worst, float(exposed.max(initial=0.0)))


def dense_max_min_error(x, kind, grid, n_dense=10_000, chunk=2_000):
    """max over a dense parameter grid of the min l2 distance to any anchor."""
    anchors = transform_flat_batch(x, kind, grid.anchors())
    params = np.linspace(grid.a, grid.b, n_dense)
    a_sq = (anchors ** 2).sum(axis=1)
    worst = 0.0
    for lo in range(0, n_dense, chunk):
        hi = min(lo + chunk, n_dense)
        t = transform_flat_batch(x, kind, params[lo:hi])
        d2 = (t ** 2).sum(axis=1)[:, None] + a_sq[None, :] - 2.0 * t @ anchors.T
        worst = max(worst, float(np.sqrt(np.maximum(d2, 0.0)).min(axis=1).max()))
    return worst


# ---------------------------------------------------------------------------
# Clopper-Pearson as first written

def _log_survival_reference(log_comb, successes, trials, p):
    """log P[X >= successes] for X ~ Binomial(trials, p), building its arrays afresh."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return 0.0
    k = np.arange(successes, trials + 1, dtype=np.float64)
    logs = log_comb + k * math.log(p) + (trials - k) * math.log1p(-p)
    m = np.max(logs)
    return float(m + math.log(np.sum(np.exp(logs - m))))


def clopper_pearson_lower_reference(successes, trials, alpha):
    """``clopper_pearson_lower`` with every bisection step rebuilding k and trials - k."""
    if successes == 0:
        return 0.0
    log_alpha = math.log(alpha)
    log_comb = _log_binom_tail_terms(successes, trials)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _log_survival_reference(log_comb, successes, trials, mid) < log_alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binom_two_sided_p_reference(successes, trials):
    """``binom_two_sided_p`` through the reference tail."""
    upper = math.exp(_log_survival_reference(_log_binom_tail_terms(successes, trials),
                                             successes, trials, 0.5))
    lower = math.exp(_log_survival_reference(_log_binom_tail_terms(trials - successes, trials),
                                             trials - successes, trials, 0.5))
    return min(1.0, 2.0 * min(lower, upper))


# ---------------------------------------------------------------------------
# Exact smoothed confidences of the synthetic classifiers

class AnalyticConfidenceError(ValueError):
    """The classifier/transform pairing has no closed-form smoothed confidence."""


def analytic_smoothed_confidence(classifier, transform, noise, x):
    """Exact smoothed probability of the classifier's designated class.

    Supported pairings: a constant classifier under any transform
    (probability 1 for its label), and the mean-threshold classifier
    under noises that move the mean pixel value by a gaussian amount --
    brightness-only noise (contrast scale 0) shifts the mean by b, and
    isotropic additive pixel noise shifts it by N(0, sigma^2 / d).
    Mean-preserving transforms (periodic translation, unit-sum blur)
    give the degenerate 0/1 confidence.  Everything else raises
    AnalyticConfidenceError; ``bc_mean_threshold_confidence`` covers
    brightness/contrast noise with both scales > 0.
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


# Gauss-Hermite nodes and weights for the weight exp(-z^2 / 2)
_HERMITE_Z, _HERMITE_W = np.polynomial.hermite_e.hermegauss(120)


def bc_mean_threshold_confidence(x, threshold, sigma_k, sigma_b):
    """Smoothed probability of class 1 for a mean-threshold classifier under
    brightness/contrast noise k ~ N(0, sigma_k^2), b ~ N(0, sigma_b^2).

    Pixels map to e^k (v + b), so the mean clears t iff b > t e^-k -
    mean(x), and p = E_k[Phi((mean(x) - t e^-k) / sigma_b)]: a 1-d
    gaussian expectation, taken by Gauss-Hermite quadrature.
    """
    mu = float(np.mean(x.data))
    values = [std_normal_cdf((mu - threshold * math.exp(-sigma_k * z)) / sigma_b)
              for z in _HERMITE_Z]
    return float(np.dot(_HERMITE_W, values) / math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# Report CSV

def _parse_opt_float(s):
    return None if s == "" else float(s)


ReportRow = namedtuple("ReportRow", _CSV_FIELDS)


def read_report_csv(path):
    """Parse a report CSV back into ``ReportRow``s."""
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if tuple(header) != _CSV_FIELDS:
            raise FormatError(f"unexpected CSV header {header}")
        rows = []
        for rec in reader:
            rows.append(ReportRow(
                index=int(rec[0]),
                true_label=int(rec[1]),
                predicted=int(rec[2]),
                verdict=rec[3],
                p_a_lower=_parse_opt_float(rec[4]),
                radius=_parse_opt_float(rec[5]),
                sqrt_m=_parse_opt_float(rec[6]),
                samples_used=int(rec[7]),
            ))
    return rows
