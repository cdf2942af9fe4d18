import ast
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (bilinear_one, dense_max_min_error, grid_pixel_trajectory,
                     interval_by_interval_bound, max_color_stats, rotation_interval_lipschitz,
                     scaling_interval_lipschitz, trajectory_cells)
from semcert.aliasing import (ConfigurationError, IntervalGrid, aliasing_bound,
                              scaling_discontinuities)
from semcert import aliasing, transforms
from semcert.aliasing import _source_curves
from semcert.tensor import ImageTensor
from semcert.transforms import (_BLOCK_POINTS, _pixel_geometry, center_coords, rotate_many,
                                scale_many)

# anchors ascend for rotation and descend for scaling, whose grid holds
# the crossing 1.0 and intervals whose unpinned inner points miss an end
_GUARD_GRIDS = [("rotation", -0.3, 0.3, 12, 5), ("scaling", 0.85, 1.15, 16, 6)]


def _peak_bytes(x, grid):
    """tracemalloc's peak over one ``aliasing_bound`` call."""
    tracemalloc.start()
    try:
        aliasing_bound(x, grid.kind, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIntervalGrid:
    def test_rotation_anchors_uniform(self):
        g = IntervalGrid("rotation", -0.1, 0.3, 5, 3)
        np.testing.assert_allclose(g.anchors(), np.linspace(-0.1, 0.3, 5))

    def test_scaling_anchors_harmonic_decreasing(self):
        g = IntervalGrid("scaling", 0.8, 1.2, 6, 3)
        a = g.anchors()
        assert a[0] == pytest.approx(1.2) and a[-1] == pytest.approx(0.8)
        assert np.all(np.diff(a) < 0)
        # uniform in 1/alpha
        np.testing.assert_allclose(np.diff(1.0 / a), np.diff(1.0 / a)[0])

    def test_inner_points_cover_interval(self):
        # every interval's points start and end exactly at its ends: a
        # last point short of hi leaves a sliver outside the envelope
        for kind, a, b, n_outer in (("scaling", 0.95, 1.05, 200), ("scaling", 0.8, 1.2, 1_000),
                                    ("rotation", -0.2, 0.2, 1_000)):
            g = IntervalGrid(kind, a, b, n_outer, 10)
            intervals = g.intervals()
            pts = g.inner_points(intervals[:, 0], intervals[:, 1])
            assert np.array_equal(pts[:, 0], intervals[:, 0])
            assert np.array_equal(pts[:, -1], intervals[:, 1])
            assert np.all(np.diff(pts, axis=-1) > 0)
            lo, hi = intervals[2]
            assert np.array_equal(g.inner_points(lo, hi), pts[2])

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalGrid("rotation", 0.2, 0.1, 5, 5)
        with pytest.raises(ValueError):
            IntervalGrid("scaling", -0.5, 1.0, 5, 5)
        with pytest.raises(ValueError):
            IntervalGrid("rotation", 0.0, 1.0, 1, 5)
        with pytest.raises(ValueError):
            IntervalGrid("shear", 0.0, 1.0, 5, 5)


class TestTrajectories:
    def test_center_pixel_is_single_cell(self, image_9x9):
        cells = grid_pixel_trajectory(image_9x9, "rotation", 4, 4, (0.0, 0.5),
                                      closure=False)
        assert cells == {(4, 4)}
        closed = grid_pixel_trajectory(image_9x9, "rotation", 4, 4, (0.0, 0.5))
        assert closed >= cells

    def test_arc_length_cell_count(self, image_9x9):
        # raw sampled cells along an arc of length d*delta cross at most
        # sqrt(2) grid lines per unit of arc
        for r, s, width in [(8, 4, 0.3), (6, 7, 0.7), (0, 0, 0.2)]:
            c_w, c_h = center_coords(9, 9)
            d = math.hypot(r - c_w, s - c_h)
            cells = grid_pixel_trajectory(image_9x9, "rotation", r, s,
                                          (0.1, 0.1 + width), closure=False)
            assert len(cells) <= math.ceil(math.sqrt(2.0) * d * width) + 4

    def test_closure_covers_dense_reference(self, image_9x9):
        closed = grid_pixel_trajectory(image_9x9, "rotation", 7, 2, (0.0, 0.9))
        c_w, c_h = center_coords(9, 9)
        d = math.hypot(7 - c_w, 2 - c_h)
        g = math.atan2(2 - c_h, 7 - c_w)
        thetas = np.linspace(0.0, 0.9, 50_000)
        ref = set(zip(np.floor(c_w + d * np.cos(g - thetas)).astype(int).tolist(),
                      np.floor(c_h + d * np.sin(g - thetas)).astype(int).tolist()))
        assert ref <= closed

    def test_scaling_center_column_moves_one_axis(self, image_9x9):
        cells = grid_pixel_trajectory(image_9x9, "scaling", 4, 0, (0.5, 1.5),
                                      closure=False)
        assert {ci for ci, _ in cells} == {4}
        assert len({cj for _, cj in cells}) > 1

    def test_bad_interval(self, image_9x9):
        with pytest.raises(ValueError):
            grid_pixel_trajectory(image_9x9, "rotation", 1, 1, (0.5, 0.5))


class TestMaxColorStats:
    def test_constant_image(self):
        x = ImageTensor(np.full((1, 5, 5), 0.4))
        m_bar, m_delta = max_color_stats(x, 0, [(1, 1), (2, 3)])
        assert m_bar == pytest.approx(0.4)
        assert m_delta == 0.0

    def test_single_cell_known_corners(self):
        data = np.zeros((1, 3, 3))
        data[0, 1, 1], data[0, 2, 1], data[0, 1, 2], data[0, 2, 2] = 0.0, 1.0, 0.2, 0.8
        x = ImageTensor(data)
        m_bar, m_delta = max_color_stats(x, 0, [(1, 1)])
        assert m_bar == 1.0 and m_delta == 1.0

    def test_against_naive_reference(self, rng):
        # reference: the package's own interpolation read just inside each
        # cell's four corners, so a cell outside [0, W-2] x [0, H-2] reads
        # the 0 that interpolation gives outside Omega
        x = ImageTensor(rng.random((2, 7, 7)))
        cells = [(int(rng.integers(-1, 7)), int(rng.integers(-1, 7)))
                 for _ in range(12)]
        cells += [(-1, 3), (6, 3), (3, -1), (3, 6)]  # straddle the border
        eps = 1e-9

        def reference(k, cell_set):
            best_max, best_spread = 0.0, 0.0
            for ci, cj in cell_set:
                vals = [bilinear_one(x, k, ci + di, cj + dj)
                        for di in (eps, 1.0 - eps) for dj in (eps, 1.0 - eps)]
                best_max = max(best_max, max(vals))
                best_spread = max(best_spread, max(vals) - min(vals))
            return best_max, best_spread

        for k in range(2):
            for cell_set in [cells] + [[cell] for cell in cells]:
                want_max, want_spread = reference(k, cell_set)
                got = max_color_stats(x, k, cell_set)
                assert got == (pytest.approx(want_max, abs=1e-8),
                               pytest.approx(want_spread, abs=1e-8))

    def test_empty_rejected(self, image_9x9):
        with pytest.raises(ValueError):
            max_color_stats(image_9x9, 0, [])


def _closure_stats_float(tables, src_i, src_j, margin):
    """``aliasing._closure_stats`` with float64 cells: every floor, box end,
    rectangle corner and table index a float, cast to intp last."""
    _, _, wp, hp, n_stats = tables.shape
    pad = aliasing._PAD
    i_lo, i_hi = np.floor(src_i.min(axis=0) - margin), np.floor(src_i.max(axis=0) + margin)
    j_lo, j_hi = np.floor(src_j.min(axis=0) - margin), np.floor(src_j.max(axis=0) + margin)
    fi, fj = np.floor(src_i), np.floor(src_j)
    r0, r1 = np.maximum(fi - 1, i_lo), np.minimum(fi + 1, i_hi)
    c0, c1 = np.maximum(fj - 1, j_lo), np.minimum(fj + 1, j_hi)
    r = np.clip(r0, -pad, wp - 2 * pad) + pad
    c = np.clip(c0, -pad, hp - 2 * pad) + pad
    flat = ((((r1 - r0) * 3 + (c1 - c0)) * wp + r) * hp + c).astype(np.intp)
    return np.take(tables.reshape(-1, n_stats), flat, axis=0).max(axis=0)


class TestIntegerCells:
    # the int32 cells give the float version's statistics bit for bit; a
    # 2x9x11 image, so sides differ and pixel (4, 5) sits on the center
    @pytest.mark.parametrize("kind,lo,hi", [
        ("rotation", -0.3, 0.3), ("scaling", 0.95, 1.05), ("scaling", 0.3, 3.0)])
    def test_equal_to_float_cells(self, rng, kind, lo, hi):
        x = ImageTensor(rng.random((2, 9, 11)))
        rr, ss, d = _pixel_geometry(kind, 9, 11)
        ends = np.linspace(lo, hi, 7)
        src_i, src_j, _, margin = _source_curves(x, kind, rr, ss, d, ends[:-1], ends[1:])
        tables = aliasing._range_max_tables(x)
        got = aliasing._closure_stats(tables, src_i, src_j, margin)
        assert got.tobytes() == _closure_stats_float(tables, src_i, src_j, margin).tobytes()

    @pytest.mark.parametrize("margin", [0.0, 2.5])
    def test_clipped_far_outside(self, rng, margin):
        # scaling by 1e-9 reads sources near 1e10, past int32: the clip
        # changes no lookup, and the center pixel still reads its cells
        x = ImageTensor(rng.random((2, 9, 11)))
        rr, ss, _ = _pixel_geometry("scaling", 9, 11)
        params = np.linspace(1e-9, 2e-9, 12).reshape(4, 3)
        src_i, src_j = transforms._source_map("scaling", 9, 11, rr, ss)(params)
        assert np.abs(src_i).max() > 2.0 ** 31
        margin = np.full(src_i.shape[1:], margin)
        tables = aliasing._range_max_tables(x)
        got = aliasing._closure_stats(tables, src_i, src_j, margin)
        assert got.tobytes() == _closure_stats_float(tables, src_i, src_j, margin).tobytes()
        assert np.count_nonzero(got.max(axis=-1)) == 3  # the center pixel, per interval


def _per_sample_constants(x, kind, lo, hi):
    """``aliasing._interval_constants`` one interval at a time, every sample
    mapped from its own parameter and every sample's closure rectangle read
    (``_closure_stats_float``): the rule before intervals shared their ends."""
    rr, ss, d = _pixel_geometry(kind, x.width, x.height)
    tables = aliasing._range_max_tables(x)
    factor = 2.0 if kind == "rotation" else math.sqrt(2.0)
    exposed, slack = [], []
    for a, b in zip(lo, hi):
        count = int(aliasing._sample_counts(kind, d.max(), np.array([a]), np.array([b]))[0])
        step = (b - a) / (count - 1)
        params = np.array([k * step + a for k in range(count - 1)] + [b])[:, None]
        src_i, src_j = transforms._source_map(kind, x.width, x.height, rr, ss)(params)
        if kind == "rotation":
            speed, margin = d, d * np.float_power(step, 2) / 8.0
        else:
            speed, margin = d / np.float_power(a, 2), np.zeros_like(d)
        stats = _closure_stats_float(tables, src_i, src_j, margin[None])[0]
        m_bar, m_delta = np.split(stats, 2, axis=-1)
        exposed.append(np.sum(factor * speed[:, None] * m_delta * m_bar))
        lip_phi = math.sqrt(2.0) * speed[:, None] * m_delta
        slack.append(np.sum(2.0 * lip_phi * np.minimum(m_bar, lip_phi * (b - a))))
    return np.array(exposed), np.array(slack)


_FIVE = math.radians(5.0)


class TestSharedEnds:
    """Constants from each distinct sample parameter once, and from one box
    lookup per (interval, pixel) where every box is narrow, equal the
    per-sample rule bit for bit."""

    # (kind, intervals, the rectangle reads expected: one per interval and
    # pixel where every box of the chunk is narrow, else one per sample)
    CASES = [
        # fine grids: two samples an interval, each end shared, several chunks
        ("rotation", IntervalGrid("rotation", -_FIVE, _FIVE, 60, 2).intervals(), {"box"}),
        # the crossing 1.0 lies inside one interval
        ("scaling", IntervalGrid("scaling", 0.95, 1.05, 60, 2).intervals(), {"box"}),
        # coarse grids (--grid-n 3): many samples an interval, wide boxes
        ("rotation", IntervalGrid("rotation", -_FIVE, _FIVE, 3, 2).intervals(), {"samples"}),
        ("scaling", IntervalGrid("scaling", 0.8, 1.2, 3, 2).intervals(), {"samples"}),
        ("rotation", IntervalGrid("rotation", -0.3, 0.3, 5, 2).intervals(), {"samples"}),
        # one wide box makes its chunk read every sample; ends not shared
        ("rotation", np.array([(0.0, 1e-3), (0.1, 0.4), (0.4, 0.401)]), {"samples"}),
        ("scaling", np.array([(0.99, 0.991), (0.85, 0.95), (1.2, 1.2001)]), {"samples"}),
        # disjoint narrow intervals, equal ends at other positions
        ("rotation", np.array([(0.2, 0.201), (0.0, 1e-3), (0.201, 0.202), (-1e-3, 0.0)]),
         {"box"}),
        ("scaling", np.array([(1.01, 1.011), (0.999, 1.0), (1.0, 1.001), (0.9, 0.901)]),
         {"box"}),
    ]

    @pytest.mark.parametrize("kind,intervals,reads", CASES)
    @pytest.mark.parametrize("shape,seed", [((1, 28, 28), 3), ((2, 10, 7), 4)])
    def test_equal_to_per_sample_rule(self, monkeypatch, kind, intervals, reads, shape, seed):
        x = ImageTensor(np.random.default_rng(seed).random(shape))
        seen, rect_max = set(), aliasing._rect_max

        def recording(tables, r0, *args):
            seen.add("box" if r0.ndim == 2 else "samples")
            return rect_max(tables, r0, *args)

        monkeypatch.setattr(aliasing, "_rect_max", recording)
        got = aliasing._interval_constants(x, kind, intervals[:, 0], intervals[:, 1])
        want = _per_sample_constants(x, kind, intervals[:, 0], intervals[:, 1])
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        if shape == (1, 28, 28):
            assert seen == reads

    def test_each_distinct_parameter_mapped_once_a_chunk(self, monkeypatch):
        # the 59 intervals of a fine grid share 58 ends: a chunk of m of them
        # maps m + 1 parameters, each once
        x = ImageTensor(np.random.default_rng(3).random((1, 28, 28)))
        intervals = IntervalGrid("rotation", -_FIVE, _FIVE, 60, 2).intervals()
        mapped, source_map = [], aliasing._source_map

        def recording(*args):
            coords = source_map(*args)
            return lambda params: mapped.append(np.ravel(params).tolist()) or coords(params)

        monkeypatch.setattr(aliasing, "_source_map", recording)
        aliasing._interval_constants(x, "rotation", intervals[:, 0], intervals[:, 1])
        assert len(mapped) == 3  # chunks of 29 intervals
        assert all(len(chunk) == len(set(chunk)) for chunk in mapped)
        assert sum(map(len, mapped)) == len(intervals) + len(mapped)
        assert set().union(*mapped) == set(intervals.ravel().tolist())


class TestCurveSpeed:
    def test_rotation_l2_speed_is_d(self, image_9x9):
        # finite differences of the source curve: l2 speed equals the
        # pixel's distance to the center exactly
        c_w, c_h = center_coords(9, 9)
        for r, s in [(8, 4), (2, 7), (6, 6)]:
            d = math.hypot(r - c_w, s - c_h)
            g = math.atan2(s - c_h, r - c_w)
            h = 1e-6
            for theta in (0.0, 0.4, 1.1):
                di = (c_w + d * math.cos(g - (theta + h))
                      - (c_w + d * math.cos(g - (theta - h)))) / (2 * h)
                dj = (c_h + d * math.sin(g - (theta + h))
                      - (c_h + d * math.sin(g - (theta - h)))) / (2 * h)
                assert math.hypot(di, dj) == pytest.approx(d, abs=1e-8)

    def test_rotation_max_l1_speed_is_sqrt2_d(self):
        # the l1 speed |di'| + |dj'| peaks at sqrt(2) d on diagonal motion,
        # which is the constant entering the interpolation Lipschitz bound
        c_w = c_h = 4.0
        r, s = 8, 4
        d = math.hypot(r - c_w, s - c_h)
        thetas = np.linspace(0, 2 * math.pi, 100_000)
        g = math.atan2(s - c_h, r - c_w)
        l1 = np.abs(d * np.sin(g - thetas)) + np.abs(d * np.cos(g - thetas))
        assert l1.max() == pytest.approx(math.sqrt(2.0) * d, abs=1e-6)

    def test_scaling_speed_quarters_when_t1_doubles(self, image_9x9):
        rr = np.array([7.0])
        ss = np.array([1.0])
        lo, hi = np.array([0.5, 1.0]), np.array([0.6, 1.1])
        d = np.sqrt((rr - 4.0) ** 2 + (ss - 4.0) ** 2)
        _, _, speed, margin = _source_curves(image_9x9, "scaling", rr, ss, d, lo, hi)
        assert speed[1, 0] == pytest.approx(speed[0, 0] / 4.0, rel=1e-12)
        # scaling coordinates are monotone in the parameter: no overshoot
        assert np.all(margin == 0.0)


class TestIntervalLipschitz:
    def test_constant_image_zero(self):
        x = ImageTensor(np.full((1, 9, 9), 0.5))
        assert rotation_interval_lipschitz(x, (0.0, 0.01)) == 0.0
        assert scaling_interval_lipschitz(x, (0.95, 0.96)) == 0.0

    def test_single_bright_pixel_positive(self):
        data = np.zeros((1, 9, 9))
        data[0, 6, 4] = 1.0
        x = ImageTensor(data)
        assert rotation_interval_lipschitz(x, (0.0, 0.05)) > 0.0

    def test_finite_difference_slopes_below_constant(self, rng):
        # |g(c) - g(d)| / |c - d| for anchored squared-distance curves
        x = ImageTensor(rng.random((1, 9, 9)))
        t1, t2 = 0.02, 0.03
        L = rotation_interval_lipschitz(x, (t1, t2))
        anchor = rotate_many(x, [t1]).reshape(-1)
        cs = rng.uniform(t1, t2, 200)
        ds = rng.uniform(t1, t2, 200)
        gc = ((rotate_many(x, cs).reshape(200, -1) - anchor) ** 2).sum(axis=1)
        gd = ((rotate_many(x, ds).reshape(200, -1) - anchor) ** 2).sum(axis=1)
        slopes = np.abs(gc - gd) / np.maximum(np.abs(cs - ds), 1e-12)
        assert np.all(slopes <= L)

    @pytest.mark.parametrize("shape,seed", [((1, 28, 28), 1), ((3, 9, 9), 2),
                                            ((1, 10, 7), 3), ((1, 7, 10), 4)])
    @pytest.mark.parametrize("kind,interval", [
        ("rotation", (0.0, 0.01)),
        ("rotation", (0.1, 1.0)),    # many samples, nonzero overshoot margin
        ("rotation", (-3.0, 3.0)),
        ("scaling", (0.95, 0.96)),
        ("scaling", (0.5, 1.6)),     # crosses the border
        ("scaling", (0.3, 0.9)),
    ])
    def test_equals_closure_rule_per_pixel(self, shape, seed, kind, interval):
        # reference: each pixel's cells from trajectory_cells, their
        # statistics read from the cells' corners by max_color_stats,
        # summed over (pixel, channel)
        x = ImageTensor(np.random.default_rng(seed).random(shape))
        t1, _ = interval
        ii, jj, d = _pixel_geometry(kind, x.width, x.height)
        factor, speed = (2.0, d) if kind == "rotation" else (math.sqrt(2.0), d / t1 ** 2)
        terms = []
        pixel_cells = trajectory_cells(x, kind, interval, ii, jj)
        for cells, v in zip(pixel_cells, speed):
            stats = [max_color_stats(x, k, cells) for k in range(x.channels)]
            terms.append([factor * v * m_delta * m_bar for m_bar, m_delta in stats])
        want = float(np.sum(np.array(terms))) if terms else 0.0
        lipschitz = (rotation_interval_lipschitz if kind == "rotation"
                     else scaling_interval_lipschitz)
        assert lipschitz(x, interval) == want

    @pytest.mark.parametrize("kind,intervals", [
        ("rotation", [(0.0, 0.01), (0.1, 1.0), (-3.0, 3.0), (0.2, 0.21)]),
        ("scaling", [(0.95, 0.96), (0.5, 1.6), (0.3, 0.9), (1.0, 1.001)]),
    ])
    def test_batched_intervals_equal_one_at_a_time(self, kind, intervals, monkeypatch):
        # intervals needing different sample counts share one pass, and
        # chunk boundaries do not matter
        x = ImageTensor(np.random.default_rng(5).random((3, 9, 9)))
        lo, hi = np.array(intervals).T
        alone = [aliasing._interval_constants(x, kind, [a], [b]) for a, b in intervals]
        alone = tuple(np.concatenate(v) for v in zip(*alone))
        together = aliasing._interval_constants(x, kind, lo, hi)
        monkeypatch.setattr(aliasing, "_BLOCK_POINTS", 1)  # one interval a chunk
        chunked = aliasing._interval_constants(x, kind, lo, hi)
        for got in (together, chunked):
            assert np.array_equal(got[0], alone[0]) and np.array_equal(got[1], alone[1])

    def test_scaling_validation(self, image_9x9):
        with pytest.raises(ValueError):
            scaling_interval_lipschitz(image_9x9, (0.0, 0.5))
        with pytest.raises(ValueError):
            scaling_interval_lipschitz(image_9x9, (1.0, 0.9))


class TestScalingDiscontinuities:
    def test_three_by_three_hand_case(self):
        assert scaling_discontinuities(3, 3, 0.4, 1.0) == [1.0]

    def test_solves_border_crossings(self):
        # oracle: alpha where (r - c)/alpha = +-c, solved directly
        W = H = 9
        c = 4.0
        expected = sorted({abs(r - c) / c for r in range(W)
                           if 0.5 <= abs(r - c) / c <= 1.1})
        assert scaling_discontinuities(W, H, 0.5, 1.1) == pytest.approx(expected)

    def test_narrow_interval_empty(self):
        assert scaling_discontinuities(9, 9, 0.26, 0.49) == []

    def test_size_bounded(self):
        d = scaling_discontinuities(12, 8, 0.01, 5.0)
        assert len(d) <= 12 + 8
        assert d == sorted(d)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            scaling_discontinuities(9, 9, 0.0, 1.0)


class TestAliasingBound:
    def test_constant_image_rotation_zero(self):
        x = ImageTensor(np.full((1, 9, 9), 0.7))
        g = IntervalGrid("rotation", -0.3, 0.3, 20, 10)
        assert aliasing_bound(x, "rotation", g).m_value == 0.0

    def test_constant_image_upscaling_zero(self):
        # upscaling a constant image stays constant; the s = 1 border
        # crossing sits exactly at the grid edge and must stay harmless
        x = ImageTensor(np.full((1, 9, 9), 0.7))
        g = IntervalGrid("scaling", 1.0, 1.3, 20, 10)
        assert aliasing_bound(x, "scaling", g).m_value == 0.0

    def test_rotation_sound_and_not_vacuous(self, image_9x9):
        g = IntervalGrid("rotation", -0.05, 0.05, 200, 50)
        bound = aliasing_bound(x := image_9x9, "rotation", g)
        dense = dense_max_min_error(x, "rotation", g, n_dense=10_000)
        assert bound.sqrt_m >= dense
        assert bound.sqrt_m <= 10.0 * dense

    def test_scaling_sound_with_discontinuity(self, image_9x9):
        g = IntervalGrid("scaling", 0.9, 1.1, 200, 50)
        assert scaling_discontinuities(9, 9, 0.9, 1.1) == [1.0]
        bound = aliasing_bound(image_9x9, "scaling", g)
        dense = dense_max_min_error(image_9x9, "scaling", g, n_dense=10_000)
        assert bound.sqrt_m >= dense

    def test_refinement_by_ten(self, image_9x9):
        coarse = aliasing_bound(image_9x9, "rotation",
                                IntervalGrid("rotation", -0.05, 0.05, 100, 20)).m_value
        fine = aliasing_bound(image_9x9, "rotation",
                              IntervalGrid("rotation", -0.05, 0.05, 1000, 20)).m_value
        assert coarse >= 10.0 * fine

    def test_per_interval_table(self, image_9x9):
        # the bound keeps the one interval that attains M
        g = IntervalGrid("rotation", -0.02, 0.02, 6, 5)
        bound = aliasing_bound(image_9x9, "rotation", g)
        assert bound.m_value == bound.worst.bound
        assert (bound.worst.lo, bound.worst.hi) in [tuple(iv) for iv in g.intervals()]
        assert bound.lipschitz_l == max(rotation_interval_lipschitz(image_9x9, tuple(iv))
                                        for iv in g.intervals())

    # exact values, so a change in how the constants round or sum shows:
    # (image shape, seed), grid, then lo, hi, bound, slack, exposed,
    # discontinuity and lipschitz_l
    @pytest.mark.parametrize("shape,seed,grid,want", [
        ((3, 9, 9), 11, ("rotation", -0.3, 0.3, 20, 10),
         (-0.01578947368421052, 0.01578947368421052, 0.16900066769980854,
          73.69283009735922, 470.39543851208066, None, 470.39543851208066)),
        ((3, 9, 9), 12, ("scaling", 0.9, 1.1, 40, 10),
         (0.9976744186046512, 1.002857142857143, 0.016368039713504777,
          38.663977380597316, 789.9865490715877, 1.0, 789.9865490715877)),
        ((1, 10, 7), 13, ("rotation", -math.pi, math.pi, 7, 57),
         (0.0, 1.0471975511965974, 2.806438301971444,
          124.73184214932144, 88.76597377908324, None, 88.76597377908324)),
        ((1, 7, 10), 14, ("scaling", 0.5, 2.0, 60, 15),
         (0.9915966386554622, 1.017241379310345, 0.09625974355738179,
          53.05993917897768, 229.676897432052, 1.0, 229.676897432052)),
    ])
    def test_pinned_bounds(self, shape, seed, grid, want):
        x = ImageTensor(np.random.default_rng(seed).random(shape))
        bound = aliasing_bound(x, grid[0], IntervalGrid(*grid))
        w = bound.worst
        assert (w.lo, w.hi, w.bound, w.slack_lipschitz, w.exposed_lipschitz,
                w.discontinuity, bound.lipschitz_l) == want
        assert all(type(v) is float for v in (w.lo, w.hi, w.bound, w.slack_lipschitz,
                                              w.exposed_lipschitz, bound.lipschitz_l))

    # two-point grids of the CLI's sizes on one 28x28 image, pinned from the
    # per-sample rule: rotation's 2,999 intervals take two blocks of ends
    # (2,048 intervals a block) and chunks of 29 intervals, and the scaling
    # default's 999 straddle the crossing 1.0
    @pytest.mark.parametrize("grid,want", [
        (("rotation", -_FIVE, _FIVE, 3000, 2),
         (0.00020402124017236757, 7013.104925467258, -2.9098520373360692e-05,
          2.9098520373360692e-05, 6.886916889739497, 7013.104925467258, None)),
        (("scaling", 0.95, 1.05, 1000, 2),
         (0.0011421890478759322, 8259.729117102514, 0.9999523355576739, 1.0000526870389883,
          23.963126224415593, 8259.729117102514, 1.0)),
    ])
    def test_pinned_two_point_bounds_at_scale(self, grid, want):
        x = ImageTensor(np.random.default_rng(28).random((1, 28, 28)))
        bound = aliasing_bound(x, grid[0], IntervalGrid(*grid))
        w = bound.worst
        assert (bound.m_value, bound.lipschitz_l, w.lo, w.hi, w.slack_lipschitz,
                w.exposed_lipschitz, w.discontinuity) == want

    @pytest.mark.parametrize("kind,lo,hi", [("rotation", -0.3, 0.3),
                                            ("scaling", 0.9, 1.1)])
    def test_negative_pixels_rejected(self, kind, lo, hi):
        # negated, this image gives sqrt(M) below the dense sampling error
        # (0.1438 < 0.1489 for rotation, 0.0868 < 0.0953 for scaling) and
        # a zero Lipschitz constant, because the cell maxima bound |colour|
        # only for colours >= 0
        x = ImageTensor(-np.random.default_rng(0).random((1, 9, 9)))
        with pytest.raises(ValueError, match="pixel values >= 0"):
            aliasing_bound(x, kind, IntervalGrid(kind, lo, hi, 20, 10))

    def test_blocking_does_not_change_bounds(self, image_9x9, monkeypatch):
        g = IntervalGrid("scaling", 0.9, 1.1, 12, 5)
        whole = aliasing_bound(image_9x9, "scaling", g)
        monkeypatch.setattr(aliasing, "_BLOCK_IMAGES", 15)  # 3 of 11 intervals a block
        blocked = aliasing_bound(image_9x9, "scaling", g)
        assert blocked == whole

    def test_memory_flat_in_inner_points(self, image_9x9):
        peaks = [_peak_bytes(image_9x9, IntervalGrid("rotation", -0.1, 0.1, 11, n_inner))
                 for n_inner in (500, 4000)]
        assert peaks[1] <= 2 * peaks[0]

    def test_memory_holds_no_block_of_inner_images(self):
        # 20 x 400 at +-5 deg on 28x28 warps 7,980 inner points of 560 disk
        # pixels, 17.9 MB as one block; streamed a kernel block at a time
        # against the interval ends, the bound peaks far below that
        x = ImageTensor(np.random.default_rng(2).random((1, 28, 28)))
        a = math.radians(5.0)
        peak = _peak_bytes(x, IntervalGrid("rotation", -a, a, 20, 400))
        assert peak < 6_000_000, peak

    def test_memory_flat_in_outer_anchors(self, image_9x9):
        # the interval constants are built in bounded chunks: ten times the
        # intervals may add the anchor images, not ten times the work arrays
        peaks = [_peak_bytes(image_9x9, IntervalGrid("rotation", -0.1, 0.1, n_outer, 50))
                 for n_outer in (200, 2000)]
        assert peaks[1] <= 2 * peaks[0]

    def test_discontinuity_density_check(self, image_9x9):
        # [0.5, 1.0] holds crossings {0.5, 0.75, 1.0}: two anchors leave
        # them all in one interval
        g = IntervalGrid("scaling", 0.5, 1.0, 2, 10)
        with pytest.raises(ConfigurationError):
            aliasing_bound(image_9x9, "scaling", g)

    def test_grid_kind_must_match(self, image_9x9):
        g = IntervalGrid("rotation", -0.1, 0.1, 5, 5)
        with pytest.raises(ValueError):
            aliasing_bound(image_9x9, "scaling", g)


def _record_warps(monkeypatch):
    """(parameter, (K, P) pixels) of every warp the aliasing bound makes."""
    seen = []

    def recording(x, kind, params, ii, jj, out=None, warp=transforms._warp_pixels):
        for lo, block in warp(x, kind, params, ii, jj, out):
            seen.extend(zip(np.asarray(params[lo:lo + len(block)]).tolist(), block.copy()))
            yield lo, block

    monkeypatch.setattr(aliasing, "_warp_pixels", recording)
    return seen


def _bound_entries(x, kind, images):
    """The (K, P) entries of (B, K, W, H) ``images`` at the pixels the bound sums."""
    rr, ss, _ = _pixel_geometry(kind, x.width, x.height)
    return images[:, :, rr.astype(np.intp), ss.astype(np.intp)]


class TestAnchorsAreGridPoints:
    """The bound reads each interval's anchor images from its own inner
    points, so those ends must be exactly the warps of the anchors."""

    @pytest.mark.parametrize("grid", _GUARD_GRIDS)
    def test_interval_ends_equal_anchor_warps(self, image_9x9, monkeypatch, grid):
        g = IntervalGrid(*grid)
        whole = aliasing_bound(image_9x9, g.kind, g)
        monkeypatch.setattr(aliasing, "_BLOCK_IMAGES", 3 * g.n_inner)  # 3 intervals a block
        seen, blocks = _record_warps(monkeypatch), []

        def recording(grid, lo, hi, inner_points=IntervalGrid.inner_points):
            blocks.append(inner_points(grid, lo, hi))
            return blocks[-1]

        monkeypatch.setattr(IntervalGrid, "inner_points", recording)
        assert aliasing_bound(image_9x9, g.kind, g) == whole
        assert len(blocks) > 1
        inner, anchors = np.concatenate(blocks), g.anchors()
        lo, hi = (anchors[:-1], anchors[1:]) if g.kind == "rotation" else (anchors[1:], anchors[:-1])
        assert np.array_equal(inner[:, 0], lo) and np.array_equal(inner[:, -1], hi)
        anchor_imgs = transforms.transform_spec(g.kind).apply_many(image_9x9, anchors)
        alone = {a: img.tobytes() for a, img in
                 zip(anchors.tolist(), _bound_entries(image_9x9, g.kind, anchor_imgs))}
        ends = [(t, img.tobytes()) for t, img in seen if t in alone]
        assert {t for t, _ in ends} == set(alone)
        assert all(img == alone[t] for t, img in ends)

    @pytest.mark.parametrize("grid", _GUARD_GRIDS)
    def test_bound_warps_only_inner_points_and_crossings(self, image_9x9, monkeypatch, grid):
        # each interval's inner points, and a scaling crossing once per
        # interval holding it, are all the bound may warp: no anchor again
        g = IntervalGrid(*grid)
        monkeypatch.setattr(aliasing, "_BLOCK_IMAGES", 3 * g.n_inner)
        seen = _record_warps(monkeypatch)
        aliasing_bound(image_9x9, g.kind, g)
        intervals = g.intervals()
        allowed = Counter(g.inner_points(intervals[:, 0], intervals[:, 1]).ravel().tolist())
        if g.kind == "scaling":
            crossings = scaling_discontinuities(9, 9, g.a, g.b)
            assert crossings
            allowed.update(crossings)
        warped = Counter(t for t, _ in seen)
        assert not warped - allowed


class TestBlockReduction:
    """A block's intervals are reduced as arrays, with the loop's bits and ties."""

    @pytest.mark.parametrize("grid", _GUARD_GRIDS + [
        ("scaling", 0.5, 2.0, 60, 15), ("rotation", -math.pi, math.pi, 7, 57),
        ("rotation", -0.1, 0.1, 300, 2), ("scaling", 0.9, 1.1, 300, 2)])
    @pytest.mark.parametrize("shape", [(1, 9, 9), (2, 10, 7)])
    def test_equals_interval_by_interval_loop(self, monkeypatch, grid, shape):
        x = ImageTensor(np.random.default_rng(7).random(shape))
        g = IntervalGrid(*grid)
        want = interval_by_interval_bound(x, g.kind, g)
        assert aliasing_bound(x, g.kind, g) == want
        # several blocks, and several interval-constant chunks in each
        monkeypatch.setattr(aliasing, "_BLOCK_IMAGES", 3 * g.n_inner)
        monkeypatch.setattr(aliasing, "_BLOCK_POINTS", 50)
        assert aliasing_bound(x, g.kind, g) == want
        # kernel blocks of a few points, which intervals and their ends straddle
        pixels = len(_pixel_geometry(g.kind, x.width, x.height)[0])
        for points in (1, 3, 7):
            monkeypatch.setattr(transforms, "_BLOCK_POINTS", points * pixels)
            assert aliasing_bound(x, g.kind, g) == want

    @pytest.mark.parametrize("grid", _GUARD_GRIDS)
    def test_first_interval_on_ties(self, monkeypatch, grid):
        # every interval of a black image bounds 0: the first one is kept
        g = IntervalGrid(*grid)
        x = ImageTensor(np.zeros((1, 9, 9)))
        monkeypatch.setattr(aliasing, "_BLOCK_IMAGES", 3 * g.n_inner)
        for points in (_BLOCK_POINTS, 3 * len(_pixel_geometry(g.kind, x.width, x.height)[0])):
            monkeypatch.setattr(transforms, "_BLOCK_POINTS", points)
            worst = aliasing_bound(x, g.kind, g).worst
            assert worst.bound == 0.0
            assert (worst.lo, worst.hi) == tuple(g.intervals()[0])


class TestOneSourceMap:
    def test_aliasing_computes_no_trigonometry(self):
        # rotation's polar geometry lives in transforms._source_map alone
        tree = ast.parse(Path(aliasing.__file__).read_text())
        calls = {node.func.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"}
        assert not calls & {"cos", "sin", "arctan2", "hypot"}

    @pytest.mark.parametrize("kind,lo,hi", [("rotation", -0.4, 0.7), ("scaling", 0.8, 1.3)])
    @pytest.mark.parametrize("shape", [(1, 9, 9), (2, 10, 7)])
    def test_curve_ends_are_warp_coordinates(self, monkeypatch, kind, lo, hi, shape):
        # the bound's curves start and end, bit for bit, where the warp
        # interpolates at lo and hi
        x = ImageTensor(np.random.default_rng(8).random(shape))
        read = []

        def recording(x, k, src_i, src_j, out=None, work=None, bilinear=transforms.bilinear_many):
            read.append((src_i.reshape(len(src_i), -1), src_j.reshape(len(src_j), -1)))
            return bilinear(x, k, src_i, src_j, out, work)

        monkeypatch.setattr(transforms, "bilinear_many", recording)
        transforms.transform_spec(kind).apply_many(x, [lo, hi])
        rr, ss, d = _pixel_geometry(kind, x.width, x.height)
        src_i, src_j, _, _ = _source_curves(x, kind, rr, ss, d, np.array([lo]), np.array([hi]))
        assert len(read) == x.channels  # one read per channel
        for warp_i, warp_j in read:
            assert np.array_equal(src_i[[0, -1], 0], warp_i)
            assert np.array_equal(src_j[[0, -1], 0], warp_j)

    @pytest.mark.parametrize("grid", _GUARD_GRIDS)
    def test_bound_builds_no_whole_image(self, image_9x9, monkeypatch, grid):
        # the bound warps only the pixels it sums, through the one pixel loop
        def refuse(*args):
            raise AssertionError("aliasing_bound built whole images")

        g = IntervalGrid(*grid)
        whole = aliasing_bound(image_9x9, g.kind, g)
        for name in ("rotate_many", "scale_many"):
            monkeypatch.setattr(transforms, name, refuse)
        assert aliasing_bound(image_9x9, g.kind, g) == whole

    @pytest.mark.parametrize("grid", _GUARD_GRIDS)
    @pytest.mark.parametrize("shape", [(1, 9, 9), (2, 10, 7)])
    def test_bound_pixels_equal_warp_entries(self, monkeypatch, grid, shape):
        # bit for bit the entries rotate_many and scale_many write there
        x = ImageTensor(np.random.default_rng(6).random(shape))
        g = IntervalGrid(*grid)
        seen = _record_warps(monkeypatch)
        aliasing_bound(x, g.kind, g)
        params = np.array([t for t, _ in seen])
        many = rotate_many if g.kind == "rotation" else scale_many
        want = _bound_entries(x, g.kind, many(x, params))
        assert len(seen) > g.n_outer
        assert np.stack([img for _, img in seen]).tobytes() == want.tobytes()
