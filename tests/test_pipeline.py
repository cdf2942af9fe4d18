"""Direct tests of the four certification pipelines.

``certify_diff_resolvable`` (rotation and scaling) shares one
``RowStream`` across anchors, which draws each slice once per row for
an affine classifier and the prefix once otherwise, and memoises
Clopper-Pearson bounds; it reads the anchors' first checks against a
two-point aliasing bound until one cannot be decided there; from that
anchor on it runs the anchors in full against the grid's bound.  None
of that may change a verdict, so the pipeline is compared with a plain
loop written here that runs every anchor in full against the grid's
bound; its certified verdicts are checked against the exact
smoothed confidence of a mean-threshold classifier, and a coverage test
counts the Clopper-Pearson bounds it reads that exceed that confidence.
``certify_translation_enum`` is compared with a loop that classifies
one shifted image at a time.
``certify_resolvable`` and ``certify_bc_rectangle`` run on classifiers
whose smoothed confidence is exactly 0 or 1, so every sample agrees and
the expected bound and verdict follow from the closed forms alone; a
second coverage test counts the brightness/contrast bounds that exceed
a mean-threshold classifier's confidence under both noise scales.
``robust_accuracy_report`` times each row's certifier call.
"""

import math
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (ImageOnlyLinear, analytic_smoothed_confidence, apply_one,
                     bc_mean_threshold_confidence, dense_max_min_error, one_label,
                     random_linear, translate)
from semcert import aliasing, pipeline, smoothing
from semcert.aliasing import IntervalGrid, aliasing_bound
from semcert.classifiers import ConstantClassifier, LinearClassifier, MeanThresholdClassifier
from semcert.pipeline import (CertificationResult, ParameterSet, certify_bc_rectangle,
                              certify_diff_resolvable, certify_resolvable,
                              certify_translation_enum, robust_accuracy_report)
from semcert.radii import ConfidencePair, DistributionSpec, bc_condition, bc_confidence_shift
from semcert.smoothing import (BaseClassifier, CountVector, RowStream, SmoothedQuery, certify,
                               progressive_certify)
from semcert.statfn import (ConfidenceParams, clopper_pearson_lower, std_normal_cdf,
                            std_normal_quantile)
from semcert.tensor import ImageTensor
from semcert.transforms import LinearForm, additive_pixel_transform, transform_spec

_RANGES = {"rotation": (math.radians(-5), math.radians(5)), "scaling": (0.95, 1.05)}


def _query(x, threshold, sigma=0.5, n=4_000, seed=0):
    transform = additive_pixel_transform(x.shape)
    noise = DistributionSpec("gaussian", (sigma,), dim=transform.param_dim)
    return SmoothedQuery(MeanThresholdClassifier(threshold), transform, noise,
                         ConfidenceParams(0.001, n, 100), seed)


def _grid(kind, n_outer=10, n_inner=50):
    return IntervalGrid(kind, *_RANGES[kind], n_outer, n_inner)


def _certify(x, q, grid, label=1, batch=400):
    return certify_diff_resolvable(x, label, q, grid, batch=batch)


def _mean_linear(shape, threshold, cls=LinearClassifier):
    """``MeanThresholdClassifier(threshold)`` as an affine classifier:
    class 1 scores the mean pixel, class 0 the threshold."""
    weights = np.zeros((2, math.prod(shape)))
    weights[1] = 1.0 / weights.shape[1]
    return cls(weights, np.array([threshold, 0.0]), shape)


def _summary(res):
    return (res.verdict, res.predicted_class, res.p_a_lower, res.region_bound,
            res.samples_used, res.witness)


def _reference(x, label, q, grid, batch=400):
    """The anchor loop with every anchor on q's own stream at alpha / N:
    a fresh ``RowStream`` per anchor, so fresh draws and Clopper-Pearson
    bounds for each.  Each anchor is a lone ``progressive_certify``, so
    the reference stops an anchor by futility exactly where that
    function does."""
    target = aliasing_bound(x, grid.kind, grid).sqrt_m
    anchors = grid.anchors()
    anchor_q = replace(q, conf=replace(q.conf, alpha=q.conf.alpha / len(anchors)))
    samples, min_radius, min_p, checks = 0, math.inf, 1.0, []
    for a in anchors:
        prog = progressive_certify(RowStream(anchor_q, batch),
                                   apply_one(transform_spec(grid.kind), x, float(a)), target)
        samples += prog.samples_used
        checks.append(prog.checks_used)
        if prog.certified:
            min_radius = min(min_radius, prog.radius)
            min_p = min(min_p, prog.p_a_lower)
        if prog.label != label or not prog.certified:
            verdict = ("abstain" if not prog.certified and prog.p_a_lower <= 0.5
                       and prog.label == label else "not_certified")
            return (verdict, prog.label, prog.p_a_lower, None, samples, (float(a),)), checks
    return ("certified", label, min_p, min_radius, samples, None), checks


class TestAgainstReference:
    # (kind, threshold, seed, verdict, refined): per kind, certificates
    # read at the anchors' first checks against the two-point bound,
    # certificates and failures that need the grid's bound, one-check
    # and multi-check certificates, a wrong label, an anchor that
    # exhausts its budget and anchors that stop early because they
    # cannot reach the floor
    CASES = [
        ("rotation", 0.20, 0, "certified", False),
        ("rotation", 0.25, 0, "certified", True),
        ("rotation", 0.27, 0, "certified", True),
        ("rotation", 0.27, 1, "certified", True),
        ("rotation", 0.275, 0, "not_certified", True),
        ("rotation", 0.28, 0, "not_certified", True),
        ("rotation", 0.29, 0, "abstain", True),
        ("rotation", 0.30, 0, "not_certified", False),
        ("rotation", 0.35, 0, "not_certified", False),
        ("scaling", 0.20, 0, "certified", False),
        ("scaling", 0.245, 0, "certified", False),
        ("scaling", 0.30, 0, "certified", True),
        ("scaling", 0.31, 0, "not_certified", True),
        ("scaling", 0.315, 0, "abstain", True),
        ("scaling", 0.3175, 0, "abstain", True),
        ("scaling", 0.35, 0, "not_certified", False),
    ]
    # cases whose anchor 0 guesses another label: the row ends there,
    # before any bound is built
    BOUND_FREE = {("rotation", 0.30, 0), ("rotation", 0.35, 0)}

    @pytest.mark.parametrize("kind,threshold,seed,verdict,refined", CASES)
    def test_equal_to_reference_loop(self, image_9x9, kind, threshold, seed, verdict,
                                     refined):
        q = _query(image_9x9, threshold, seed=seed)
        grid = _grid(kind)
        res = _certify(image_9x9, q, grid)
        ref, checks = _reference(image_9x9, 1, q, grid)
        summary = _summary(res)
        # verdict, label and witness are always the reference's
        assert summary[:2] + summary[5:] == ref[:2] + ref[5:]
        # so is every field of a certificate and of a refined row; a
        # wrong label found at its first check keeps that check's bound
        if res.certified or res.refined:
            assert summary == ref
        assert res.verdict == verdict
        assert res.refined == refined
        if (kind, threshold, seed) in self.BOUND_FREE:
            assert res.aliasing is None
        else:
            read = grid if refined else replace(grid, n_inner=2)
            assert res.aliasing == aliasing_bound(image_9x9, kind, read)

    @pytest.mark.parametrize("case", ["wrong guess", "hopeless"])
    def test_rows_that_end_before_any_bound(self, image_9x9, monkeypatch, case):
        # anchor 0 guesses another label, or guesses it with a first check
        # whose Hoeffding bound is at most 1/2 (three near-equal classes
        # under sigma 5): the row ends there and builds no bound
        q = _query(image_9x9, 0.30)
        if case == "hopeless":
            q = replace(_query(image_9x9, 0.30, sigma=5.0),
                        classifier=random_linear(0, image_9x9.shape, classes=3, bias=0.0))
        grid = _grid("rotation")
        ref, checks = _reference(image_9x9, 1, q, grid)
        # the wrong guess's bound and samples are those of its first check,
        # read on a fresh stream; the reference runs that anchor in full
        anchor_q = replace(q, conf=replace(q.conf, alpha=q.conf.alpha / grid.n_outer))
        first = progressive_certify(
            RowStream(anchor_q, 400), apply_one(transform_spec("rotation"), image_9x9,
                                           float(grid.anchors()[0])), 0.0, first_check_only=True)
        monkeypatch.setattr(pipeline, "aliasing_bound", lambda *args: pytest.fail("bound built"))
        res = _certify(image_9x9, q, grid)
        assert res.aliasing is None and not res.refined
        assert _summary(res)[:2] + _summary(res)[5:] == ref[:2] + ref[5:]
        assert (res.p_a_lower, res.samples_used) == (first.p_a_lower, first.samples_used)
        assert res.witness == (float(grid.anchors()[0]),)
        if case == "hopeless":
            assert _summary(res) == ref and checks == [1]
        assert (res.verdict, res.predicted_class == 1) == (
            ("abstain", True) if case == "hopeless" else ("not_certified", False))

    def test_hopeless_handover_ends_on_the_two_point_bound(self, image_9x9, monkeypatch):
        # anchors 0-2 certify at their first checks; anchor 3 guesses the
        # label, but with 120 hits of 400 no bound lets it certify, so the
        # row ends there without the grid bound, unrefined
        grid = _grid("rotation", n_outer=6)
        hopeless = apply_one(transform_spec("rotation"), image_9x9,
                             float(grid.anchors()[3])).data.tobytes()
        monkeypatch.setattr(
            smoothing, "sample_counts", lambda q, x, n, draw_offset=0, stream=None: CountVector(
                [n - 3 * n // 10, 3 * n // 10] if draw_offset and x.data.tobytes() == hopeless
                else [0, n]))
        calls = []
        bound = pipeline.aliasing_bound
        monkeypatch.setattr(pipeline, "aliasing_bound", lambda x, kind, grid:
                            calls.append(grid.n_inner) or bound(x, kind, grid))
        q = _query(image_9x9, 0.20)
        res = _certify(image_9x9, q, grid)
        assert calls == [2] and not res.refined
        assert res.aliasing == bound(image_9x9, "rotation", replace(grid, n_inner=2))
        assert res.witness == (float(grid.anchors()[3]),)
        assert (res.verdict, res.p_a_lower, res.samples_used) == (
            "abstain", clopper_pearson_lower(120, 400, 0.001 / 6 / 10), 4 * 500)
        assert _summary(res) == _reference(image_9x9, 1, q, grid)[0]

    def test_cases_cover_checks_past_the_prefix(self, image_9x9):
        seen, stops = set(), set()
        for kind, threshold, seed, _, _ in self.CASES:
            (verdict, label, *_), checks = _reference(
                image_9x9, 1, _query(image_9x9, threshold, seed=seed), _grid(kind))
            seen.add((kind, verdict, label == 1, max(checks) > 1))
            if verdict != "certified" and label == 1:
                # the last anchor failed: by futility or on its whole budget
                stops.add((kind, "exhausted" if checks[-1] == 4_000 // 400 else "futility"))
        for kind in ("rotation", "scaling"):
            assert {(kind, "certified", True, False), (kind, "certified", True, True),
                    (kind, "abstain", True, True), (kind, "not_certified", False, False),
                    (kind, "not_certified", True, True)} <= seen
            assert {(kind, "exhausted"), (kind, "futility")} <= stops
        # a certificate the first checks decide, one that needs the
        # grid's bound, and a refined row that fails, for each kind
        kinds = {(kind, verdict == "certified", refined)
                 for kind, _, _, verdict, refined in self.CASES}
        assert kinds >= {(kind, certified, refined) for kind in ("rotation", "scaling")
                         for certified, refined in ((True, False), (True, True),
                                                    (False, True))}

    def test_batch_and_budget_edges(self, image_9x9):
        # a budget below one batch, and a batch that does not divide it
        for n, batch in ((300, 400), (1_000, 300)):
            for threshold in (0.27, 0.29):
                q = _query(image_9x9, threshold, n=n)
                grid = _grid("rotation", n_outer=5)
                res = _certify(image_9x9, q, grid, batch=batch)
                assert _summary(res) == _reference(image_9x9, 1, q, grid, batch)[0]

    def test_batch_refused_before_the_bound(self, image_9x9, monkeypatch):
        # the row stream is built, and refuses the batch, before any bound
        monkeypatch.setattr(pipeline, "aliasing_bound", lambda *args: pytest.fail("bound built"))
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            _certify(image_9x9, _query(image_9x9, 0.2), _grid("rotation"), batch=0)

    def test_reuses_two_point_grid_bound(self, image_9x9, monkeypatch):
        # a grid of two inner points is its own coarse bound: computed once;
        # and a row certified at first checks builds only that bound
        calls = []
        bound = pipeline.aliasing_bound

        def counting(x, kind, grid):
            calls.append(grid.n_inner)
            return bound(x, kind, grid)

        monkeypatch.setattr(pipeline, "aliasing_bound", counting)
        for threshold, n_inner in ((0.2, 2), (0.29, 2), (0.2, 50)):
            calls.clear()
            q = _query(image_9x9, threshold)
            grid = _grid("rotation", n_inner=n_inner)
            res = _certify(image_9x9, q, grid)
            assert calls == [2]
            assert res.refined == (threshold == 0.29)
            assert _summary(res) == _reference(image_9x9, 1, q, grid)[0]

    def test_one_pass_reads_each_anchor_once_and_the_handover_twice(self, image_9x9,
                                                                    monkeypatch):
        # the sixth anchor hands over: it reads its first check, then runs in
        # full; the five before it keep their first-check outcomes
        reads = []
        anchor_certify = pipeline.progressive_certify

        def recording(q, image, target, **kwargs):
            reads.append((image.data.tobytes(), kwargs.get("first_check_only", False)))
            return anchor_certify(q, image, target, **kwargs)

        monkeypatch.setattr(pipeline, "progressive_certify", recording)
        q = _query(image_9x9, 0.30)
        grid = _grid("scaling")
        res = _certify(image_9x9, q, grid)
        assert res.certified and res.refined
        assert _summary(res) == _reference(image_9x9, 1, q, grid)[0]
        anchors = [apply_one(transform_spec("scaling"), image_9x9, float(a)).data.tobytes()
                   for a in grid.anchors()]
        # anchor 0's bound-free read comes first
        assert [image for image, _ in reads] == anchors[:1] + anchors[:6] + anchors[5:]
        assert [first for _, first in reads] == [True] * 7 + [False] * 5

    @pytest.mark.parametrize("kind,threshold", [("rotation", 0.23), ("scaling", 0.25)])
    def test_reports_the_smaller_bound(self, image_9x9, monkeypatch, kind, threshold):
        # a grid bound above the two-point one is valid but looser: the row
        # keeps the two-point bound, which every certified anchor clears
        bound = pipeline.aliasing_bound

        def loose(x, kind, grid):
            coarse = bound(x, kind, replace(grid, n_inner=2))
            if grid.n_inner == 2:
                return coarse
            return replace(coarse, worst=replace(coarse.worst, bound=2.0 * coarse.m_value))

        monkeypatch.setattr(pipeline, "aliasing_bound", loose)
        grid = _grid(kind)
        res = _certify(image_9x9, _query(image_9x9, threshold), grid)
        assert res.certified and res.refined
        assert res.aliasing == aliasing_bound(image_9x9, kind, replace(grid, n_inner=2))
        assert res.region_bound > res.aliasing.sqrt_m

    def test_prefix_drawn_once_and_bounds_once_per_call(self, image_9x9, monkeypatch):
        draws, bounds = [], []
        draw_params, clopper_pearson_lower = smoothing.draw_params, smoothing.clopper_pearson_lower

        def recording_draws(noise, seed, start, count, out=None):
            draws.append((start, count))
            return draw_params(noise, seed, start, count, out)

        def recording_bounds(*args):
            bounds.append(args)
            return clopper_pearson_lower(*args)

        monkeypatch.setattr(smoothing, "draw_params", recording_draws)
        monkeypatch.setattr(smoothing, "clopper_pearson_lower", recording_bounds)
        grid = _grid("rotation")
        for threshold, refined in ((0.2, False), (0.27, True)):
            q = _query(image_9x9, threshold)
            for _ in range(2):
                draws.clear()
                bounds.clear()
                res = _certify(image_9x9, q, grid)
                assert res.certified and res.refined == refined
                # one prefix of n0 + batch draws, kept through the grid
                # bound, then only draws past it
                assert draws[0] == (0, 500)
                assert [d for d in draws if d[0] < 500] == [(0, 500)]
                assert (len(draws) > 1) == refined
                # each bound is computed once per call, and again in the next call
                assert len(bounds) == len(set(bounds)) > 0


class TestSoundness:
    @pytest.mark.parametrize("kind", ["rotation", "scaling"])
    def test_certified_anchors_are_truly_confident(self, image_9x9, kind):
        grid = _grid(kind)
        dense = dense_max_min_error(image_9x9, kind, grid)
        for n_inner in (2, grid.n_inner):
            assert dense <= aliasing_bound(image_9x9, kind, replace(grid, n_inner=n_inner)).sqrt_m
        transform = transform_spec(kind)
        certified = set()
        for threshold in (0.2, 0.25, 0.27, 0.28, 0.3, 0.32, 0.5):
            for sigma in (0.25, 0.5):
                for seed in (0, 1):
                    q = _query(image_9x9, threshold, sigma=sigma, seed=seed)
                    res = _certify(image_9x9, q, grid)
                    if not res.certified:
                        continue
                    certified.add(res.refined)
                    # against the bound the verdict read
                    sqrt_m = res.aliasing.sqrt_m
                    assert res.region_bound > sqrt_m
                    need = std_normal_cdf(sqrt_m / sigma)
                    for a in grid.anchors():
                        p1 = analytic_smoothed_confidence(
                            q.classifier, q.transform, q.noise,
                            apply_one(transform, image_9x9, float(a)))
                        p_label = p1 if res.predicted_class == 1 else 1.0 - p1
                        assert p_label > max(0.5, need), (threshold, sigma, seed, a)
        assert certified == {False, True}


class TestCoverage:
    """How often a Clopper-Pearson bound a verdict reads exceeds its truth.

    A mean-threshold classifier under additive pixel noise has the exact
    smoothed confidence Phi((mean(x_i) - t) sqrt(d) / sigma) at anchor
    image x_i.  Every anchor outcome carries the Clopper-Pearson bound
    of the check it stopped at, first-check reads included.  By the
    union bound over anchors and checks, the number X of distinct
    (anchor, check) bounds a run reads above their truth has mean at
    most alpha.  The shared noise stream makes anchors fail together, so
    X is bunched; but each anchor is read at most twice (its first check
    and where its full run stops), so 0 <= X <= 2N, the variance is at
    most 2N alpha, and over S independent seeds Cantelli's inequality
    puts the total above alpha S + 3 sqrt(2 N alpha S) with probability
    below 1/10.  The seeds are fixed, so the outcome is deterministic.
    """

    ALPHA = 0.2

    # (anchors, samples, batch, seeds, band): forty anchors whose first
    # checks against the two-point bound certify, where a lost 1/N in
    # the per-anchor alpha shows; and two anchors whose true confidence
    # sits on the refined floor and runs over ten checks, where a lost
    # 1/checks in the per-check alpha shows
    @pytest.mark.parametrize("n_outer,n,batch,runs,band", [
        (40, 200, 200, 100, "first checks"),
        (2, 1_000, 100, 200, "refined floor"),
    ])
    def test_bounds_read_above_truth_within_union_bound(self, monkeypatch, n_outer, n,
                                                        batch, runs, band):
        # mirror-symmetric, so the two anchors at -a and a have one mean
        half = np.random.default_rng(3).random((1, 6, 6)) * 0.5 + 0.25
        x = ImageTensor((half + half[:, ::-1, :]) / 2.0)
        grid = IntervalGrid("rotation", -0.05, 0.05, n_outer, 8)
        sigma, d = 0.1, x.data.size
        mean = float(transform_spec("rotation").apply_many(x, grid.anchors()).mean())
        if band == "refined floor":
            truths = np.full(runs, std_normal_cdf(aliasing_bound(x, "rotation", grid).sqrt_m
                                                  / sigma))
        else:
            truths = np.random.default_rng(0).uniform(0.7, 0.85, runs)
        outcomes = []
        anchor_certify = pipeline.progressive_certify

        def recording(q, image, target, **kwargs):
            out = anchor_certify(q, image, target, **kwargs)
            outcomes.append((image.data.tobytes(), float(image.data.mean()), out))
            return out

        monkeypatch.setattr(pipeline, "progressive_certify", recording)
        above, refined = 0, 0
        for seed, truth in enumerate(truths):
            t = mean - sigma / math.sqrt(d) * std_normal_quantile(truth)
            q = SmoothedQuery(MeanThresholdClassifier(t), additive_pixel_transform(x.shape),
                              DistributionSpec("gaussian", (sigma,), dim=d),
                              ConfidenceParams(self.ALPHA, n, 50), seed)
            outcomes.clear()
            refined += _certify(x, q, grid, batch=batch).refined
            wrong = set()
            for anchor, mu, out in outcomes:
                p1 = std_normal_cdf((mu - t) * math.sqrt(d) / sigma)
                if out.p_a_lower > (p1 if out.label == 1 else 1.0 - p1):
                    wrong.add((anchor, out.samples_used))
            above += len(wrong)
        limit = self.ALPHA * runs + 3.0 * math.sqrt(2 * n_outer * self.ALPHA * runs)
        assert above <= limit, (above, limit)
        # each band is read where it is meant to be: at first checks, or
        # after a handover
        assert refined > 0.9 * runs if band == "refined floor" else refined < 0.1 * runs


def test_bc_rectangle_bounds_above_truth_within_alpha():
    """How often the Clopper-Pearson bound a brightness/contrast verdict
    reads exceeds the truth of its label.

    A mean-threshold classifier under brightness/contrast noise with both
    scales > 0 has the smoothed confidence of
    ``bc_mean_threshold_confidence``.  Each run reads one bound, at
    alpha, on fresh draws, so over S independent seeds the count X of
    bounds above their truth is binomial with mean at most alpha S, and
    Cantelli's inequality puts X above alpha S + 3 sqrt(alpha S) with
    probability below 1/10.  An abstaining row names no label, so it
    counts when its bound exceeds the truth of either label.  The
    thresholds put the truths on both sides of the rectangle's corner
    check, so a bound that is too high changes verdicts.
    """
    alpha, runs = 0.2, 200
    x = ImageTensor(np.random.default_rng(3).random((1, 6, 6)) * 0.5 + 0.25)
    sigma_k, sigma_b = 0.2, 0.1
    noise = DistributionSpec("gaussian", (sigma_k, sigma_b), dim=2)
    rect = ParameterSet.bc_rect(-0.05, 0.05, -0.02, 0.02)
    above, verdicts = 0, set()
    for seed, t in enumerate(np.random.default_rng(0).uniform(0.34, 0.43, runs)):
        p1 = bc_mean_threshold_confidence(x, t, sigma_k, sigma_b)
        q = SmoothedQuery(MeanThresholdClassifier(t), transform_spec("brightness_contrast"),
                          noise, ConfidenceParams(alpha, 200, 50), seed)
        res = certify_bc_rectangle(x, 1, q, rect)
        truth = {1: p1, 0: 1.0 - p1}.get(res.predicted_class, min(p1, 1.0 - p1))
        above += res.p_a_lower > truth
        verdicts.add(res.verdict)
    limit = alpha * runs + 3.0 * math.sqrt(alpha * runs)
    assert above <= limit, (above, limit)
    assert {"certified", "not_certified"} <= verdicts


def test_memory_holds_one_check_not_the_bank(image_9x9):
    # an anchor whose smoothed confidence sits just above the floor
    # Phi(sqrt(M) / sigma) neither certifies nor stops early at these
    # budgets; only the prefix and one check's draws may be alive,
    # whatever the budget
    x = image_9x9
    grid = _grid("rotation", n_outer=3, n_inner=5)
    first = apply_one(transform_spec("rotation"), x, float(grid.anchors()[0]))
    floor = std_normal_cdf(aliasing_bound(x, "rotation", grid).sqrt_m / 0.5)
    threshold = float(first.data.mean()) - 0.5 / 9.0 * std_normal_quantile(floor + 0.002)
    peaks = {}
    for n in (800, 8_000):
        q = _query(x, threshold, n=n)
        tracemalloc.start()
        res = _certify(x, q, grid)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert not res.certified and res.samples_used == 100 + n
    assert peaks[8_000] <= 1.5 * peaks[800], peaks


@pytest.mark.parametrize("kind", ["rotation", "scaling"])
def test_class_scores_equal_image_path(kind):
    # the anchors of a LinearClassifier read class scores (the row
    # stream's, one product per slice); hiding the hook builds and
    # classifies every image, and every result field must agree
    shape = (1, 9, 9)
    transform = additive_pixel_transform(shape)
    conf = ConfidenceParams(0.001, 4_000, 100)
    grid = _grid(kind)
    verdicts = set()
    for sigma in (0.25, 1.0):
        noise = DistributionSpec("gaussian", (sigma,), dim=transform.param_dim)
        for seed, boost in enumerate((0.08, 0.045, 0.04, 0.035, 0.03, 0.025, 0.02, 0.01, 0.0,
                                      -0.05)):
            g = np.random.default_rng(seed)
            x = ImageTensor(g.random(shape))
            weights = 0.1 * g.normal(size=(3, x.data.size))
            weights[1] += boost * x.data.ravel()
            hidden = ImageOnlyLinear(weights, np.zeros(3), shape)
            scores, images = (
                _certify(x, SmoothedQuery(clf, transform, noise, conf, seed), grid)
                for clf in (LinearClassifier(weights, np.zeros(3), shape), hidden))
            # the image path classifies each counted sample once: a read made
            # again (anchor 0's, a handover's first check) reuses its labels
            assert hidden.evals == images.samples_used
            assert _summary(scores) + (scores.refined,) == _summary(images) + (images.refined,)
            verdicts.add((scores.verdict, scores.refined))
    assert {("certified", False), ("certified", True), ("not_certified", False),
            ("not_certified", True)} <= verdicts
    assert "abstain" in {v for v, _ in verdicts}


def test_memory_holds_scores_not_draws(image_9x9):
    # the class-score counterpart of the test above: the stream keeps C
    # scores per draw read, so ten times the budget grows the peak by
    # less than one check's raw draws
    x = image_9x9
    grid = _grid("rotation", n_outer=3, n_inner=5)
    first = apply_one(transform_spec("rotation"), x, float(grid.anchors()[0]))
    floor = std_normal_cdf(aliasing_bound(x, "rotation", grid).sqrt_m / 0.5)
    threshold = float(first.data.mean()) - 0.5 / 9.0 * std_normal_quantile(floor + 0.002)
    peaks = {}
    for n in (800, 8_000):
        q = replace(_query(x, threshold, n=n), classifier=_mean_linear(x.shape, threshold))
        tracemalloc.start()
        res = _certify(x, q, grid)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert not res.certified and res.samples_used == 100 + n
    assert peaks[8_000] - peaks[800] < 400 * x.data.size * 8, peaks


@pytest.mark.parametrize("kind,threshold", [("rotation", 0.27), ("scaling", 0.30)])
def test_class_score_row_draws_each_slice_once(image_9x9, monkeypatch, kind, threshold):
    # a refined row whose anchors read checks past the prefix: each
    # (offset, n) slice is drawn once for the whole row, and the row is
    # the image path's
    draws = []
    draw_params = smoothing.draw_params
    monkeypatch.setattr(smoothing, "draw_params",
                        lambda noise, seed, start, count, out=None: draws.append((start, count))
                        or draw_params(noise, seed, start, count, out))
    grid = _grid(kind)
    q = _query(image_9x9, threshold)
    scores = _certify(image_9x9, replace(q, classifier=_mean_linear(image_9x9.shape, threshold)),
                      grid)
    assert scores.certified and scores.refined
    assert len(draws) == len(set(draws)) and max(draws)[0] > 500
    monkeypatch.undo()
    hidden = _mean_linear(image_9x9.shape, threshold, ImageOnlyLinear)
    images = _certify(image_9x9, replace(q, classifier=hidden), grid)
    assert hidden.evals > 0
    assert _summary(scores) + (scores.refined,) == _summary(images) + (images.refined,)


@pytest.mark.parametrize("threshold,refined", [(0.2, False), (0.27, True)])
def test_class_score_row_projects_each_anchor_once_per_call(image_9x9, monkeypatch,
                                                            threshold, refined):
    # an anchor's guess and checks read one projection of its image, and
    # the handover anchor's second call reuses it
    projections, calls = [], []
    project, anchor_certify = LinearForm.project, pipeline.progressive_certify
    monkeypatch.setattr(LinearForm, "project",
                        lambda form, *args: projections.append(1) or project(form, *args))
    monkeypatch.setattr(pipeline, "progressive_certify",
                        lambda *args, **kwargs: calls.append(1) or anchor_certify(*args, **kwargs))
    q = replace(_query(image_9x9, threshold), classifier=_mean_linear(image_9x9.shape, threshold))
    grid = _grid("rotation")
    res = _certify(image_9x9, q, grid)
    assert res.certified and res.refined == refined
    # anchor 0 is read twice, before the bound and against it
    assert len(projections) == grid.n_outer and len(calls) == grid.n_outer + 1 + refined


@pytest.mark.parametrize("case", ["class-scores", "images", "refined"])
def test_memory_holds_one_block_of_anchors(image_9x9, monkeypatch, case):
    # every anchor certifies; anchor images are built one block at a time,
    # in the bound and in the anchor loop, so ten times the anchors cost
    # less than twice the memory (small blocks, so that both grids fill
    # several).  Unrefined, each anchor certifies at its first check.
    # Refined, anchor 0's first check cannot certify at this confidence, so
    # the row hands over there, and the stream holds that anchor (and its
    # block) through the grid bound.  A fixed peak of about 1.2 MB would
    # hide the 1,800 extra anchor images (1.17 MB) of a stream that kept
    # them, so the growth is bounded too: 2-14 kB measured, under 100 images
    monkeypatch.setattr(pipeline, "_BLOCK_IMAGES", 64)
    monkeypatch.setattr(aliasing, "_BLOCK_IMAGES", 64)
    monkeypatch.setattr(aliasing, "_BLOCK_POINTS", 2048)
    x = image_9x9
    if case == "refined":
        clf = _mean_linear(x.shape, 0.274)
    else:
        weights = 0.01 * np.random.default_rng(1).normal(size=(3, x.data.size))
        bias = np.array([0.0, 5.0, 0.0])
        clf = (ImageOnlyLinear if case == "images" else LinearClassifier)(weights, bias, x.shape)
    transform = additive_pixel_transform(x.shape)
    noise = DistributionSpec("gaussian", (0.5,), dim=transform.param_dim)
    q = SmoothedQuery(clf, transform, noise, ConfidenceParams(0.001, 4_000, 100), 0)
    peaks = {}
    for n_outer in (200, 2_000):
        tracemalloc.start()
        res = _certify(x, q, _grid("rotation", n_outer=n_outer, n_inner=5))
        peaks[n_outer] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert res.certified and res.refined == (case == "refined")
    assert peaks[2_000] <= 2.0 * peaks[200], peaks
    assert peaks[2_000] - peaks[200] <= 100 * x.data.nbytes, peaks


def _enum_reference(x, label, h, rho):
    """Black-padded translation one shift at a time, in (m1, m2) order."""
    r = int(math.floor(rho))
    checked = 0
    for m1 in range(-r, r + 1):
        for m2 in range(-r, r + 1):
            if m1 * m1 + m2 * m2 > rho * rho:
                continue
            checked += 1
            if one_label(h, translate(x, m1, m2, "black")) != label:
                return "not_certified", (m1, m2), checked
    return "certified", None, checked


def _linear_classifier(seed):
    g = np.random.default_rng(seed)
    return LinearClassifier(g.normal(size=(3, 81)), 0.1 * g.normal(size=3), (1, 9, 9))


class TestTranslationEnum:
    # (classifier, label, rho, verdict, samples_used): certified disks of 5
    # and 21 shifts, a failure at the fourth shift, a wrong label, and a
    # disk of one shift
    CASES = [
        ("linear4", 1, 1.0, "certified", 5),
        ("linear4", 1, 2.5, "not_certified", 4),
        ("mean0.1", 1, 2.5, "certified", 21),
        ("mean0.1", 0, 2.5, "not_certified", 1),
        ("linear4", 1, 0.5, "certified", 1),
    ]

    @pytest.mark.parametrize("name,label,rho,verdict,used", CASES)
    def test_equal_to_per_shift_loop(self, image_9x9, name, label, rho, verdict, used):
        h = _linear_classifier(4) if name == "linear4" else MeanThresholdClassifier(0.1)
        res = certify_translation_enum(image_9x9, label, h, ParameterSet.translation_disk(rho))
        assert (res.verdict, res.witness, res.samples_used) == _enum_reference(
            image_9x9, label, h, rho)
        assert (res.verdict, res.samples_used) == (verdict, used)
        assert res.predicted_class == one_label(h, image_9x9)
        assert res.region_bound == rho and res.p_a_lower is None

    def test_rho_past_the_diagonal_refused(self, image_9x9):
        # past hypot(W, H) every shift gives the all-black image, which the
        # disk of radius hypot(W, H) already holds at (W, 0)
        h = _linear_classifier(4)
        diagonal = math.hypot(9, 9)
        res = certify_translation_enum(image_9x9, 1, h, ParameterSet.translation_disk(diagonal))
        assert (res.verdict, res.witness, res.samples_used) == _enum_reference(
            image_9x9, 1, h, diagonal)
        with pytest.raises(pipeline.PipelineConfigError, match="exceeds the image diagonal"):
            certify_translation_enum(image_9x9, 1, h, ParameterSet.translation_disk(
                math.nextafter(diagonal, math.inf)))

    @pytest.mark.parametrize("rho", [9.5, 10.0, 11.3, math.hypot(9, 7)])
    @pytest.mark.parametrize("name", ["linear", "constant"])
    def test_clipped_shifts_repeat(self, rng, name, rho):
        # W < rho <= hypot(W, H) on a 2x9x7 image: shifts past the canvas
        # clip to the same shift, and each keeps its place in (m1, m2) order
        x = ImageTensor(rng.random((2, 9, 7)))
        h = random_linear(6, x.shape, classes=3) if name == "linear" else (
            ConstantClassifier(1, 3))
        for label in range(3):
            res = certify_translation_enum(x, label, h, ParameterSet.translation_disk(rho))
            assert (res.verdict, res.witness, res.samples_used) == _enum_reference(
                x, label, h, rho)
            assert res.predicted_class == one_label(h, x)


_RESOLVABLE_N = 300


def _resolvable_query(x, classifier, kind, noise, seed=3):
    return SmoothedQuery(classifier, transform_spec(kind), noise,
                         ConfidenceParams(0.001, _RESOLVABLE_N, 50), seed)


class TestResolvableOracles:
    # a mean-threshold classifier under a mean-preserving transform has
    # smoothed confidence 0 or 1 (``analytic_smoothed_confidence``), so
    # every sample carries the analytic label: p_a_lower is the bound on
    # n hits out of n, and the verdict is the closed form's
    P_ALL = clopper_pearson_lower(_RESOLVABLE_N, _RESOLVABLE_N, 0.001)

    @pytest.mark.parametrize("kind,noise,region,radius", [
        ("gaussian_blur", DistributionSpec("exponential", (1.0,), dim=1),
         ParameterSet.blur_interval, -math.log(2.0 * (1.0 - P_ALL))),
        ("gaussian_blur", DistributionSpec("exponential", (2.0,), dim=1),
         ParameterSet.blur_interval, -math.log(2.0 * (1.0 - P_ALL)) / 2.0),
        ("gaussian_blur", DistributionSpec("uniform", (0.0, 3.0), dim=1),
         ParameterSet.blur_interval, 3.0 * (2.0 * P_ALL - 1.0) / 2.0),
        ("translation_reflect", DistributionSpec("gaussian", (0.5,), dim=2),
         ParameterSet.translation_disk, 0.5 * std_normal_quantile(P_ALL)),
    ], ids=["blur_exp1", "blur_exp2", "blur_uniform", "reflect"])
    def test_mean_threshold_follows_closed_form(self, image_9x9, kind, noise, region, radius):
        mu = float(image_9x9.data.mean())
        seen = set()
        for threshold in (mu - 0.2, mu + 0.2):
            clf = MeanThresholdClassifier(threshold)
            q = _resolvable_query(image_9x9, clf, kind, noise)
            analytic = analytic_smoothed_confidence(clf, q.transform, q.noise, image_9x9)
            assert analytic in (0.0, 1.0)
            for label in (0, 1):
                for requested in (0.5 * radius, 1.5 * radius):
                    res = certify_resolvable(image_9x9, label, q, region(requested))
                    assert res.predicted_class == int(analytic)
                    assert res.p_a_lower == self.P_ALL
                    assert res.samples_used == 50 + _RESOLVABLE_N
                    assert res.region_bound == pytest.approx(radius, rel=1e-12)
                    expect = label == int(analytic) and requested < radius
                    assert res.certified == expect
                    seen.add(res.verdict)
        assert seen == {"certified", "not_certified"}

    @pytest.mark.parametrize("k_range,b_range,inside", [
        ((-0.1, 0.1), (-0.1, 0.1), True),
        ((-0.3, 0.0), (0.0, 0.4), True),
        ((0.2, 0.5), (-0.05, 0.05), True),
        ((-1.0, 1.0), (-0.1, 0.1), False),
        ((-0.1, 0.1), (-1.0, 1.0), False),
    ])
    def test_constant_bc_rectangle_follows_corner_check(self, image_9x9, k_range, b_range,
                                                        inside):
        # a constant classifier has confidence 1; the verdict is the
        # corner check under the worst endpoint contrast shift
        sigma, tau = 0.3, 0.4
        noise = DistributionSpec("gaussian", (sigma, tau), dim=2)
        q = _resolvable_query(image_9x9, ConstantClassifier(2, 4), "brightness_contrast", noise)
        p = self.P_ALL
        shift = min(bc_confidence_shift(p, k) for k in k_range)
        conf = ConfidencePair(shift) if shift >= 0.5 else ConfidencePair(0.5, 0.5)
        corners = all(bc_condition(k, b, sigma, tau, conf) for k in k_range for b in b_range)
        assert corners == inside
        gap = max(0.0, 0.5 * (std_normal_quantile(conf.p_a) - std_normal_quantile(conf.p_b)))
        rect = ParameterSet.bc_rect(*k_range, *b_range)
        for label in (2, 1):
            res = certify_bc_rectangle(image_9x9, label, q, rect)
            assert res.predicted_class == 2
            assert res.p_a_lower == p
            assert res.region_bound == pytest.approx(gap, rel=1e-12, abs=1e-15)
            assert res.certified == (label == 2 and corners)


@pytest.mark.parametrize("family,params,match", [
    ("gaussian", (0.5, 0.6), "isotropic gaussian noise with sigma > 0"),
    ("gaussian", (0.0,), "isotropic gaussian noise with sigma > 0"),
    ("uniform", (-0.5, 0.5), "need isotropic gaussian noise, got uniform"),
])
def test_translation_noise_refused_before_any_draw(image_9x9, monkeypatch, family, params,
                                                   match):
    # the radius scales by the one sigma, so noise without one is refused
    # before ``certify`` draws its n0 + n parameters
    monkeypatch.setattr(smoothing, "draw_params", lambda *args, **kwargs: pytest.fail())
    q = SmoothedQuery(ConstantClassifier(1), transform_spec("translation_reflect"),
                      DistributionSpec(family, params, dim=2), ConfidenceParams(0.001, 2000, 100))
    with pytest.raises(pipeline.PipelineConfigError, match=f"translation smoothing: .*{match}"):
        certify_resolvable(image_9x9, 1, q, ParameterSet.translation_disk(0.5))


class _Parity(BaseClassifier):
    """The parity of floor(1e6 x first pixel): every smoothing noise here
    moves that pixel over many units of 1e-6, so about half of the
    samples carry each label."""

    def classify_flat_batch(self, flats, shape):
        return np.floor(flats[:, 0] * 1e6).astype(np.int64) % 2


@pytest.mark.parametrize("kind,noise,region", [
    ("gaussian_blur", DistributionSpec("exponential", (1.0,), dim=1),
     ParameterSet.blur_interval(0.5)),
    ("translation_reflect", DistributionSpec("gaussian", (2.0,), dim=2),
     ParameterSet.translation_disk(0.5)),
    ("brightness_contrast", DistributionSpec("gaussian", (0.3, 0.3), dim=2),
     ParameterSet.bc_rect(-0.1, 0.1, -0.1, 0.1)),
])
def test_even_split_abstains(image_9x9, kind, noise, region):
    q = _resolvable_query(image_9x9, _Parity(), kind, noise)
    certifier = certify_bc_rectangle if kind == "brightness_contrast" else certify_resolvable
    res = certifier(image_9x9, 1, q, region)
    p_a_lower = certify(q, image_9x9).p_a_lower
    assert p_a_lower <= 0.5
    assert res == CertificationResult("abstain", -1, p_a_lower, None, None, 50 + _RESOLVABLE_N)


@pytest.mark.parametrize("kind,bounds,match", [
    ("blur", (0.0,), "blur region needs alpha_max > 0"),
    ("disk", (-0.5,), "disk region needs radius >= 0"),
    ("rect", (0.1, -0.1, 0.0, 0.0), "rect region needs k_lo <= k_hi and b_lo <= b_hi"),
    ("rect", (0.0, 0.1, 0.2, 0.1), "rect region needs k_lo <= k_hi and b_lo <= b_hi"),
    ("ball", (1.0,), "unknown region kind 'ball'"),
])
def test_parameter_set_refusals(kind, bounds, match):
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        ParameterSet(kind, bounds)


_BLUR_EXP = ("gaussian_blur", DistributionSpec("exponential", (1.0,), dim=1))
_REFLECT = ("translation_reflect", DistributionSpec("gaussian", (0.5,), dim=2))
_BC = ("brightness_contrast", DistributionSpec("gaussian", (0.3, 0.3), dim=2))


@pytest.mark.parametrize("certifier,query,region,match", [
    (certify_resolvable, _BLUR_EXP, ParameterSet.translation_disk(0.5),
     "blur certification needs a blur region"),
    (certify_resolvable, ("gaussian_blur", DistributionSpec("uniform", (0.5, 1.0), dim=1)),
     ParameterSet.blur_interval(0.5), "blur uniform noise must start at 0"),
    (certify_resolvable, _REFLECT, ParameterSet.blur_interval(0.5),
     "translation certification needs a disk region"),
    (certify_resolvable, _BC, ParameterSet.bc_rect(0.0, 0.1, 0.0, 0.1),
     "certify_resolvable handles gaussian_blur and translation_reflect, "
     "got 'brightness_contrast'"),
    (certify_bc_rectangle, _BC, ParameterSet.translation_disk(0.5),
     "brightness/contrast certification needs a rect region"),
    (certify_bc_rectangle, _BLUR_EXP, ParameterSet.bc_rect(0.0, 0.1, 0.0, 0.1),
     "certify_bc_rectangle needs a brightness_contrast query"),
    (certify_bc_rectangle, ("brightness_contrast", DistributionSpec("uniform", (-0.5, 0.5),
                                                                    dim=2)),
     ParameterSet.bc_rect(0.0, 0.1, 0.0, 0.1),
     "brightness/contrast smoothing needs 2-d gaussian noise"),
    (certify_bc_rectangle, ("brightness_contrast", DistributionSpec("gaussian", (0.3, 0.0),
                                                                    dim=2)),
     ParameterSet.bc_rect(0.0, 0.1, 0.0, 0.1),
     "brightness/contrast noise scales must be positive"),
    (certify_bc_rectangle, ("brightness_contrast", DistributionSpec("gaussian", (0.0, 0.3),
                                                                    dim=2)),
     ParameterSet.bc_rect(0.0, 0.1, 0.0, 0.1),
     "brightness/contrast noise scales must be positive"),
    (certify_translation_enum, None, ParameterSet.bc_rect(0.0, 0.1, 0.0, 0.1),
     "translation enumeration needs a disk region"),
])
def test_mismatched_query_or_region_refused_before_any_draw(image_9x9, monkeypatch, certifier,
                                                            query, region, match):
    monkeypatch.setattr(smoothing, "draw_params", lambda *args, **kwargs: pytest.fail())
    q = ConstantClassifier(1) if query is None else _resolvable_query(
        image_9x9, ConstantClassifier(1), *query)
    with pytest.raises(pipeline.PipelineConfigError, match=f"^{re.escape(match)}$"):
        certifier(image_9x9, 1, q, region)


@pytest.mark.parametrize("transform,noise,match", [
    (transform_spec("brightness_contrast"), DistributionSpec("gaussian", (0.3, 0.3), dim=2),
     "a row stream needs an additive_pixel query, got 'brightness_contrast'"),
    (additive_pixel_transform((1, 9, 9)), DistributionSpec("uniform", (-0.5, 0.5), dim=81),
     "need isotropic gaussian noise, got uniform"),
])
def test_anchor_rows_refuse_other_queries_before_any_draw_or_bound(image_9x9, monkeypatch,
                                                                   transform, noise, match):
    # the row's stream makes both checks when it is built
    monkeypatch.setattr(smoothing, "draw_params", lambda *args, **kwargs: pytest.fail())
    monkeypatch.setattr(pipeline, "aliasing_bound", lambda *args: pytest.fail())
    q = SmoothedQuery(ConstantClassifier(1), transform, noise, ConfidenceParams(0.001, 2000, 100))
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        _certify(image_9x9, q, _grid("rotation"))


@pytest.mark.parametrize("stride", [0, -1])
@pytest.mark.parametrize("size", [0, 2])
def test_report_refuses_stride_below_one(image_9x9, stride, size):
    # refused by name before the dataset is read; -1 used to divide by zero
    def certifier(x, label):
        pytest.fail()

    with pytest.raises(ValueError, match=f"^stride must be >= 1, got {stride}$"):
        robust_accuracy_report([(image_9x9, 1)] * size, _query(image_9x9, 0.5, n=200),
                               certifier, stride=stride)


def test_report_times_each_certifier_call(image_9x9):
    # a row's elapsed is its own certifier call's wall time, here at least
    # the fixed sleep of a certifier that does nothing else
    pause = 0.02
    result = CertificationResult("certified", 1, None, 1.0, None, 1)

    def certifier(x, label):
        time.sleep(pause)
        return result

    table = robust_accuracy_report([(image_9x9, 1), (image_9x9, 0)],
                                   _query(image_9x9, 0.5, n=200), certifier)
    assert [s.result for s in table.samples] == [result, result]
    assert all(s.elapsed >= pause for s in table.samples), table.samples
