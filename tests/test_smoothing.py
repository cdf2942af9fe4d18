import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (ImageOnlyLinear, analytic_smoothed_confidence, apply_one, one_label,
                     random_linear, translate)
from semcert import smoothing, streams, transforms
from semcert.classifiers import ConstantClassifier, LinearClassifier, MeanThresholdClassifier
from semcert.radii import NOISE_FAMILIES, DistributionSpec
from semcert.smoothing import (ABSTAIN, CountVector, RowStream, SmoothedQuery, _certify_floor,
                               _label_params, certify, predict, progressive_certify,
                               sample_counts)
from semcert.statfn import (ConfidenceParams, binom_two_sided_p, clopper_pearson_exceeds,
                            clopper_pearson_lower, std_normal_cdf, std_normal_quantile)
from semcert.streams import DRAWS_PER_BLOCK, draw_params, uniforms_per_draw
from semcert.tensor import ImageTensor
from semcert.transforms import LinearForm, Transform, additive_pixel_transform, transform_spec


def _uniforms(seed, start, count, per_draw, rows=7):
    """The stream's uniforms of draws [start, start + count), read ``rows`` draws at a time."""
    out = np.empty((count, per_draw))
    for i, u in streams._uniform_chunks(seed, start, count, np.empty((rows, per_draw))):
        out[i:i + len(u)] = u
    return out


class TestStreams:
    def test_uniform_budgets(self):
        assert uniforms_per_draw(DistributionSpec("gaussian", (1.0,), dim=1)) == 2
        assert uniforms_per_draw(DistributionSpec("gaussian", (1.0,), dim=5)) == 6
        assert uniforms_per_draw(DistributionSpec("exponential", (1.0,), dim=1)) == 1
        assert uniforms_per_draw(DistributionSpec("laplace", (1.0,), dim=3)) == 3

    def test_repeatable(self):
        noise = DistributionSpec("gaussian", (0.5, 0.5), dim=2)
        a = draw_params(noise, 42, 0, 500)
        b = draw_params(noise, 42, 0, 500)
        np.testing.assert_array_equal(a, b)
        c = draw_params(noise, 43, 0, 500)
        assert not np.array_equal(a, c)

    def test_split_equals_sequential(self):
        # draw indexing: any partition of the index range gives the same
        # draws, and those are the uniforms of whole Philox blocks, each
        # generated from its start
        seed = 7
        bounds = (0, 1, 11, 1030, 2100, 2101, 3000)  # mid-block starts, two block crossings
        unaligned_skip = False
        noises = (DistributionSpec("gaussian", (0.5,), dim=1),
                  DistributionSpec("gaussian", (0.5,), dim=3),
                  DistributionSpec("gaussian", (0.5,), dim=784),
                  DistributionSpec("exponential", (2.0,), dim=1),
                  DistributionSpec("uniform", (0.0, 1.5), dim=1),
                  DistributionSpec("uniform", (-1.0, 2.0), dim=2),
                  DistributionSpec("folded_gaussian", (0.7,), dim=1),
                  DistributionSpec("folded_gaussian", (0.7,), dim=5))
        # every family draw_params samples: laplace has a radius but no sampler
        assert {noise.family for noise in noises} == set(NOISE_FAMILIES) - {"laplace"}
        for noise in noises:
            per_draw = uniforms_per_draw(noise)
            blocks = [np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, b, 0]))
                      .random(DRAWS_PER_BLOCK * per_draw).reshape(-1, per_draw)
                      for b in range(3)]
            reference = np.concatenate(blocks)[:bounds[-1]]
            np.testing.assert_array_equal(_uniforms(seed, 0, bounds[-1], per_draw), reference)
            for lo, hi in zip(bounds, bounds[1:]):
                np.testing.assert_array_equal(_uniforms(seed, lo, hi - lo, per_draw),
                                              reference[lo:hi])
                unaligned_skip |= (lo % DRAWS_PER_BLOCK) * per_draw % 4 != 0
            whole = draw_params(noise, seed, 0, bounds[-1])
            parts = np.concatenate([draw_params(noise, seed, lo, hi - lo)
                                    for lo, hi in zip(bounds, bounds[1:])])
            np.testing.assert_array_equal(whole, parts)
        assert unaligned_skip

    def test_each_uniform_generated_once(self, monkeypatch):
        # 400-draw requests enter their block mid-way; none may
        # regenerate the block's uniforms before its start
        generated = []
        block_generator = streams._block_generator

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def random(self, out):
                generated.append(out.size)
                return self.gen.random(out=out)

        monkeypatch.setattr(streams, "_block_generator",
                            lambda *args: Counting(block_generator(*args)))
        noise = DistributionSpec("gaussian", (0.5,), dim=81)
        count = 10 * 400
        for start in range(0, count, 400):
            draw_params(noise, 3, 100 + start, 400)
        assert sum(generated) == count * uniforms_per_draw(noise)

    _FAMILIES = (DistributionSpec("gaussian", (0.5,), dim=784),
                 DistributionSpec("gaussian", (0.3, 0.7, 0.2), dim=3),
                 DistributionSpec("folded_gaussian", (0.7,), dim=5),
                 DistributionSpec("exponential", (2.0,), dim=1),
                 DistributionSpec("uniform", (-1.0, 2.0), dim=2))

    @pytest.mark.parametrize("noise", _FAMILIES, ids=lambda noise: noise.family)
    def test_draws_into_given_buffer(self, monkeypatch, noise):
        # bit for bit the fresh draws, whatever the chunk of uniforms
        # transformed at once, across a Philox block boundary
        fresh = draw_params(noise, 9, 1000, 300)
        buf = np.full((300, noise.dim), np.nan)
        assert draw_params(noise, 9, 1000, 300, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        for chunk in (1, 5, 3 * uniforms_per_draw(noise) + 1):
            monkeypatch.setattr(streams, "_CHUNK_UNIFORMS", chunk)
            buf[:] = np.nan
            draw_params(noise, 9, 1000, 300, out=buf)
            assert buf.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match=r"\(300, %d\) output" % noise.dim):
            draw_params(noise, 9, 1000, 300, out=buf[:299])

    def test_draws_hold_little_beyond_their_output(self):
        # 400 draws of 784-d gaussian noise: 2.5 MB of output, and
        # temporaries of one chunk of uniforms, not of the whole request
        noise = DistributionSpec("gaussian", (1.0,), dim=784)
        out = np.empty((400, 784))
        tracemalloc.start()
        try:
            draw_params(noise, 1, 500, 400, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_distribution_moments(self):
        n = 200_000
        g = draw_params(DistributionSpec("gaussian", (0.7,), dim=1), 1, 0, n)
        assert abs(g.mean()) < 4 * 0.7 / math.sqrt(n)
        assert g.std() == pytest.approx(0.7, rel=0.02)
        e = draw_params(DistributionSpec("exponential", (2.0,), dim=1), 2, 0, n)
        assert np.all(e >= 0)
        assert e.mean() == pytest.approx(0.5, rel=0.02)
        u = draw_params(DistributionSpec("uniform", (-1.0, 3.0), dim=1), 3, 0, n)
        assert u.min() >= -1.0 and u.max() <= 3.0
        assert u.mean() == pytest.approx(1.0, abs=0.02)
        f = draw_params(DistributionSpec("folded_gaussian", (1.0,), dim=1), 5, 0, n)
        assert np.all(f >= 0)
        assert f.mean() == pytest.approx(math.sqrt(2 / math.pi), rel=0.02)


def _bc_query(classifier, sigma_k=0.0, sigma_b=0.3, conf=None, seed=0):
    return SmoothedQuery(classifier, transform_spec("brightness_contrast"),
                         DistributionSpec("gaussian", (sigma_k, sigma_b), dim=2),
                         conf or ConfidenceParams(0.001, 10_000, 100), seed)


class TestSampleCounts:
    def test_constant_classifier(self, image_9x9):
        q = _bc_query(ConstantClassifier(3, num_classes=5))
        counts = sample_counts(q, image_9x9, 100)
        assert counts.counts[3] == 100 and counts.total == 100

    def test_fixed_seed_reproducible(self, image_9x9):
        q = _bc_query(MeanThresholdClassifier(0.5), seed=9)
        a = sample_counts(q, image_9x9, 1000)
        b = sample_counts(q, image_9x9, 1000)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_matches_analytic_frequency(self, image_9x9):
        clf = MeanThresholdClassifier(0.55)
        q = _bc_query(clf, sigma_b=0.25, seed=17)
        n = 50_000
        counts = sample_counts(q, image_9x9, n)
        p = analytic_smoothed_confidence(clf, q.transform, q.noise, image_9x9)
        emp = counts.counts[1] / n
        assert abs(emp - p) <= 3 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("kind,noise", [
        ("brightness_contrast", DistributionSpec("gaussian", (0.2, 0.2), dim=2)),
        ("translation_reflect", DistributionSpec("gaussian", (2.0,), dim=2)),
        ("translation_black", DistributionSpec("gaussian", (2.0,), dim=2)),
        ("gaussian_blur", DistributionSpec("exponential", (0.5,), dim=1)),
        ("rotation", DistributionSpec("gaussian", (0.2,), dim=1)),
        ("scaling", DistributionSpec("uniform", (0.8, 1.25), dim=1)),
        ("additive_pixel", DistributionSpec("gaussian", (0.25,), dim=81)),
    ])
    def test_fast_paths_match_naive_loop(self, image_9x9, kind, noise):
        # blocked sampling, with its shift dedup, must tally exactly like
        # building and classifying one draw at a time
        clf = MeanThresholdClassifier(0.5)
        transform = (additive_pixel_transform(image_9x9.shape) if kind == "additive_pixel"
                     else transform_spec(kind))
        q = SmoothedQuery(clf, transform, noise,
                          ConfidenceParams(0.05, 400, 50), seed=31)
        counts = sample_counts(q, image_9x9, 300)
        params = draw_params(noise, 31, 0, 300)
        naive = np.zeros(clf.num_classes, dtype=np.int64)
        for row in params:
            img = apply_one(transform, image_9x9, row)
            naive[int(img.data.mean() > clf.threshold)] += 1
        np.testing.assert_array_equal(counts.counts, naive)

    def test_memory_flat_in_samples(self):
        # sampling holds one block of transformed images, not all n draws
        x = ImageTensor(np.random.default_rng(3).random((1, 28, 28)))
        q = _bc_query(MeanThresholdClassifier(0.5), sigma_k=0.2, sigma_b=0.2)
        peaks = []
        for n in (10_000, 40_000):
            tracemalloc.start()
            sample_counts(q, x, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_dimension_mismatch_rejected(self, image_9x9):
        with pytest.raises(ValueError):
            SmoothedQuery(ConstantClassifier(0), transform_spec("gaussian_blur"),
                          DistributionSpec("gaussian", (1.0,), dim=2),
                          ConfidenceParams())

    def test_laplace_refused_for_every_transform(self, image_9x9):
        # laplace keeps a radius for radius-table, but nothing samples it
        with pytest.raises(ValueError, match="laplace noise has a radius"):
            SmoothedQuery(ConstantClassifier(0), transform_spec("translation_reflect"),
                          DistributionSpec("laplace", (1.0,), dim=2),
                          ConfidenceParams(0.05, 400, 50), seed=1)
        with pytest.raises(ValueError, match="no sampler for noise family 'laplace'"):
            draw_params(DistributionSpec("laplace", (1.0,), dim=1), 1, 0, 10)

    def test_blur_negative_draw_rejected(self, image_9x9):
        # laplace is two-sided, and blur cannot take negative parameters;
        # laplace has no sampler either, so the query is refused before
        # any sampling
        with pytest.raises(ValueError):
            q = SmoothedQuery(ConstantClassifier(0), transform_spec("gaussian_blur"),
                              DistributionSpec("laplace", (1.0,), dim=1),
                              ConfidenceParams(0.05, 400, 50), seed=1)
            sample_counts(q, image_9x9, 50)

    @pytest.mark.parametrize("noise,ok", [
        (DistributionSpec("gaussian", (1.0,), dim=1), False),
        (DistributionSpec("uniform", (-0.5, 1.0), dim=1), False),
        (DistributionSpec("uniform", (0.0, 1.0), dim=1), True),
        (DistributionSpec("exponential", (1.0,), dim=1), True),
        (DistributionSpec("folded_gaussian", (1.0,), dim=1), True),
    ])
    def test_blur_noise_sign_rule(self, noise, ok):
        def build():
            return SmoothedQuery(ConstantClassifier(0), transform_spec("gaussian_blur"),
                                 noise, ConfidenceParams())
        if ok:
            build()
        else:
            with pytest.raises(ValueError, match="draws negative"):
                build()


def _image_labels(clf, transform, x, params):
    """Labels of the built images: what the class-score path must return."""
    imgs = transform.apply_many(x, params)
    return clf.classify_flat_batch(imgs.reshape(len(imgs), -1), x.shape)


_SHAPES = [(1, 28, 28), (3, 8, 8), (1, 9, 6)]


class TestClassScorePath:
    # an affine classifier reads blur, brightness/contrast and additive
    # noise as class scores; its labels must be those of the built images
    @pytest.mark.parametrize("shape", _SHAPES, ids=["1x28x28", "3x8x8", "1x9x6"])
    @pytest.mark.parametrize("kind,noise", [
        ("gaussian_blur", DistributionSpec("exponential", (1.0,), dim=1)),
        ("gaussian_blur", DistributionSpec("folded_gaussian", (1.5,), dim=1)),
        ("gaussian_blur", DistributionSpec("uniform", (0.0, 6.0), dim=1)),
        ("brightness_contrast", DistributionSpec("gaussian", (0.3, 0.3), dim=2)),
        ("additive_pixel", DistributionSpec("gaussian", (0.5,), dim=1)),
    ], ids=["blur-exponential", "blur-folded", "blur-uniform", "bc", "additive"])
    def test_labels_equal_image_path(self, shape, kind, noise, monkeypatch):
        monkeypatch.setattr(smoothing, "_BLOCK_IMAGES", 256)  # several blocks
        x = ImageTensor(np.random.default_rng(1).random(shape))
        if kind == "additive_pixel":
            transform = additive_pixel_transform(shape)
            noise = DistributionSpec("gaussian", (0.5,), dim=transform.param_dim)
        else:
            transform = transform_spec(kind)
        params = draw_params(noise, 7, 0, 1000)
        if kind == "gaussian_blur":
            params[::97] = 0.0  # alpha 0: every residual coefficient is exactly 0
        seen = set()
        for seed in range(3):
            clf = random_linear(seed, shape)
            expected = _image_labels(clf, transform, x, params)
            seen.update(expected.tolist())
            with monkeypatch.context() as m:
                # the score path builds no image and classifies none
                m.setattr(Transform, "apply_many", None)
                m.setattr(clf, "classify_flat_batch", None)
                labels = _label_params(clf, transform, x, params)
            np.testing.assert_array_equal(labels, expected)
        assert len(seen) > 1

    # 1x28x28 has more bins a side (15) than classes (10), so its blur
    # scores are read one spectrum at a time; the smaller canvases take
    # the coefficient GEMM.  Either way they are the built images' scores.
    @pytest.mark.parametrize("shape", _SHAPES, ids=["1x28x28", "3x8x8", "1x9x6"])
    def test_blur_scores_match_image_scores(self, shape):
        x = ImageTensor(np.random.default_rng(2).random(shape))
        clf = random_linear(3, shape)
        params = draw_params(DistributionSpec("exponential", (1.0,), dim=1), 5, 0, 500)
        params[::50] = 0.0
        form = transform_spec("gaussian_blur").linear_form(x)
        expected = form.apply(params) @ clf.weights.T + clf.bias
        np.testing.assert_allclose(form.project(clf.weights, clf.bias).apply(params), expected,
                                   rtol=0, atol=1e-12)

    def test_hidden_hook_builds_blur_basis_once(self, monkeypatch):
        # a classifier without the hook classifies every image, but the
        # blur basis is still built once per call, not once per block
        monkeypatch.setattr(smoothing, "_BLOCK_IMAGES", 100)
        built = []
        blur_basis = transforms._blur_basis
        monkeypatch.setattr(transforms, "_blur_basis",
                            lambda x: built.append(x.shape) or blur_basis(x))
        x = ImageTensor(np.random.default_rng(2).random((1, 28, 28)))
        clf = random_linear(4, x.shape)
        hidden = ImageOnlyLinear(clf.weights, clf.bias, x.shape)
        params = draw_params(DistributionSpec("exponential", (1.0,), dim=1), 3, 0, 1000)
        blur = transform_spec("gaussian_blur")
        labels = _label_params(hidden, blur, x, params)
        assert built == [x.shape] and hidden.evals == 1000
        np.testing.assert_array_equal(labels, _label_params(clf, blur, x, params))

    def test_row_stream_draws_and_projects_each_slice_once(self, monkeypatch):
        # inputs sharing a stream share each slice's product with W.T,
        # inside the prefix and past it; the counts equal those of fresh
        # draws and of the built images
        g = np.random.default_rng(5)
        shape = (1, 9, 9)
        transform = additive_pixel_transform(shape)
        noise = DistributionSpec("gaussian", (0.5,), dim=transform.param_dim)
        clf = random_linear(6, shape, classes=3)
        q = SmoothedQuery(clf, transform, noise, ConfidenceParams(0.001, 1000, 100), 5)
        stream = RowStream(q, batch=400)
        images = [ImageTensor(g.random(shape)) for _ in range(4)]
        reads = ((0, 100), (100, 400), (150, 100), (500, 400))
        products, draws = [], []
        product, draw = LinearForm.product, smoothing.draw_params
        monkeypatch.setattr(LinearForm, "product",
                            lambda form, p: products.append(len(p)) or product(form, p))
        monkeypatch.setattr(smoothing, "draw_params",
                            lambda *args, **kwargs:
                            draws.append(args[2:]) or draw(*args, **kwargs))
        streamed = [sample_counts(q, x, n, offset, stream).counts
                    for x in images for offset, n in reads]
        assert products == [100, 400, 100, 400] and draws == list(reads)
        monkeypatch.undo()
        fresh = [sample_counts(q, x, n, offset).counts for x in images for offset, n in reads]
        built = [np.bincount(_image_labels(clf, transform, x, draw_params(noise, 5, offset, n)),
                             minlength=3) for x in images for offset, n in reads]
        np.testing.assert_array_equal(streamed, fresh)
        np.testing.assert_array_equal(streamed, built)

    def test_row_stream_draws_into_one_buffer(self, monkeypatch):
        # an affine row reads the guess slice from its query's kept draws,
        # and draws each check's slice into one buffer of max(n0, batch)
        # rows that it reuses
        shape = (1, 9, 9)
        transform = additive_pixel_transform(shape)
        noise = DistributionSpec("gaussian", (0.5,), dim=transform.param_dim)
        q = SmoothedQuery(random_linear(6, shape, classes=3), transform, noise,
                          ConfidenceParams(0.001, 1000, 100), 5)
        stream = RowStream(q, batch=400)
        calls, draw = [], smoothing.draw_params
        monkeypatch.setattr(smoothing, "draw_params", lambda *args, out=None: calls.append(
            (args[2:], out)) or draw(*args, out=out))
        x = ImageTensor(np.random.default_rng(2).random(shape))
        reads = ((0, 100), (100, 400), (500, 400), (900, 100))
        for offset, n in reads:
            sample_counts(q, x, n, offset, stream)
        assert [read for read, _ in calls] == list(reads)
        (_, guess), *checks = calls
        assert guess is None  # the query's own array, not the buffer
        outs = [out for _, out in checks]
        assert [len(out) for out in outs] == [n for _, n in reads[1:]]
        assert len({id(out.base) for out in outs}) == 1
        assert outs[0].base.shape == (400, x.data.size)

    def test_query_keeps_the_guess_slice_until_another_is_drawn(self, monkeypatch):
        # predict and a certifier's guess read one draw of (0, n0), shared
        # by replace() copies; the next other slice frees it, and a copy
        # with another seed draws its own
        shape = (1, 9, 9)
        transform = additive_pixel_transform(shape)
        noise = DistributionSpec("gaussian", (0.5,), dim=transform.param_dim)
        q = SmoothedQuery(random_linear(6, shape, classes=3), transform, noise,
                          ConfidenceParams(0.001, 1000, 100), 5)
        calls, draw = [], smoothing.draw_params
        monkeypatch.setattr(smoothing, "draw_params", lambda *args, out=None: calls.append(
            args[1:4]) or draw(*args, out=out))
        kept = q.draws(0, 100)
        assert not kept.flags.writeable
        assert q.draws(0, 100) is kept
        assert replace(q, conf=replace(q.conf, alpha=0.01)).draws(0, 100) is kept
        other = replace(q, seed=6).draws(0, 100)
        assert other.tobytes() == draw(noise, 6, 0, 100).tobytes() != kept.tobytes()
        q.draws(100, 400)
        again = q.draws(0, 100)
        assert again is not kept and again.tobytes() == kept.tobytes()
        assert calls == [(5, 0, 100), (6, 0, 100), (5, 100, 400), (5, 0, 100)]

    def test_row_stream_refuses_other_transforms_and_queries(self):
        # brightness/contrast's basis [x; 1] depends on the input, so no
        # product of its draws may be shared across inputs: the stream
        # takes additive pixel noise only, and serves its own query only
        clf = random_linear(8, (1, 9, 9), classes=3, bias=0.0)
        with pytest.raises(ValueError, match="additive_pixel query, got 'brightness_contrast'"):
            RowStream(_bc_query(clf, sigma_k=0.3, sigma_b=0.3, seed=4), 400)
        transform = additive_pixel_transform((1, 9, 9))
        noise = DistributionSpec("gaussian", (0.5,), dim=transform.param_dim)
        q = SmoothedQuery(clf, transform, noise, ConfidenceParams(0.001, 1000, 100), 5)
        with pytest.raises(ValueError, match="serves another query"):
            sample_counts(replace(q, seed=6), ImageTensor(np.zeros((1, 9, 9))), 100, 0,
                          RowStream(q, 400))

    @pytest.mark.parametrize("family,params,batch,match", [
        ("gaussian", (0.5,), 0, "batch size must be >= 1"),
        ("uniform", (-0.5, 0.5), 400, "need isotropic gaussian noise, got uniform"),
        ("gaussian", (0.5,) * 80 + (0.6,), 400, "isotropic gaussian noise with sigma > 0"),
        ("gaussian", (0.0,), 400, "isotropic gaussian noise with sigma > 0"),
    ])
    def test_row_stream_refuses_protocol_before_any_draw(self, monkeypatch, family, params,
                                                         batch, match):
        # the stream fixes the row's check size and sigma, so it refuses
        # a bad one when it is built, before anything is drawn
        monkeypatch.setattr(smoothing, "draw_params", lambda *args, **kwargs: pytest.fail())
        transform = additive_pixel_transform((1, 9, 9))
        noise = DistributionSpec(family, params, dim=transform.param_dim)
        q = SmoothedQuery(ConstantClassifier(1), transform, noise,
                          ConfidenceParams(0.001, 1000, 100), 5)
        with pytest.raises(ValueError, match=match):
            RowStream(q, batch)

    def test_blur_scores_hold_no_image_block(self):
        # 20,000 blur draws on 1x28x28: the peak stays below one block of
        # images, so no B x d array is ever allocated
        x = ImageTensor(np.random.default_rng(3).random((1, 28, 28)))
        clf = random_linear(0, x.shape)
        params = draw_params(DistributionSpec("exponential", (1.0,), dim=1), 0, 0, 20_000)
        blur = transform_spec("gaussian_blur")
        tracemalloc.start()
        try:
            _label_params(clf, blur, x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < smoothing._BLOCK_IMAGES * x.data.nbytes, peak

    def test_blur_scores_hold_no_coefficient_block(self):
        # 4096 blur draws on 1x28x28 read as class scores from the two
        # kernel spectra: the peak stays below one block of coefficients
        # lambda_u mu_v - 1, so that (B, 15 * 15) array is never built
        x = ImageTensor(np.random.default_rng(4).random((1, 28, 28)))
        clf = random_linear(1, x.shape)
        params = draw_params(DistributionSpec("exponential", (1.0,), dim=1), 1, 0, 4096)
        blur = transform_spec("gaussian_blur")
        tracemalloc.start()
        try:
            _label_params(clf, blur, x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(params) * 15 * 15 * 8, peak


class TestTranslationShifts:
    @pytest.mark.parametrize("kind", ["translation_reflect", "translation_black"])
    def test_key_keeps_row_unique_order(self, kind, monkeypatch):
        # shifts inside [-W/2, W/2) x [-H/2, H/2): the int64 key builds each
        # distinct shift once, in np.unique's row order, and every draw reads
        # its own shift's label
        x = ImageTensor(np.random.default_rng(0).random((1, 28, 26)))
        clf = random_linear(3, x.shape, classes=4)
        params = draw_params(DistributionSpec("gaussian", (2.0,), dim=2), 11, 0, 20_000)
        built = []
        apply_many = Transform.apply_many

        def spy(self, x, block):
            built.append(block)
            return apply_many(self, x, block)

        monkeypatch.setattr(Transform, "apply_many", spy)
        labels = _label_params(clf, transform_spec(kind), x, params)
        rows, inverse = np.unique(np.floor(params + 0.5), axis=0, return_inverse=True)
        np.testing.assert_array_equal(np.floor(np.concatenate(built) + 0.5), rows)
        padding = kind.removeprefix("translation_")
        row_labels = np.array([one_label(clf, translate(x, *row, padding)) for row in rows])
        np.testing.assert_array_equal(labels, row_labels[inverse.reshape(-1)])

    @pytest.mark.parametrize("kind", ["translation_reflect", "translation_black"])
    @pytest.mark.parametrize("sigma", [3.0, 1e15])
    def test_large_shifts_match_per_draw_loop(self, kind, sigma):
        # reflect shifts reduced modulo W and H, black ones clipped: the
        # counts are those of translating by each raw draw
        x = ImageTensor(np.random.default_rng(1).random((1, 9, 6)))
        clf = random_linear(2, x.shape, classes=4)
        noise = DistributionSpec("gaussian", (sigma,), dim=2)
        q = SmoothedQuery(clf, transform_spec(kind), noise, ConfidenceParams(0.05, 400, 50), 9)
        counts = sample_counts(q, x, 400)
        padding = kind.removeprefix("translation_")
        naive = np.zeros(4, dtype=np.int64)
        for dx, dy in draw_params(noise, 9, 0, 400):
            shifted = translate(x, dx, dy, padding)
            naive[clf.classify_flat_batch(shifted.data.reshape(1, -1), x.shape)[0]] += 1
        np.testing.assert_array_equal(counts.counts, naive)


class TestPredict:
    def test_constant_never_abstains(self, image_9x9):
        q = _bc_query(ConstantClassifier(2, num_classes=4))
        assert predict(q, image_9x9) == 2

    def test_near_balanced_abstains(self, image_9x9):
        clf = MeanThresholdClassifier(float(np.mean(image_9x9.data)))
        q = _bc_query(clf, sigma_b=0.3, seed=3)
        assert predict(q, image_9x9) == ABSTAIN

    def test_null_abstention_probability(self):
        # exact computation: under a fair-coin top-two split the test
        # rejects (returns a class) with probability <= alpha
        n0, alpha = 100, 0.001
        from mpmath import mp, binomial, mpf
        reject = mpf(0)
        for k in range(n0 + 1):
            if binom_two_sided_p(k, n0) <= alpha:
                reject += binomial(n0, k) * mpf(0.5) ** n0
        assert float(reject) <= alpha

    def test_lopsided_counts_pass(self):
        assert binom_two_sided_p(99, 100) <= 0.001


class TestCertify:
    def test_constant_all_success_bound(self, image_9x9):
        conf = ConfidenceParams(0.001, 10_000, 100)
        q = _bc_query(ConstantClassifier(1), conf=conf)
        out = certify(q, image_9x9)
        assert out.label == 1
        assert out.p_a_lower == pytest.approx(0.001 ** (1 / 10_000), abs=1e-9)
        assert out.samples_used == 10_100

    def test_adversarial_half_abstains(self, image_9x9):
        # smoothed confidence exactly 1/2: returning a certificate would
        # need p_lower > 1/2 which the bound allows with prob <= alpha
        clf = MeanThresholdClassifier(float(np.mean(image_9x9.data)))
        conf = ConfidenceParams(0.001, 2_000, 100)
        for seed in range(5):
            out = certify(_bc_query(clf, conf=conf, seed=seed), image_9x9)
            assert out.abstained

    def test_lower_bound_below_empirical_frequency(self, image_9x9):
        clf = MeanThresholdClassifier(0.45)
        conf = ConfidenceParams(0.001, 2_000, 100)
        q = _bc_query(clf, sigma_b=0.2, conf=conf, seed=8)
        out = certify(q, image_9x9)
        counts = sample_counts(q, image_9x9, 2_000, draw_offset=100)
        emp = counts.counts[out.label] / 2_000
        assert out.p_a_lower <= emp


class TestProgressive:
    def _query(self, clf, image, n=100_000, seed=0):
        transform = additive_pixel_transform(image.shape)
        noise = DistributionSpec("gaussian", (0.5,), dim=transform.param_dim)
        return SmoothedQuery(clf, transform, noise,
                             ConfidenceParams(0.001, n, 100), seed)

    def test_constant_certifies_first_batch(self, image_9x9):
        q = self._query(ConstantClassifier(1), image_9x9)
        stream = RowStream(q, 400)
        out = progressive_certify(stream, image_9x9, target_radius=0.1)
        assert out.certified and out.checks_used == 1
        assert out.samples_used == 100 + 400
        assert stream.alpha_check == pytest.approx(0.001 / 250)
        # offline recheck of the early stop
        p = clopper_pearson_lower(400, 400, stream.alpha_check)
        assert 0.5 * std_normal_quantile(p) == pytest.approx(out.radius, abs=1e-12)
        assert out.radius > 0.1

    def test_infinite_target_exhausts_budget(self, image_9x9, monkeypatch):
        # no check of an infinite target can certify, and one tail sum
        # decides the last one: p_a_lower is bisected when first read
        calls = []

        def counting(*args):
            calls.append(args)
            return clopper_pearson_lower(*args)

        monkeypatch.setattr(smoothing, "clopper_pearson_lower", counting)
        q = self._query(ConstantClassifier(1), image_9x9, n=4_000)
        out = progressive_certify(RowStream(q, 1_000), image_9x9, target_radius=math.inf)
        assert not out.certified
        assert out.samples_used == 100 + 4_000
        assert out.checks_used == 4
        assert calls == []
        assert out.p_a_lower == clopper_pearson_lower(4_000, 4_000, 0.001 / 4)
        assert out.p_a_lower == out.p_a_lower and out.radius > 0.0
        assert calls == [(4_000, 4_000, 0.001 / 4)]

    def test_zero_target_certifies_when_confident(self, image_9x9):
        q = self._query(ConstantClassifier(0), image_9x9)
        out = progressive_certify(RowStream(q, 400), image_9x9, target_radius=0.0)
        assert out.certified and out.radius > 0.0

    def test_skip_never_drops_a_certifying_check(self):
        # every count a check can see, at the per-check alpha of the CLI
        # defaults, and at large sample sizes (where the bound sits
        # closest to hits/used) the counts next to all hits; targets
        # include ones just under the radius that a count certifies,
        # where the skip is tightest
        alpha_check = 0.001 / 250
        for used, lowest in ((1, 0), (2, 0), (5, 0), (40, 0), (400, 0),
                             (4_000, 3_960), (100_000, 99_960)):
            bounds = {hits: clopper_pearson_lower(hits, used, alpha_check)
                      for hits in range(lowest, used + 1)}
            for sigma in (0.25, 1.0, 3.0):
                radii = [sigma * std_normal_quantile(p) for p in bounds.values() if p > 0.5]
                targets = [0.0, 0.01, 0.3, 1.0, 2.5, math.inf]
                targets += [r * (1 - 1e-12) for r in radii] + [math.nextafter(r, 0) for r in radii]
                for target in targets:
                    p_floor = _certify_floor(target, sigma)
                    for hits, p in bounds.items():
                        if hits / used <= p_floor:
                            assert not (p > 0.5 and sigma * std_normal_quantile(p) > target), \
                                (hits, used, sigma, target)

    @pytest.mark.parametrize("used", [400, 800, 4_000, 20_000, 100_000])
    def test_decision_equals_bisection(self, used):
        # at the per-check alphas of 250 checks and of 200 anchors, the
        # hits around where the bound crosses each floor, and targets at
        # (and one double under) a check's own radius, which put the tail
        # sum inside its margin: a decision equals the bisected bound's
        # radius test and, away from those targets, CP > p*
        sigma, shape = 0.5, (1, 9, 9)
        transform = additive_pixel_transform(shape)
        noise = DistributionSpec("gaussian", (sigma,), dim=transform.param_dim)
        margins = 0
        for alpha in (0.001, 0.0001, 0.001 / 200):
            stream = RowStream(SmoothedQuery(ConstantClassifier(1), transform, noise,
                                             ConfidenceParams(alpha, 100_000, 100)), 400)
            a = stream.alpha_check
            assert a == pytest.approx({0.001: 0.001 / 250, 0.0001: 0.001 / 2_500}.get(
                alpha, 0.001 / (200 * 250)), rel=1e-15)
            z = -std_normal_quantile(a)
            cases = []
            for target in (0.0, 0.1, 0.6, 1.2):
                p = _certify_floor(target, sigma)
                mid = round(used * p + z * math.sqrt(used * p * (1.0 - p)))
                hits = range(max(0, mid - 6), min(used, mid + 6) + 1)
                cases += [(h, target, True) for h in hits]
            h = min(used, round(used * 0.8))
            radius = sigma * std_normal_quantile(clopper_pearson_lower(h, used, a))
            cases += [(h, radius, False), (h, math.nextafter(radius, 0.0), False)]
            seen = set()
            for hits, target, away in cases:
                p = clopper_pearson_lower(hits, used, a)
                radius_test = p > 0.5 and sigma * std_normal_quantile(p) > target
                assert stream.clears(hits, used, target) == radius_test, (hits, used, a, target)
                if away:
                    assert radius_test == (p > _certify_floor(target, sigma))
                    seen.add(radius_test)
                margins += clopper_pearson_exceeds(hits, used, a, _certify_floor(target, sigma),
                                                   2.0 ** -49) is None
            assert seen == {False, True}
        assert margins >= 3

    @staticmethod
    def _full_check_reference(q, x, target, batch, last_check=None):
        # the protocol without the skip: a bound at every check, and a
        # stop once Hoeffding's upper bound is at or below the floor or
        # after ``last_check`` checks
        max_checks = math.ceil(q.conf.n_samples / batch)
        alpha_check = q.conf.alpha / max_checks
        sigma = q.noise.params[0]
        p_floor = max(0.5, std_normal_cdf(target / sigma))
        guess, _ = sample_counts(q, x, q.conf.n0_samples).top_two()
        hits = used = checks = 0
        p = 0.0
        while used < q.conf.n_samples:
            m = min(batch, q.conf.n_samples - used)
            hits += int(sample_counts(q, x, m, q.conf.n0_samples + used).counts[guess])
            used += m
            checks += 1
            p = clopper_pearson_lower(hits, used, alpha_check)
            if p > 0.5 and sigma * std_normal_quantile(p) > target:
                return True, guess, p, q.conf.n0_samples + used, checks
            if hits / used + math.sqrt(math.log(1 / alpha_check) / (2 * used)) <= p_floor:
                break
            if checks == last_check:
                break
        return False, guess, p, q.conf.n0_samples + used, checks

    def test_matches_full_check_reference(self, image_9x9):
        mean = float(image_9x9.data.mean())
        w = np.ones((1, 81)) / 9.0
        # class 0 wins by a margin of 0.02 against noise sd 0.5: p ~ 0.52
        near_tie = LinearClassifier(np.vstack([w, np.zeros((1, 81))]),
                                    np.array([0.02 - 9.0 * mean, 0.0]), (1, 9, 9))
        seen = set()
        for clf in (ConstantClassifier(1), MeanThresholdClassifier(mean - 0.03), near_tie):
            for seed in (0, 1):
                q = self._query(clf, image_9x9, n=4_000, seed=seed)
                for target in (0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7,
                               1.0, math.inf):
                    stream = RowStream(q, 400)
                    out = progressive_certify(stream, image_9x9, target)
                    ref = self._full_check_reference(q, image_9x9, target, 400)
                    assert (out.certified, out.label, out.p_a_lower, out.samples_used,
                            out.checks_used) == ref
                    # the first check alone, still at the alpha of all ten
                    first = progressive_certify(stream, image_9x9, target,
                                                first_check_only=True)
                    assert (first.certified, first.label, first.p_a_lower, first.samples_used,
                            first.checks_used) == self._full_check_reference(
                                q, image_9x9, target, 400, last_check=1)
                    assert stream.alpha_check == 0.001 / 10
                    if out.checks_used == 1:
                        assert first == out
                    seen.add((out.certified, out.checks_used == 1,
                              out.samples_used == 100 + 4_000))
        # early certification, later certification, a futility stop and
        # exhaustion all occur
        assert seen >= {(True, True, False), (True, False, False),
                        (False, True, False), (False, False, True)}

    def test_hoeffding_bound_covers_clopper_pearson(self):
        # the stop rule's bound is never tighter than the exact upper
        # bound 1 - CP_lower(misses), so a stop implies the exact bound
        # is at or below the floor too
        for alpha in (0.3, 0.001, 0.001 / 250, 0.001 / 200 / 250):
            for used in (1, 2, 5, 40, 400, 4_000, 20_000):
                step = max(1, used // 20)
                for hits in sorted({*range(0, used + 1, step), used - 1, used}):
                    hoeffding = hits / used + math.sqrt(math.log(1 / alpha) / (2 * used))
                    exact = 1.0 - clopper_pearson_lower(used - hits, used, alpha)
                    assert hoeffding >= exact, (hits, used, alpha)

    def test_confident_anchor_is_never_stopped(self, image_9x9):
        # true confidence 0.01 above the floor Phi(0.3 / 0.5): every seed
        # either certifies or draws its whole budget
        target, sigma = 0.3, 0.5
        p = _certify_floor(target, sigma) + 0.01
        clf = MeanThresholdClassifier(
            float(image_9x9.data.mean()) - sigma / 9.0 * std_normal_quantile(p))
        q = self._query(clf, image_9x9)
        assert analytic_smoothed_confidence(clf, q.transform, q.noise,
                                            image_9x9) == pytest.approx(p)
        exhausted = 0
        for seed in range(60):
            out = progressive_certify(RowStream(self._query(clf, image_9x9, n=4_000, seed=seed),
                                                400), image_9x9, target)
            assert out.label == 1
            assert out.certified or out.samples_used == 100 + 4_000, seed
            exhausted += not out.certified
        assert exhausted > 0

    def test_row_memo_tells_sample_sizes_apart(self, image_9x9, monkeypatch):
        # two inputs of one row reach 400 hits, one at 400 samples and one
        # at 800: each reads the bound of its own (hits, used)
        a, b = image_9x9, ImageTensor(1.0 - image_9x9.data)
        monkeypatch.setattr(smoothing, "sample_counts",
                            lambda q, x, n, draw_offset=0, stream=None:
                            CountVector([0, n] if x is a else [n - n // 2, n // 2]))
        stream = RowStream(self._query(ConstantClassifier(1), a, n=800), 400)
        first = progressive_certify(stream, a, 0.1)
        second = progressive_certify(stream, b, 0.1)
        assert first.certified and first.samples_used == 100 + 400
        assert first.p_a_lower == clopper_pearson_lower(400, 400, 0.001 / 2)
        assert not second.certified and second.samples_used == 100 + 800
        assert second.p_a_lower == clopper_pearson_lower(400, 800, 0.001 / 2)

    def test_requires_isotropic_gaussian(self, image_9x9):
        q = self._query(ConstantClassifier(1), image_9x9)
        sigmas = np.full(q.noise.dim, 0.5)
        sigmas[0] = 0.6
        q = replace(q, noise=DistributionSpec("gaussian", tuple(sigmas), dim=q.noise.dim))
        with pytest.raises(ValueError, match="isotropic gaussian noise with sigma > 0"):
            progressive_certify(RowStream(q, 400), image_9x9, 0.1)

    def test_negative_target_rejected(self, image_9x9):
        q = self._query(ConstantClassifier(1), image_9x9)
        with pytest.raises(ValueError):
            progressive_certify(RowStream(q, 400), image_9x9, -1.0)
