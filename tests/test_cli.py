"""Smoke tests of the ``semcert`` command line on a tiny generated IDX set."""

import argparse
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import read_report_csv
from semcert import io as semio
from semcert import smoothing
from semcert.aliasing import IntervalGrid, aliasing_bound
from semcert.classifiers import LinearClassifier
from semcert.cli import _TRANSFORM_FLAGS, _build_parser, run_cli
from semcert.radii import ConfidencePair, DistributionSpec, closed_form_radius
from semcert.tensor import ImageTensor

_HEADER = "index,true_label,predicted,verdict,p_a_lower,radius,sqrt_m,samples_used\r\n"

_SMALL = ["--synthetic", "mean:0.5", "--n", "300", "--n0", "50", "--seed", "7"]

_CERTIFY_FLAGS = {
    "blur": ["--alpha-max", "0.3"],
    "brightness-contrast": ["--k-range", "-0.1", "0.1", "--b-range", "-0.05", "0.05"],
    "translation-reflect": ["--rho", "0.2"],
    "translation-black": ["--rho", "1.5"],
    "rotation": ["--interval", "-2", "2", "--grid-n", "30", "--grid-r", "5"],
    "scaling": ["--interval", "0.95", "1.05", "--grid-n", "30", "--grid-r", "5"],
}


def _write_idx(tmp_path, pixels, labels):
    count, rows, cols = pixels.shape
    images = tmp_path / "images.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols)
                       + pixels.astype(np.uint8).tobytes())
    label_file = tmp_path / "labels.idx"
    label_file.write_bytes(struct.pack(">II", 0x801, count)
                           + np.asarray(labels, dtype=np.uint8).tobytes())
    return str(images), str(label_file)


@pytest.fixture
def idx_set(tmp_path):
    # three 9x9 images: bright (label 1), dark (label 0), bright but labelled 0
    rng = np.random.default_rng(5)
    levels = np.array([200, 50, 190])[:, None, None]
    pixels = np.clip(levels + rng.integers(-40, 41, (3, 9, 9)), 0, 255)
    return _write_idx(tmp_path, pixels, [1, 0, 0])


@pytest.fixture
def tensor_file(tmp_path):
    x = ImageTensor(np.random.default_rng(0).random((1, 9, 9)) * 0.3 + 0.7)
    path = tmp_path / "x.semt"
    semio.write_tensor(x, path)
    return x, str(path)


def _run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    @pytest.mark.parametrize("transform", sorted(_CERTIFY_FLAGS))
    def test_each_transform_runs_and_repeats(self, capsys, tmp_path, idx_set, transform):
        images, labels = idx_set
        bodies = []
        for run in ("a", "b"):
            out = tmp_path / f"{transform}-{run}"
            code, stdout, err = _run(capsys, [
                "certify", "--transform", transform, *_CERTIFY_FLAGS[transform],
                "--dataset", images, "--labels", labels, *_SMALL, "--output", str(out)])
            assert code == 0, err
            assert stdout.startswith(f"wrote {out}.csv and {out}.json (3 samples")
            bodies.append((tmp_path / f"{transform}-{run}.csv").read_bytes())
            rows = read_report_csv(f"{out}.csv")
            assert [r.index for r in rows] == [0, 1, 2]
        assert bodies[0].decode().startswith(_HEADER)
        assert bodies[0] == bodies[1]

    def test_certifies_what_it_should(self, capsys, tmp_path, idx_set):
        images, labels = idx_set
        out = tmp_path / "bc"
        code, _, err = _run(capsys, [
            "certify", "--transform", "brightness-contrast",
            *_CERTIFY_FLAGS["brightness-contrast"],
            "--dataset", images, "--labels", labels, *_SMALL, "--output", str(out)])
        assert code == 0, err
        rows = read_report_csv(f"{out}.csv")
        assert [r.predicted for r in rows] == [1, 0, 1]
        assert [r.verdict for r in rows] == ["certified", "certified", "not_certified"]

    def test_missing_dataset(self, capsys, tmp_path, idx_set):
        _, labels = idx_set
        missing = str(tmp_path / "nope.idx")
        code, _, err = _run(capsys, [
            "certify", "--transform", "blur", "--alpha-max", "0.3",
            "--dataset", missing, "--labels", labels, *_SMALL,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == f"error: dataset path not found: {missing}\n"

    def test_missing_weights(self, capsys, tmp_path, idx_set):
        images, labels = idx_set
        missing = str(tmp_path / "w.semw")
        code, _, err = _run(capsys, [
            "certify", "--transform", "blur", "--alpha-max", "0.3",
            "--dataset", images, "--labels", labels, "--weights", missing,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == f"error: classifier path not found: {missing}\n"

    def test_missing_rho(self, capsys, tmp_path):
        # refused before the dataset is read: it does not exist
        missing = str(tmp_path / "missing")
        for transform in ("translation-reflect", "translation-black"):
            code, _, err = _run(capsys, [
                "certify", "--transform", transform,
                "--dataset", missing, "--labels", missing, *_SMALL,
                "--output", str(tmp_path / "out")])
            assert code == 2
            assert err == (f"error: --rho is required for --transform {transform}\n")
        assert not (tmp_path / "out.csv").exists()

    def test_translation_black_rho_past_the_diagonal(self, capsys, tmp_path, idx_set):
        # refused at once, not enumerated: 1e10 would hang, 3000 exhaust memory
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", "translation-black", "--rho", "1e10",
            "--dataset", images, "--labels", labels, *_SMALL, "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == ("error: translation-black rho 10000000000.0 exceeds the image "
                       f"diagonal {math.hypot(9, 9)}: every shift past it gives the "
                       "all-black image\n")

    def test_translation_noise_sigma_zero_refused_before_certify(self, capsys, tmp_path,
                                                                 idx_set, monkeypatch):
        # the closed-form radius needs sigma > 0: refused by flag, before
        # any draw
        drawn = []
        draw_params = smoothing.draw_params

        def counted(noise, seed, start, count, **kwargs):
            drawn.append(count)
            return draw_params(noise, seed, start, count, **kwargs)

        monkeypatch.setattr(smoothing, "draw_params", counted)
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", "translation-reflect", "--rho", "0.5", "--noise-sigma",
            "0", "--dataset", images, "--labels", labels, *_SMALL,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == ("error: --noise-sigma must be finite and > 0 for --transform "
                       "translation-reflect, got 0.0\n")
        assert drawn == []
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flag,value,shown", [
        ("--sigma-k", "0", "0.0"), ("--sigma-b", "0", "0.0"), ("--sigma-k", "-1", "-1.0"),
        ("--sigma-k", "nan", "nan"), ("--sigma-b", "inf", "inf"),
    ])
    def test_bc_noise_scale_refused_by_flag_before_any_draw(self, capsys, tmp_path, idx_set,
                                                            monkeypatch, flag, value, shown):
        # brightness/contrast certifies only with both scales finite and > 0
        drawn = []
        monkeypatch.setattr(smoothing, "draw_params", lambda *args, **kwargs: drawn.append(1))
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", "brightness-contrast", *_CERTIFY_FLAGS[
                "brightness-contrast"], flag, value, "--dataset", images, "--labels", labels,
            *_SMALL, "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == (f"error: {flag} must be finite and > 0 for --transform "
                       f"brightness-contrast, got {shown}\n")
        assert drawn == []
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flags,shown", [
        (["--noise-scale", "1e-300"], "1e-300 draws blur squared radii up to 3.67e+301: "
                                      "a kernel of 2.42e+151 taps"),
        (["--noise-family", "uniform", "--noise-scale", "1e300"],
         "1e+300 draws blur squared radii up to 1e+300: a kernel of 4e+150 taps"),
        (["--noise-family", "folded_gaussian", "--noise-scale", "1e300"],
         "1e+300 draws blur squared radii up to 8.57e+300: a kernel of 1.17e+151 taps"),
    ])
    def test_blur_kernel_that_cannot_be_built_refused_before_any_draw(
            self, capsys, tmp_path, idx_set, monkeypatch, flags, shown):
        # the largest draw follows from the uniforms' clamps, so the noise
        # scale is refused by flag before any draw, not with numpy's
        # "Maximum allowed size exceeded" at the first blur
        drawn = []
        monkeypatch.setattr(smoothing, "draw_params", lambda *args, **kwargs: drawn.append(1))
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", "blur", "--alpha-max", "0.3", *flags,
            "--dataset", images, "--labels", labels, *_SMALL,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == f"error: --noise-scale {shown} per side cannot be built\n"
        assert drawn == []
        assert not (tmp_path / "out.csv").exists()

    def test_zero_images(self, capsys, tmp_path):
        images, labels = _write_idx(tmp_path, np.zeros((0, 9, 9)), [])
        code, _, err = _run(capsys, [
            "certify", "--transform", "blur", "--alpha-max", "0.3",
            "--dataset", images, "--labels", labels, *_SMALL,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == f"error: dataset holds no images: {images}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_huge_declared_weights(self, capsys, tmp_path, idx_set):
        images, labels = idx_set
        weights = tmp_path / "w.semw"
        weights.write_bytes(b"SEMW1 100000 100000 100000 1\n")
        code, _, err = _run(capsys, [
            "certify", "--transform", "blur", "--alpha-max", "0.3",
            "--dataset", images, "--labels", labels, "--weights", str(weights),
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == ("error: truncated file: expected 8000000000000000 bytes of "
                       "weight payload, found 0\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("spec", ["constant", "mean"])
    def test_synthetic_without_value(self, capsys, tmp_path, idx_set, spec):
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", "blur", "--alpha-max", "0.3",
            "--dataset", images, "--labels", labels, "--synthetic", spec,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == (f"error: bad --synthetic '{spec}': expected "
                       "constant:<label>[:<classes>] or mean:<threshold>\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("transform", ["blur", "translation-black", "rotation"])
    def test_weights_file_equals_synthetic(self, capsys, tmp_path, idx_set, transform):
        # class 1 scores the mean pixel minus 1/2: the mean-threshold rule
        # at 1/2, loaded from a SEMW1 file; no image mean is near 1/2
        images, labels = idx_set
        weights = np.zeros((2, 81))
        weights[1] = 1.0 / 81.0
        path = tmp_path / "w.semw"
        semio.save_linear_classifier(
            LinearClassifier(weights, np.array([0.0, -0.5]), (1, 9, 9)), path)
        bodies = []
        for name, classifier in (("w", ["--weights", str(path)]),
                                 ("s", ["--synthetic", "mean:0.5"])):
            out = tmp_path / name
            code, _, err = _run(capsys, [
                "certify", "--transform", transform, *_CERTIFY_FLAGS[transform],
                "--dataset", images, "--labels", labels, *classifier, *_SMALL[2:],
                "--output", str(out)])
            assert code == 0, err
            bodies.append((tmp_path / f"{name}.csv").read_bytes())
        assert bodies[0] == bodies[1]
        rows = read_report_csv(tmp_path / "w.csv")
        assert [r.predicted for r in rows] == [1, 0, 1]

    def test_stride_takes_every_other_image(self, capsys, tmp_path, idx_set):
        images, labels = idx_set
        flags = ["certify", "--transform", "brightness-contrast",
                 *_CERTIFY_FLAGS["brightness-contrast"],
                 "--dataset", images, "--labels", labels, *_SMALL]
        code, stdout, err = _run(capsys, [*flags, "--stride", "2",
                                          "--output", str(tmp_path / "two")])
        assert code == 0, err
        assert "(2 samples" in stdout
        code, _, err = _run(capsys, [*flags, "--output", str(tmp_path / "all")])
        assert code == 0, err
        every = read_report_csv(tmp_path / "all.csv")
        strided = read_report_csv(tmp_path / "two.csv")
        assert [r.index for r in strided] == [0, 2]  # dataset indices
        # images 0 and 2, evaluated exactly as in the full run
        key = [(r.true_label, r.predicted, r.verdict, r.p_a_lower) for r in strided]
        assert key == [(r.true_label, r.predicted, r.verdict, r.p_a_lower)
                       for r in every[::2]]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, capsys, tmp_path, idx_set, seed):
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", "blur", "--alpha-max", "0.3",
            "--dataset", images, "--labels", labels, *_SMALL, "--seed", seed,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == f"error: --seed must be in [0, 2**64), got {seed}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("transform", ["rotation", "scaling"])
    @pytest.mark.parametrize("sizes", [("0", "5"), ("30", "0")])
    def test_zero_grid_size_rejected(self, capsys, tmp_path, idx_set, transform, sizes):
        images, labels = idx_set
        interval = _CERTIFY_FLAGS[transform][:3]
        code, _, err = _run(capsys, [
            "certify", "--transform", transform, *interval,
            "--grid-n", sizes[0], "--grid-r", sizes[1],
            "--dataset", images, "--labels", labels, *_SMALL,
            "--output", str(tmp_path / "out")])
        assert code == 2
        flag = "--grid-n" if sizes[0] == "0" else "--grid-r"
        assert err == f"error: {flag} must be >= 2, got 0\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("transform,flags,message", [
        ("translation-black", ["--rho", "inf"], "disk region bounds must be finite, got (inf,)"),
        ("translation-reflect", ["--rho", "nan"], "disk region bounds must be finite, got (nan,)"),
        ("rotation", ["--interval", "-1", "inf", "--grid-n", "3", "--grid-r", "2"],
         "--interval ends must be finite, got [-1.0, inf]"),
        ("scaling", ["--interval", "nan", "1.05", "--grid-n", "3", "--grid-r", "2"],
         "--interval ends must be finite, got [nan, 1.05]"),
        ("rotation", ["--interval", "2", "-2", "--grid-n", "3", "--grid-r", "2"],
         "--interval needs LO < HI, got [2.0, -2.0]"),
        ("blur", ["--alpha-max", "nan"], "blur region bounds must be finite, got (nan,)"),
        ("blur", ["--alpha-max", "inf"], "blur region bounds must be finite, got (inf,)"),
        ("blur", ["--alpha-max", "0.3", "--noise-scale", "nan"],
         "exponential noise parameters must be finite, got (nan,)"),
        ("blur", ["--alpha-max", "0.3", "--noise-scale", "inf"],
         "exponential noise parameters must be finite, got (inf,)"),
        ("blur", ["--alpha-max", "0.3", "--noise-family", "uniform", "--noise-scale", "inf"],
         "uniform noise parameters must be finite, got (0.0, inf)"),
        ("brightness-contrast", ["--k-range", "-0.1", "inf", "--b-range", "-0.05", "0.05"],
         "rect region bounds must be finite, got (-0.1, inf, -0.05, 0.05)"),
    ])
    def test_non_finite_flag_rejected(self, capsys, tmp_path, idx_set, transform, flags,
                                      message):
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", transform, *flags, "--dataset", images,
            "--labels", labels, "--synthetic", "constant:1", "--n", "200", "--n0", "50",
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("transform,flag,value", [
        ("rotation", "family", "laplace"),
        ("rotation", "scale", "7"),
        ("scaling", "family", "exponential"),
        ("brightness-contrast", "scale", "1.0"),
        ("translation-reflect", "family", "gaussian"),
        ("translation-black", "scale", "2"),
    ])
    def test_blur_noise_flags_refused_for_other_transforms(self, capsys, tmp_path, idx_set,
                                                           transform, flag, value):
        # the flags would not change the smoothing noise of these transforms
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", transform, *_CERTIFY_FLAGS[transform],
            f"--noise-{flag}", value, "--dataset", images, "--labels", labels, *_SMALL,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == (f"error: --noise-{flag} applies to --transform blur only, "
                       f"got --transform {transform}\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_batch_below_one_rejected(self, capsys, tmp_path, idx_set, batch):
        images, labels = idx_set
        code, _, err = _run(capsys, [
            "certify", "--transform", "rotation", *_CERTIFY_FLAGS["rotation"],
            "--dataset", images, "--labels", labels, *_SMALL, "--batch", batch,
            "--output", str(tmp_path / "out")])
        assert code == 2
        assert err == f"error: --batch must be >= 1, got {batch}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command,transform,flags,message", [
        ("certify", "blur",
         ["--interval", "-5", "5", "--grid-n", "3", "--rho", "2", "--batch", "0"],
         "--batch must be >= 1, got 0"),
        ("certify", "translation-black", ["--batch", "-3"], "--batch must be >= 1, got -3"),
        ("certify", "blur", ["--stride", "0"], "--stride must be >= 1, got 0"),
        ("certify", "rotation", ["--stride", "-2"], "--stride must be >= 1, got -2"),
        ("certify", "blur", ["--interval", "-5", "5"],
         "--interval applies to --transform rotation or scaling only, got --transform blur"),
        ("certify", "brightness-contrast", ["--grid-n", "3"],
         "--grid-n applies to --transform rotation or scaling only, "
         "got --transform brightness-contrast"),
        ("certify", "translation-reflect", ["--grid-r", "3"],
         "--grid-r applies to --transform rotation or scaling only, "
         "got --transform translation-reflect"),
        ("certify", "blur", ["--rho", "2"], "--rho applies to --transform translation-reflect "
         "or translation-black only, got --transform blur"),
        ("certify", "rotation", ["--alpha-max", "0.5"],
         "--alpha-max applies to --transform blur only, got --transform rotation"),
        ("certify", "scaling", ["--k-range", "-0.1", "0.1"],
         "--k-range applies to --transform brightness-contrast only, got --transform scaling"),
        ("certify", "translation-black", ["--b-range", "-0.1", "0.1"],
         "--b-range applies to --transform brightness-contrast only, "
         "got --transform translation-black"),
        ("certify", "blur", ["--sigma-k", "5", "--sigma-b", "7", "--noise-sigma", "9"],
         "--noise-sigma applies to --transform translation-reflect or translation-black or "
         "rotation or scaling or additive only, got --transform blur"),
        ("certify", "rotation", ["--sigma-k", "5"],
         "--sigma-k applies to --transform brightness-contrast only, got --transform rotation"),
        ("certify", "brightness-contrast", ["--noise-sigma", "9"],
         "--noise-sigma applies to --transform translation-reflect or translation-black or "
         "rotation or scaling or additive only, got --transform brightness-contrast"),
        ("certify", "blur", ["--batch", "50"],
         "--batch applies to --transform rotation or scaling only, got --transform blur"),
        ("predict", "additive", ["--sigma-b", "0.3"],
         "--sigma-b applies to --transform brightness-contrast only, got --transform additive"),
        ("certify", "rotation", ["--grid-n", "1"], "--grid-n must be >= 2, got 1"),
        ("certify", "scaling", ["--grid-r", "1"], "--grid-r must be >= 2, got 1"),
        ("aliasing", "rotation", ["--grid-n", "1"], "--grid-n must be >= 2, got 1"),
        ("aliasing", "scaling", ["--grid-r", "-4"], "--grid-r must be >= 2, got -4"),
        ("certify", "rotation", ["--noise-sigma", "0"],
         "--noise-sigma must be finite and > 0 for --transform rotation, got 0.0"),
        ("certify", "scaling", ["--noise-sigma", "0"],
         "--noise-sigma must be finite and > 0 for --transform scaling, got 0.0"),
        ("certify", "translation-reflect", ["--noise-sigma", "0"],
         "--noise-sigma must be finite and > 0 for --transform translation-reflect, got 0.0"),
        ("certify", "rotation", ["--noise-sigma", "inf"],
         "--noise-sigma must be finite and > 0 for --transform rotation, got inf"),
        ("certify", "scaling", ["--noise-sigma", "nan"],
         "--noise-sigma must be finite and > 0 for --transform scaling, got nan"),
        ("certify", "translation-black", ["--noise-sigma", "-1"],
         "--noise-sigma must be finite and >= 0 for --transform translation-black, got -1.0"),
        ("predict", "additive", ["--noise-sigma", "-1"],
         "--noise-sigma must be finite and >= 0 for --transform additive, got -1.0"),
        ("predict", "translation-reflect", ["--noise-sigma", "inf"],
         "--noise-sigma must be finite and >= 0 for --transform translation-reflect, got inf"),
        ("predict", "brightness-contrast", ["--sigma-b", "-1"],
         "--sigma-b must be finite and >= 0 for --transform brightness-contrast, got -1.0"),
    ])
    def test_flags_the_transform_does_not_read_refused(self, capsys, tmp_path, command,
                                                       transform, flags, message):
        # a flag that the transform never reads, a batch or stride below 1
        # under any transform, a grid size below 2, or a noise sigma the
        # transform cannot use, is refused before any file is read: none exists
        missing = str(tmp_path / "missing")
        inputs = ["--image", missing] if command == "predict" else [
            *_CERTIFY_FLAGS[transform], "--dataset", missing, "--labels", missing,
            "--output", str(tmp_path / "out")]
        argv = [command, "--transform", transform, *inputs, *flags, *_SMALL]
        if command == "aliasing":
            argv = [command, "--kind", transform, "--image", missing, "--interval", "-2", "2",
                    *flags]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    # rows of the plain certifier (every anchor's full progressive
    # run against the grid's bound) at --batch 50 under the default n0
    # of 100; a grid of two inner points is its own two-point bound, so
    # every field must match
    @pytest.mark.parametrize("transform,expected", [
        ("rotation", [
            "0,1,1,not_certified,0.785044996392344,,,150",
            "1,0,0,certified,0.785044996392344,0.19733641473358185,0.015380299003930594,4500",
            "2,0,1,certified,0.785044996392344,0.19733641473358185,0.015234544360829395,4500"]),
        ("scaling", [
            "0,1,1,not_certified,0.5590625936934808,,0.03647367000619238,2250",
            "1,0,0,certified,0.785044996392344,0.19733641473358185,0.03660454438064283,4500",
            "2,0,1,not_certified,0.785044996392344,,,150"]),
    ])
    def test_batch_below_n0_matches_one_pass_rows(self, capsys, tmp_path, idx_set,
                                                  transform, expected):
        images, labels = idx_set
        out = tmp_path / "out"
        code, _, err = _run(capsys, [
            "certify", "--transform", transform, *_CERTIFY_FLAGS[transform][:3],
            "--grid-n", "30", "--grid-r", "2", "--dataset", images, "--labels", labels,
            "--synthetic", "mean:0.5", "--n", "300", "--seed", "7", "--batch", "50",
            "--output", str(out)])
        assert code == 0, err
        assert (tmp_path / "out.csv").read_bytes().decode() == _HEADER + "".join(
            f"{row}\r\n" for row in expected)

    @pytest.mark.parametrize("transform,flags,expected", [
        ("blur", ["--alpha-max", "0.5"], [
            "0,2,2,certified,0.9089779864198855,1.7035067136864508,,2100",
            "1,1,1,not_certified,0.6638545831139826,0.39706424373361127,,2100",
            "2,0,2,not_certified,0.7763660603354843,0.804597581251402,,2100",
            "3,1,1,certified,0.9965520801347683,4.9768369868328906,,2100",
            "4,0,1,not_certified,0.9965520801347683,4.9768369868328906,,2100"]),
        ("brightness-contrast", ["--k-range", "-0.1", "0.1", "--b-range", "-0.1", "0.1"], [
            "0,2,2,certified,0.974593079272593,1.7154723658971742,,2100",
            "1,1,2,not_certified,0.9844415763525978,1.9017205640640973,,2100",
            "2,0,2,not_certified,0.994398500702586,2.2511103036773563,,2100",
            "3,1,1,certified,0.9858317956764671,1.9357354220513805,,2100",
            "4,0,1,not_certified,0.925201170234299,1.2430193184812763,,2100"]),
    ])
    def test_resolvable_rows_pinned(self, capsys, tmp_path, transform, flags, expected):
        # random 10x10 images and a random three-class linear classifier,
        # so most rows' counts depend on the transformed pixels; guards
        # the blur and brightness/contrast image builders against drift
        rng = np.random.default_rng(13)
        pixels = rng.integers(0, 256, (5, 10, 10))
        images, labels = _write_idx(tmp_path, pixels, rng.integers(0, 3, 5))
        weights = tmp_path / "w.semw"
        semio.save_linear_classifier(
            LinearClassifier(rng.normal(0.0, 0.05, (3, 100)), np.zeros(3), (1, 10, 10)),
            weights)
        out = tmp_path / "out"
        code, _, err = _run(capsys, [
            "certify", "--transform", transform, *flags, "--dataset", images,
            "--labels", labels, "--weights", str(weights), "--n", "2000", "--n0", "100",
            "--seed", "3", "--output", str(out)])
        assert code == 0, err
        assert (tmp_path / "out.csv").read_bytes().decode() == _HEADER + "".join(
            f"{row}\r\n" for row in expected)

    def test_summary_counts_refined_rows(self, capsys, tmp_path, idx_set):
        # at sigma 0.05 the anchors' first checks clear the grid's bound
        # (20 inner points), not the two-point one; the wrong label ends
        # the first row before any refinement
        images, labels = idx_set
        counts = {}
        for sigma in ("0.05", "0.25"):
            out = tmp_path / sigma
            code, _, err = _run(capsys, [
                "certify", "--transform", "rotation", "--interval", "-2", "2",
                "--grid-n", "5", "--grid-r", "20", "--noise-sigma", sigma,
                "--dataset", images, "--labels", labels, *_SMALL, "--output", str(out)])
            assert code == 0, err
            summary = json.loads((tmp_path / f"{sigma}.json").read_text())
            rows = read_report_csv(f"{out}.csv")
            assert [r.verdict for r in rows] == ["not_certified", "certified", "certified"]
            counts[sigma] = summary["refined"]
            timing = summary["timing"]
            assert 0 < timing["min_s"] <= timing["avg_s"] <= timing["max_s"], timing
        assert counts == {"0.05": 2, "0.25": 0}
        out = tmp_path / "blur"
        code, _, err = _run(capsys, [
            "certify", "--transform", "blur", *_CERTIFY_FLAGS["blur"],
            "--dataset", images, "--labels", labels, *_SMALL, "--output", str(out)])
        assert code == 0, err
        assert json.loads((tmp_path / "blur.json").read_text())["refined"] == 0


def _certify_subprocess(argv, out, blas_threads):
    """``semcert certify`` in a fresh interpreter with ``blas_threads`` OpenBLAS
    threads (fixed when numpy loads); returns the CSV bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "semcert.cli", "certify", *argv,
                           "--output", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return out.with_suffix(".csv").read_bytes()


class TestBlasThreads:
    # OpenBLAS splits a GEMM this large (blocks of 28x28 images or their
    # class scores, ten classes) across threads, which changes the
    # scores' low bits; the rows must come out the same at 1 and 2
    @pytest.mark.parametrize("transform,flags,expected", [
        ("blur", ["--alpha-max", "0.5"],
         "0,0,0,certified,0.9986194028465247,5.892091972939721,,5100"),
        ("rotation", ["--interval", "-2", "2", "--grid-n", "10", "--grid-r", "5",
                      "--noise-sigma", "0.25"],
         "0,0,0,certified,0.9709908594055916,0.47388994252192546,0.40162186813446726,5000"),
        # refined: the two-point bound (sqrt_m 1.0038) lies above the radius,
        # so the row reads the grid bound, its inner points streamed
        ("rotation", ["--interval", "-5", "5", "--grid-n", "10", "--grid-r", "100",
                      "--noise-sigma", "0.25"],
         "0,0,0,certified,0.9709908594055916,0.47388994252192546,0.18265137570960296,5000"),
        # every anchor certified at its first check against the two-point
        # bound, all read as arrays (``RowStream.first_checks``)
        ("scaling", ["--interval", "0.95", "1.05", "--grid-n", "30", "--grid-r", "5",
                     "--noise-sigma", "0.25"],
         "0,0,0,certified,0.968327662130477,0.46419110863614793,0.18494602246310268,15000"),
    ])
    def test_rows_independent_of_blas_threads(self, tmp_path, transform, flags, expected):
        # a textured centred blob; class 0's weights are that blob, the
        # others' the blob 3 pixels off centre, so both transforms keep label 0
        ii, jj = np.meshgrid(np.arange(28), np.arange(28), indexing="ij")

        def blob(di, dj):
            return np.exp(-((ii - 13.5 - di) ** 2 + (jj - 13.5 - dj) ** 2) / 60.0)

        texture = np.random.default_rng(17).integers(-20, 21, (28, 28))
        pixels = np.clip(255.0 * blob(0.0, 0.0) + texture, 0, 255)[None]
        images, labels = _write_idx(tmp_path, pixels, [0])
        angles = 2.0 * np.pi * np.arange(10) / 10.0
        offsets = np.where(np.arange(10) == 0, 0.0, 3.0)
        weights = np.stack([blob(r * np.cos(a), r * np.sin(a)).ravel()
                            for r, a in zip(offsets, angles)]) / 10.0
        semio.save_linear_classifier(LinearClassifier(weights, np.zeros(10), (1, 28, 28)),
                                     tmp_path / "w.semw")
        argv = ["--transform", transform, *flags, "--dataset", images, "--labels", labels,
                "--weights", str(tmp_path / "w.semw"), "--n", "5000", "--n0", "100",
                "--seed", "3"]
        rows = [_certify_subprocess(argv, tmp_path / f"out{threads}", threads)
                for threads in (1, 2)]
        assert rows[0].decode() == rows[1].decode() == _HEADER + expected + "\r\n"


class TestAliasing:
    @pytest.mark.parametrize("kind,interval,lo,hi", [
        ("rotation", ["-2", "2"], math.radians(-2.0), math.radians(2.0)),
        ("scaling", ["0.95", "1.05"], 0.95, 1.05),
    ])
    def test_prints_bound(self, capsys, tensor_file, kind, interval, lo, hi):
        x, path = tensor_file
        code, out, err = _run(capsys, ["aliasing", "--image", path, "--kind", kind,
                                       "--interval", *interval,
                                       "--grid-n", "30", "--grid-r", "5"])
        assert code == 0, err
        bound = aliasing_bound(x, kind, IntervalGrid(kind, lo, hi, 30, 5))
        w = bound.worst
        header, line = out.splitlines()
        assert header == "m,sqrt_m,lipschitz_l,lo,hi,slack,exposed,discontinuity"
        # every field reads back exactly; no crossing prints an empty field
        assert [float(v) if v else None for v in line.split(",")] == [
            bound.m_value, bound.sqrt_m, bound.lipschitz_l, w.lo, w.hi,
            w.slack_lipschitz, w.exposed_lipschitz, w.discontinuity]
        assert line.endswith(",") == (w.discontinuity is None)

    def test_missing_image(self, capsys, tmp_path):
        missing = str(tmp_path / "x.semt")
        code, _, err = _run(capsys, ["aliasing", "--image", missing, "--kind",
                                     "rotation", "--interval", "-1", "1"])
        assert code == 2
        assert err == f"error: image path not found: {missing}\n"

    @pytest.mark.parametrize("kind,interval", [("rotation", ["-2", "2"]),
                                               ("scaling", ["0.95", "1.05"])])
    @pytest.mark.parametrize("sizes", [("0", "5"), ("30", "0")])
    def test_zero_grid_size_rejected(self, capsys, tensor_file, kind, interval, sizes):
        _, path = tensor_file
        code, out, err = _run(capsys, ["aliasing", "--image", path, "--kind", kind,
                                       "--interval", *interval,
                                       "--grid-n", sizes[0], "--grid-r", sizes[1]])
        assert code == 2
        assert out == ""
        flag = "--grid-n" if sizes[0] == "0" else "--grid-r"
        assert err == f"error: {flag} must be >= 2, got 0\n"

    @pytest.mark.parametrize("kind", ["rotation", "scaling"])
    def test_missing_interval_named(self, capsys, tensor_file, kind):
        _, path = tensor_file
        code, out, err = _run(capsys, ["aliasing", "--image", path, "--kind", kind])
        assert (code, out) == (2, "")
        assert err == f"error: --interval is required for --kind {kind}\n"

    def test_negative_pixels_rejected(self, capsys, tmp_path):
        # the cell bounds take the largest corner value as the bound on
        # |colour|, which needs colours >= 0
        path = tmp_path / "neg.semt"
        semio.write_tensor(ImageTensor(-np.random.default_rng(0).random((1, 9, 9))), path)
        code, _, err = _run(capsys, ["aliasing", "--image", str(path), "--kind",
                                     "rotation", "--interval", "-2", "2",
                                     "--grid-n", "20", "--grid-r", "10"])
        assert code == 2
        assert err.startswith("error:")


class TestPredict:
    @pytest.mark.parametrize("transform", ["blur", "brightness-contrast",
                                           "translation-reflect", "additive"])
    def test_prints_label(self, capsys, tensor_file, transform):
        _, path = tensor_file
        code, out, err = _run(capsys, ["predict", "--image", path, "--transform",
                                       transform, *_SMALL])
        assert code == 0, err
        assert out == "1\n"

    def test_missing_image(self, capsys, tmp_path):
        missing = str(tmp_path / "x.semt")
        code, _, err = _run(capsys, ["predict", "--image", missing,
                                     "--transform", "blur", *_SMALL])
        assert code == 2
        assert err == f"error: image path not found: {missing}\n"

    @pytest.mark.parametrize("spec", ["mean:x", "constant:1.5", "constant:1:2:3", "median:0.5"])
    def test_bad_synthetic_spec(self, capsys, tensor_file, spec):
        _, path = tensor_file
        code, out, err = _run(capsys, ["predict", "--image", path, "--transform", "blur",
                                       "--synthetic", spec, "--n", "300", "--n0", "50"])
        assert code == 2 and out == ""
        assert err == (f"error: bad --synthetic '{spec}': expected "
                       "constant:<label>[:<classes>] or mean:<threshold>\n")


    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, capsys, tensor_file, seed):
        _, path = tensor_file
        code, out, err = _run(capsys, ["predict", "--image", path, "--transform", "blur",
                                       *_SMALL, "--seed", seed])
        assert code == 2 and out == ""
        assert err == f"error: --seed must be in [0, 2**64), got {seed}\n"

    def test_largest_seed_accepted(self, capsys, tensor_file):
        _, path = tensor_file
        code, out, err = _run(capsys, ["predict", "--image", path, "--transform", "blur",
                                       *_SMALL, "--seed", str(2**64 - 1)])
        assert code == 0, err
        assert out == "1\n"

    def test_non_finite_payload(self, capsys, tmp_path):
        path = tmp_path / "nan.semt"
        path.write_bytes(b"SEMT1 1 2 2\n" + np.array([0.5, np.nan, 0.1, 0.2]).tobytes())
        code, out, err = _run(capsys, ["predict", "--image", str(path),
                                       "--transform", "blur", *_SMALL])
        assert code == 2 and out == ""
        assert err == "error: tensor payload contains non-finite values\n"


class TestRadiusTable:
    @pytest.mark.parametrize("family,explicit", [
        ("gaussian", ["--sigma", "1.0"]),
        ("folded_gaussian", ["--sigma", repr(math.sqrt(math.pi / (math.pi - 2.0)))]),
        ("exponential", ["--lambda", "1.0"]),
        ("uniform", ["--uniform-range", repr(-math.sqrt(3.0)), repr(math.sqrt(3.0))]),
        ("laplace", ["--laplace-scale", repr(1.0 / math.sqrt(2.0))]),
    ])
    def test_defaults_are_unit_variance(self, capsys, family, explicit):
        grid = ["--p-grid", "0.6,0.75,0.999"]
        code, default_out, _ = _run(capsys, ["radius-table", "--family", family, *grid])
        assert code == 0
        code, explicit_out, _ = _run(capsys, ["radius-table", "--family", family,
                                              *grid, *explicit])
        assert code == 0
        assert default_out == explicit_out
        assert default_out.startswith("p_a,radius\n0.6,")
        assert len(default_out.splitlines()) == 4

    def test_explicit_scale_to_file(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code, stdout, _ = _run(capsys, ["radius-table", "--family", "gaussian",
                                        "--sigma", "0.5", "--p-grid", "0.9",
                                        "--output", str(out)])
        assert code == 0 and stdout == ""
        radius = closed_form_radius(DistributionSpec("gaussian", (0.5,), dim=1),
                                    ConfidencePair(0.9))
        assert out.read_text() == f"p_a,radius\n0.9,{radius!r}\n"

    @pytest.mark.parametrize("family,flags,readers", [
        ("gaussian", ["--lambda", "3"], "exponential"),
        ("exponential", ["--sigma", "2"], "gaussian or folded_gaussian"),
        ("laplace", ["--uniform-range", "0", "1"], "uniform"),
        ("folded_gaussian", ["--laplace-scale", "2"], "laplace"),
        ("uniform", ["--sigma", "2"], "gaussian or folded_gaussian"),
    ])
    def test_other_family_scale_flag_refused(self, capsys, tmp_path, family, flags, readers):
        out = tmp_path / "table.csv"
        code, stdout, err = _run(capsys, ["radius-table", "--family", family, *flags,
                                          "--p-grid", "0.9", "--output", str(out)])
        assert (code, stdout) == (2, "")
        assert err == (f"error: {flags[0]} applies to --family {readers} only, "
                       f"got --family {family}\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.6,,0.7", "0.6,x", ""])
    def test_bad_grid_names_its_flag(self, capsys, grid):
        code, out, err = _run(capsys, ["radius-table", "--family", "gaussian", "--p-grid", grid])
        assert (code, out) == (2, "")
        assert err == f"error: bad --p-grid {grid!r}: expected comma-separated numbers\n"

    def test_default_grid(self, capsys):
        code, out, _ = _run(capsys, ["radius-table", "--family", "exponential"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p_a,radius" and len(lines) == 501
        assert lines[1].startswith("0.5,") and lines[-1].startswith("0.999,")


def test_every_transform_flag_is_in_the_table():
    # a certify or predict flag outside the common ones must name the
    # transforms that read it, so that the others refuse it
    common = {"-h", "--help", "--dataset", "--labels", "--image", "--weights", "--synthetic",
              "--alpha", "--n", "--n0", "--seed", "--stride", "--output", "--transform"}
    table = {f"--{flag}" for flag in _TRANSFORM_FLAGS}
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {command: {o for a in sub.choices[command]._actions for o in a.option_strings}
               for command in ("certify", "predict")}
    assert options["certify"] - common == table
    assert options["predict"] - common <= table


def test_certify_help_prints_each_readers_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per flag
    code, out, _ = _run(capsys, ["certify", "--help"])
    assert code == 0
    for text in ("certification error rate (default 0.001)", "estimation samples (default 100000)",
                 "class-selection samples (default 100)",
                 "outer anchors (default 10000 for rotation; default 1000 for scaling)",
                 "inner subsamples (default 1000 for rotation; default 250 for scaling)",
                 "gaussian smoothing noise sigma (default 0.25 for translation-reflect or "
                 "translation-black or rotation or scaling)",
                 "interval (required for rotation or scaling)"):
        assert text in out, text


@pytest.mark.parametrize("transform", ["blur", "rotation"])
def test_summary_config_echoes_every_option(capsys, tmp_path, idx_set, transform):
    # every option of certify and nothing else, with the defaults filled in
    images, labels = idx_set
    out = str(tmp_path / "out")
    code, _, err = _run(capsys, ["certify", "--transform", transform, *_CERTIFY_FLAGS[transform],
                                 "--dataset", images, "--labels", labels, *_SMALL,
                                 "--output", out])
    assert code == 0, err
    config = dict.fromkeys(["alpha_max", "b_range", "batch", "grid_n", "grid_r", "interval",
                            "k_range", "noise_family", "noise_scale", "noise_sigma", "rho",
                            "sigma_b", "sigma_k", "weights"])
    config.update(alpha=0.001, dataset=images, labels=labels, n=300, n0=50, output=out, seed=7,
                  stride=1, synthetic="mean:0.5", transform=transform)
    if transform == "blur":
        config.update(alpha_max=0.3, noise_family="exponential", noise_scale=1.0)
    else:
        config.update(batch=400, grid_n=30, grid_r=5, interval=[-2.0, 2.0], noise_sigma=0.25)
    assert json.loads((tmp_path / "out.json").read_text())["config"] == config


def _spy_readers(monkeypatch):
    """Calls of every reader of an input file, by reader name."""
    reads = []
    for name in ("read_idx", "read_tensor", "load_linear_classifier"):
        reader = getattr(semio, name)
        monkeypatch.setattr(semio, name, lambda *args, reader=reader, name=name:
                            reads.append(name) or reader(*args))
    return reads


@pytest.mark.parametrize("command", ["certify", "predict"])
@pytest.mark.parametrize("flags,message", [
    (["--n0", "0"], "--n0 must be in [1, --n 300], got 0"),
    (["--n", "0", "--n0", "1"], "--n must be >= 1, got 0"),
    (["--n", "10", "--n0", "50"], "--n0 must be in [1, --n 10], got 50"),
    (["--alpha", "nan"], "--alpha must be in (0, 1), got nan"),
    (["--alpha", "1"], "--alpha must be in (0, 1), got 1.0"),
    (["--alpha", "0"], "--alpha must be in (0, 1), got 0.0"),
    (["--seed", "-1"], "--seed must be in [0, 2**64), got -1"),
])
def test_protocol_flags_refused_by_name_before_any_read(capsys, tmp_path, monkeypatch, idx_set,
                                                        tensor_file, command, flags, message):
    # the files exist, so only the flag can be at fault, and none is read
    weights = tmp_path / "w.semw"
    semio.save_linear_classifier(LinearClassifier(np.zeros((2, 81)), np.zeros(2), (1, 9, 9)),
                                 weights)
    reads = _spy_readers(monkeypatch)
    images, labels = idx_set
    inputs = (["--image", tensor_file[1]] if command == "predict" else
              [*_CERTIFY_FLAGS["blur"], "--dataset", images, "--labels", labels,
               "--output", str(tmp_path / "out")])
    code, out, err = _run(capsys, [command, "--transform", "blur", *inputs,
                                   "--weights", str(weights), *_SMALL[2:], *flags])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert reads == []
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["certify", "aliasing"])
@pytest.mark.parametrize("interval", [("0", "1"), ("-1", "0.5")])
def test_non_positive_scaling_interval_names_its_flag(capsys, tmp_path, monkeypatch, idx_set,
                                                      tensor_file, command, interval):
    reads = _spy_readers(monkeypatch)
    images, labels = idx_set
    argv = (["aliasing", "--kind", "scaling", "--image", tensor_file[1]] if command == "aliasing"
            else ["certify", "--transform", "scaling", "--dataset", images, "--labels", labels,
                  *_SMALL, "--output", str(tmp_path / "out")])
    code, out, err = _run(capsys, [*argv, "--interval", *interval])
    lo, hi = (float(v) for v in interval)
    assert (code, out) == (2, "")
    assert err == f"error: --interval scaling factors must be > 0, got [{lo!r}, {hi!r}]\n"
    assert reads == []


@pytest.mark.parametrize("transform", list(_CERTIFY_FLAGS))
def test_guess_slice_drawn_once_per_image(capsys, tmp_path, monkeypatch, transform):
    # the clean prediction, the certifier and a row's stream all read the
    # query's one draw of (seed, 0, n0); an affine classifier, so a
    # rotation/scaling row reads its guess from class scores
    pixels = np.clip(200 + np.random.default_rng(3).integers(-40, 41, (1, 9, 9)), 0, 255)
    images, labels = _write_idx(tmp_path, pixels, [1])
    weights = np.zeros((2, 81))
    weights[1] = 1.0 / 81.0
    semio.save_linear_classifier(LinearClassifier(weights, np.array([0.0, -0.5]), (1, 9, 9)),
                                 tmp_path / "w.semw")
    requests, draw_params = [], smoothing.draw_params
    monkeypatch.setattr(smoothing, "draw_params", lambda noise, seed, start, count, out=None:
                        requests.append((seed, start, count))
                        or draw_params(noise, seed, start, count, out))
    code, _, err = _run(capsys, [
        "certify", "--transform", transform, *_CERTIFY_FLAGS[transform], "--dataset", images,
        "--labels", labels, "--weights", str(tmp_path / "w.semw"), *_SMALL[2:],
        "--output", str(tmp_path / "out")])
    assert code == 0, err
    assert requests.count((7, 0, 50)) == 1, requests
    # and no other request draws any of the first n0 again
    assert sum(max(0, min(start + count, 50) - start) for _, start, count in requests) == 50
    assert [r.predicted for r in read_report_csv(tmp_path / "out.csv")] == [1]
