"""Command-line surface: certify, radius-table, aliasing, predict.

Each transform's and noise family's own flags are declared once, with
their defaults, in ``_TRANSFORM_FLAGS`` and ``_FAMILY_FLAGS``, and the
protocol defaults come from ``ConfidenceParams``; ``--help`` prints them
all.  Rotation angles are taken in degrees at the CLI and converted to
radians internally.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys

import numpy as np

from . import io as semio
from .aliasing import IntervalGrid, aliasing_bound
from .classifiers import ConstantClassifier, MeanThresholdClassifier
from .pipeline import (ParameterSet, certify_bc_rectangle, certify_diff_resolvable,
                       certify_resolvable, certify_translation_enum,
                       robust_accuracy_report)
from .radii import NOISE_FAMILIES, ConfidencePair, DistributionSpec, closed_form_radius
from .smoothing import ABSTAIN, SmoothedQuery, predict
from .statfn import ConfidenceParams
from .transforms import additive_pixel_transform, transform_spec

__all__ = ["run_cli", "main"]

_GEOMETRIC = ("rotation", "scaling")
_RANGE = {"type": float, "nargs": 2, "metavar": ("LO", "HI")}

# Each transform-specific flag of certify, predict and aliasing (whose
# --kind names a transform): its argparse settings, then the transforms
# that read it, each with the flag's default there; None marks a
# required flag.
_TRANSFORM_FLAGS = {
    "alpha-max": ({"type": float, "help": "blur region: max squared radius"}, {"blur": None}),
    "rho": ({"type": float, "help": "translation region: displacement radius"},
            {"translation-reflect": None, "translation-black": None}),
    "k-range": ({**_RANGE, "help": "brightness/contrast region: log-contrast range"},
                {"brightness-contrast": None}),
    "b-range": ({**_RANGE, "help": "brightness/contrast region: brightness range"},
                {"brightness-contrast": None}),
    "interval": ({**_RANGE, "help": "rotation (degrees) or scaling (factor) interval"},
                 dict.fromkeys(_GEOMETRIC)),
    "grid-n": ({"type": int, "help": "outer anchors"}, {"rotation": 10_000, "scaling": 1_000}),
    "grid-r": ({"type": int, "help": "inner subsamples"}, {"rotation": 1_000, "scaling": 250}),
    "batch": ({"type": int, "help": "progressive certification batch size"},
              dict.fromkeys(_GEOMETRIC, 400)),
    "noise-family": ({"choices": NOISE_FAMILIES, "help": "blur smoothing noise family"},
                     {"blur": "exponential"}),
    "noise-scale": ({"type": float, "help": "blur noise scale: rate for exponential, upper "
                                            "end for uniform [0,a], scale otherwise"},
                    {"blur": 1.0}),
    "noise-sigma": ({"type": float, "help": "gaussian smoothing noise sigma"},
                    dict.fromkeys(("translation-reflect", "translation-black", *_GEOMETRIC,
                                   "additive"), 0.25)),
    "sigma-k": ({"type": float, "help": "contrast noise std"}, {"brightness-contrast": 0.3}),
    "sigma-b": ({"type": float, "help": "brightness noise std"}, {"brightness-contrast": 0.3}),
}

# radius-table's scale flags: their argparse settings, then the families
# that read each, with the unit-variance default
_FAMILY_FLAGS = {
    "sigma": ({"type": float, "help": "gaussian / folded gaussian sigma"},
              {"gaussian": 1.0, "folded_gaussian": math.sqrt(math.pi / (math.pi - 2.0))}),
    "lambda": ({"type": float, "help": "exponential rate"}, {"exponential": 1.0}),
    "uniform-range": ({**_RANGE, "help": "uniform interval"},
                      {"uniform": (-math.sqrt(3.0), math.sqrt(3.0))}),
    "laplace-scale": ({"type": float, "help": "laplace scale"},
                      {"laplace": 1.0 / math.sqrt(2.0)}),
}


def _add_flags(parser, option: str, choices, table: dict, flags=None) -> None:
    """Add the required ``--option`` with ``choices``, then each flag of
    ``table`` named in ``flags`` (all by default).  A flag's help ends with
    its default for each choice that reads it."""
    parser.add_argument(f"--{option}", required=True, choices=choices)
    for flag in flags or table:
        settings, readers = table[flag]
        by_value = {}
        for choice in choices:
            if choice in readers:
                by_value.setdefault(readers[choice], []).append(choice)
        notes = "; ".join(f"{'required' if v is None else f'default {v}'} for {' or '.join(c)}"
                          for v, c in by_value.items())
        parser.add_argument(f"--{flag}", **{**settings, "help": f"{settings['help']} ({notes})"})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcert",
        description="Certify smoothed classifiers against semantic image transforms.")
    sub = parser.add_subparsers(dest="command", required=True)
    conf = ConfidenceParams()

    def add_conf(p):
        p.add_argument("--alpha", type=float, default=conf.alpha,
                       help="certification error rate (default %(default)s)")
        p.add_argument("--n", type=int, default=conf.n_samples,
                       help="estimation samples (default %(default)s)")
        p.add_argument("--n0", type=int, default=conf.n0_samples,
                       help="class-selection samples (default %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="reproducibility seed")

    def add_classifier(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--weights", help="SEMW1 linear classifier file")
        g.add_argument("--synthetic",
                       help="synthetic classifier: constant:<label>[:<classes>] "
                            "or mean:<threshold>")

    cert = sub.add_parser("certify", help="certify a dataset against one transform")
    cert.set_defaults(run=_cmd_certify)
    cert.add_argument("--dataset", required=True, help="IDX image file")
    cert.add_argument("--labels", required=True, help="IDX label file")
    cert.add_argument("--stride", type=int, default=1,
                      help="evaluate every stride-th sample (default 1)")
    add_classifier(cert)
    add_conf(cert)
    _add_flags(cert, "transform", ("blur", "brightness-contrast", "translation-reflect",
                                   "translation-black", *_GEOMETRIC), _TRANSFORM_FLAGS)
    cert.add_argument("--output", required=True,
                      help="output prefix: writes <prefix>.csv and <prefix>.json")

    table = sub.add_parser("radius-table",
                           help="closed-form radius over a p_A grid as CSV")
    table.set_defaults(run=_cmd_radius_table)
    _add_flags(table, "family", NOISE_FAMILIES, _FAMILY_FLAGS)
    table.add_argument("--p-grid", default=None,
                       help="comma-separated p_A values (default 0.500..0.999 by 0.001)")
    table.add_argument("--output", default=None, help="CSV path (default stdout)")

    alias = sub.add_parser("aliasing", help="aliasing bound M and Lipschitz L")
    alias.set_defaults(run=_cmd_aliasing)
    alias.add_argument("--image", required=True, help="SEMT1 tensor file")
    _add_flags(alias, "kind", _GEOMETRIC, _TRANSFORM_FLAGS, ("interval", "grid-n", "grid-r"))

    pred = sub.add_parser("predict", help="single-sample smoothed prediction")
    pred.set_defaults(run=_cmd_predict)
    pred.add_argument("--image", required=True, help="SEMT1 tensor file")
    add_classifier(pred)
    add_conf(pred)
    _add_flags(pred, "transform", ("blur", "brightness-contrast", "translation-reflect",
                                   "additive"), _TRANSFORM_FLAGS,
               ("noise-family", "noise-scale", "noise-sigma", "sigma-k", "sigma-b"))
    return parser


def _require_paths(what: str, *paths) -> None:
    """Raise a named error for the first given path that does not exist."""
    for path in paths:
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(f"{what} path not found: {path}")


def _classifier_from_args(args):
    if args.weights is not None:
        return semio.load_linear_classifier(args.weights)
    kind, *values = args.synthetic.split(":")
    usage = (f"bad --synthetic {args.synthetic!r}: expected "
             "constant:<label>[:<classes>] or mean:<threshold>")
    try:
        numbers = [float(v) if kind == "mean" else int(v) for v in values]
    except ValueError:
        raise ValueError(usage) from None
    if kind == "constant" and len(numbers) in (1, 2):
        label = numbers[0]
        classes = numbers[1] if len(numbers) == 2 else max(2, label + 1)
        return ConstantClassifier(label, classes)
    if kind == "mean" and len(numbers) == 1:
        return MeanThresholdClassifier(numbers[0])
    raise ValueError(usage)


def _read_flags(args, option: str, table: dict) -> None:
    """Refuse each flag of ``table`` that the value of ``--option`` does not
    read, and write the default of each unset one it reads into ``args``.

    A flag that this command does not define is skipped.
    """
    chosen = getattr(args, option)
    for flag, (_, defaults) in table.items():
        dest = flag.replace("-", "_")
        if not hasattr(args, dest):
            continue
        value = getattr(args, dest)
        if chosen not in defaults:
            if value is not None:
                raise ValueError(f"--{flag} applies to --{option} {' or '.join(defaults)} "
                                 f"only, got --{option} {chosen}")
        elif value is None:
            if defaults[chosen] is None:
                raise ValueError(f"--{flag} is required for --{option} {chosen}")
            setattr(args, dest, defaults[chosen])


def _check_sigma(args, positive: bool) -> None:
    """Refuse a --noise-sigma, --sigma-k or --sigma-b that is negative, not
    finite, or zero where ``positive``; ``_read_flags`` has set each, None
    where it is not read."""
    for flag in ("noise-sigma", "sigma-k", "sigma-b"):
        sigma = getattr(args, flag.replace("-", "_"))
        if sigma is not None and not (0.0 < sigma < math.inf or sigma == 0.0 and not positive):
            raise ValueError(f"--{flag} must be finite and {'>' if positive else '>='} 0 "
                             f"for --transform {args.transform}, got {sigma}")


def _smoothing_setup(args, shape):
    """(transform, noise) of the smoothed classifier for ``--transform``.

    translation-black is certified by enumeration; its clean prediction
    smooths with reflect padding.  Blur noise is checked by
    ``SmoothedQuery``.  ``_read_flags`` has filled the noise flags.
    """
    t = args.transform
    if t == "blur":
        size = args.noise_scale
        scale = (0.0, size) if args.noise_family == "uniform" else (size,)
        return transform_spec("gaussian_blur"), DistributionSpec(args.noise_family, scale, dim=1)
    if t == "brightness-contrast":
        return (transform_spec("brightness_contrast"),
                DistributionSpec("gaussian", (args.sigma_k, args.sigma_b), dim=2))
    if t in ("translation-reflect", "translation-black"):
        return (transform_spec("translation_reflect"),
                DistributionSpec("gaussian", (args.noise_sigma,), dim=2))
    transform = additive_pixel_transform(shape)  # rotation, scaling, additive
    return transform, DistributionSpec("gaussian", (args.noise_sigma,), dim=transform.param_dim)


def _interval_grid(kind: str, interval, grid_n, grid_r) -> IntervalGrid:
    """Anchor grid over a CLI interval: degrees for rotation, factors for scaling."""
    lo, hi = interval
    # checked here, in the flag's own units, before rotation's radians
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--interval ends must be finite, got [{lo!r}, {hi!r}]")
    if not lo < hi:
        raise ValueError(f"--interval needs LO < HI, got [{lo!r}, {hi!r}]")
    for flag, size in (("grid-n", grid_n), ("grid-r", grid_r)):
        if size < 2:
            raise ValueError(f"--{flag} must be >= 2, got {size}")
    if kind == "rotation":
        lo, hi = math.radians(lo), math.radians(hi)
    return IntervalGrid(kind, lo, hi, grid_n, grid_r)


def _cmd_certify(args) -> int:
    t = args.transform
    if args.batch is not None and args.batch < 1:
        raise ValueError(f"--batch must be >= 1, got {args.batch}")
    if args.stride < 1:
        raise ValueError(f"--stride must be >= 1, got {args.stride}")
    _read_flags(args, "transform", _TRANSFORM_FLAGS)
    # the closed-form radii of translation and brightness/contrast, and the
    # anchor rows, need sigma > 0
    _check_sigma(args, positive=t != "translation-black")
    region = grid = None
    if t in ("translation-reflect", "translation-black"):
        region = ParameterSet.translation_disk(args.rho)
    elif t == "blur":
        region = ParameterSet.blur_interval(args.alpha_max)
    elif t == "brightness-contrast":
        region = ParameterSet.bc_rect(*args.k_range, *args.b_range)
    else:  # rotation / scaling
        grid = _interval_grid(t, args.interval, args.grid_n, args.grid_r)
    _require_paths("dataset", args.dataset, args.labels)
    _require_paths("classifier", args.weights)
    images, labels = semio.read_idx(args.dataset, args.labels)
    if not images:
        raise ValueError(f"dataset holds no images: {args.dataset}")
    dataset = [(image, int(label)) for image, label in zip(images, labels)]
    classifier = _classifier_from_args(args)
    conf = ConfidenceParams(args.alpha, args.n, args.n0)
    transform, noise = _smoothing_setup(args, dataset[0][0].shape)
    query = SmoothedQuery(classifier, transform, noise, conf, args.seed)

    def certifier(x, label):
        # the pipelines are looked up when called, so a wrapper installed
        # on this module's attribute sees every row
        if t == "translation-black":
            return certify_translation_enum(x, label, classifier, region)
        if t in ("blur", "translation-reflect"):
            return certify_resolvable(x, label, query, region)
        if t == "brightness-contrast":
            return certify_bc_rectangle(x, label, query, region)
        return certify_diff_resolvable(x, label, query, grid, batch=args.batch)

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report = robust_accuracy_report(dataset, query, certifier, stride=args.stride)
    rows = semio.rows_from_table(report)
    echo = {k: v for k, v in vars(args).items() if k not in ("command", "run")}
    semio.write_report_csv(rows, args.output + ".csv")
    semio.write_summary_json(semio.report_summary(report, echo, started),
                             args.output + ".json")
    print(f"wrote {args.output}.csv and {args.output}.json "
          f"({len(rows)} samples, robust accuracy {report.robust_accuracy})")
    return 0


def _cmd_radius_table(args) -> int:
    _read_flags(args, "family", _FAMILY_FLAGS)
    flag = next(f for f, (_, readers) in _FAMILY_FLAGS.items() if args.family in readers)
    params = np.atleast_1d(getattr(args, flag.replace("-", "_")))
    dist = DistributionSpec(args.family, tuple(params), dim=1)
    if args.p_grid is not None:
        try:
            p_values = [float(s) for s in args.p_grid.split(",")]
        except ValueError:
            raise ValueError(f"bad --p-grid {args.p_grid!r}: expected comma-separated "
                             "numbers") from None
    else:
        p_values = [i / 1000.0 for i in range(500, 1000)]
    lines = ["p_a,radius"]
    for p in p_values:
        radius = closed_form_radius(dist, ConfidencePair(p))
        lines.append(f"{p!r},{radius!r}")
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as f:
            f.write(text)
    return 0


def _cmd_aliasing(args) -> int:
    _read_flags(args, "kind", _TRANSFORM_FLAGS)
    grid = _interval_grid(args.kind, args.interval, args.grid_n, args.grid_r)
    _require_paths("image", args.image)
    x = semio.read_tensor(args.image)
    bound = aliasing_bound(x, args.kind, grid)
    worst = bound.worst
    print("m,sqrt_m,lipschitz_l,lo,hi,slack,exposed,discontinuity")
    # an empty field, as in the report CSV, when no crossing lies inside
    print(",".join("" if v is None else repr(v) for v in (
        bound.m_value, bound.sqrt_m, bound.lipschitz_l, worst.lo, worst.hi,
        worst.slack_lipschitz, worst.exposed_lipschitz, worst.discontinuity)))
    return 0


def _cmd_predict(args) -> int:
    _read_flags(args, "transform", _TRANSFORM_FLAGS)
    _check_sigma(args, positive=False)
    _require_paths("image", args.image)
    x = semio.read_tensor(args.image)
    classifier = _classifier_from_args(args)
    transform, noise = _smoothing_setup(args, x.shape)
    q = SmoothedQuery(classifier, transform, noise,
                      ConfidenceParams(args.alpha, args.n, args.n0), args.seed)
    label = predict(q, x)
    print("abstain" if label == ABSTAIN else str(label))
    return 0


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
