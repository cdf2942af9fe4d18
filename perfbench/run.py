"""End-to-end and per-layer benchmark for semcert's ``certify`` command.

Run from the repository root:

    python3 perfbench/run.py --workload rotation-alias --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BASE_RECORDS NEW_RECORDS

Each run builds a seeded corpus (stroke-like 1x28x28 IDX images and a
SEMW1 linear classifier), then drives the user's real path in-process:
``semcert.cli.run_cli(["certify", ...])``, one CLI call per image and
transform.  The first pass over the workload's images always completes,
so ``certified_acc`` covers a fixed set of images; further passes repeat
the images until ``--seconds`` have elapsed, and every repeat must write
a byte-identical CSV row.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one traced pass over the same images and prints the
per-layer metrics; the two passes must also write identical rows.
Every run records itself under ``.perfbench/records``; ``--compare``
reads two such directories and reports each metric per workload.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# Protocol: the CLI defaults (alpha 0.001, n 1e5, n0 100, batch 400).
# Rotation and scaling smooth with sigma 1.0, so a three-class tie stays
# below p = 1/2 at every anchor while the stronger images keep p > 0.6.
TRANSFORM_FLAGS = {
    "blur": ("--alpha-max", "1.0"),
    "brightness-contrast": ("--k-range", "-0.2", "0.2", "--b-range", "-0.2", "0.2",
                            "--sigma-k", "0.3", "--sigma-b", "0.3"),
    "translation-reflect": ("--rho", "0.5", "--noise-sigma", "0.25"),
    "rotation": ("--interval", "-5", "5", "--grid-n", "20", "--grid-r", "400",
                 "--noise-sigma", "1.0"),
    "scaling": ("--interval", "0.95", "1.05", "--grid-n", "200", "--grid-r", "10",
                "--noise-sigma", "1.0"),
}
DEFAULT_GRIDS = {"rotation": (10_000, 1_000), "scaling": (1_000, 250)}
ALIASING_CHUNK = 200  # aliasing_bound's default intervals per block

# One corpus block: strong, medium and wrong-label two-class mixes, and
# a three-class tie.  Every workload reads its images in block order.
# resolvable leaves out the medium mix: brightness/contrast noise pushes
# its confidence under the corner condition on some seeds only, which
# would make certified_acc follow the seed rather than the program; it
# leaves out the tie because blur breaks the tie towards a seeded class.
LEVELS = (0.9, 0.7, 0.3, "tie")
BLOCKS = 3
SETUP_REPEATS = 7
ORACLE_POINTS = 5003


@dataclass(frozen=True)
class Workload:
    transforms: tuple[str, ...]
    levels: tuple
    images: int  # images in the first pass, which always completes


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "resolvable": Workload(("blur", "brightness-contrast", "translation-reflect"),
                           (0.9, 0.3), 4),
    "rotation-alias": Workload(("rotation",), (0.9, 0.7, 0.3), 9),
    "scaling-anchors": Workload(("scaling",), LEVELS, 4),
}

EMPHASIS = {
    "rotation-alias": ("aliasing", "tensor", "transforms"),
    "scaling-anchors": ("streams", "classifiers", "statfn"),
}


def _cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count; must precede numpy."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# Set-up: corpus, classifier and files


def write_corpus(workdir: Path, seed: int) -> list:
    """Write one IDX image/label pair per corpus image and the classifier."""
    from corpus import make_corpus, write_idx_images, write_idx_labels
    from semcert import io as semio
    from semcert.classifiers import LinearClassifier

    levels = LEVELS * BLOCKS
    pixels, labels, weights, bias = make_corpus(seed, levels)
    semio.save_linear_classifier(LinearClassifier(weights, bias, (1, 28, 28)),
                                 workdir / "classifier.semw")
    for i in range(len(levels)):
        write_idx_images(workdir / f"images-{i}.idx", pixels[i:i + 1])
        write_idx_labels(workdir / f"labels-{i}.idx", labels[i:i + 1])
    return list(levels)


def setup_probe(workdir: Path, seed: int) -> float:
    """Seconds for the imports plus the corpus write, in a fresh interpreter."""
    t0 = time.perf_counter()
    import semcert.cli  # noqa: F401
    write_corpus(workdir, seed)
    return time.perf_counter() - t0


def measure_setup(workdir: Path, seed: int) -> list[float]:
    """Set up ``SETUP_REPEATS`` times, each in its own child interpreter."""
    workdir.mkdir(parents=True, exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, __file__, "--setup-probe", str(workdir),
                               "--seed", str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# Certification passes


@dataclass
class Attempt:
    image: int
    transform: str
    body: str | None = None
    robust_accuracy: float | None = None
    seconds: float | None = None  # cli -> pipeline call
    wall: float = 0.0  # whole CLI call
    problems: list = field(default_factory=list)


def certify_unit(workdir: Path, seed: int, image: int, transform: str) -> Attempt:
    """One ``semcert certify`` call on a one-image IDX file."""
    import semcert.cli

    out = workdir / f"out-{transform}-{image}"
    argv = ["certify", "--transform", transform, *TRANSFORM_FLAGS[transform],
            "--dataset", str(workdir / f"images-{image}.idx"),
            "--labels", str(workdir / f"labels-{image}.idx"),
            "--weights", str(workdir / "classifier.semw"),
            "--seed", str(seed), "--output", str(out)]
    attempt = Attempt(image, transform)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = semcert.cli.run_cli(argv)
        if code != 0:
            attempt.problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
            return attempt
        attempt.body = Path(f"{out}.csv").read_text()
        summary = json.loads(Path(f"{out}.json").read_text())
        attempt.robust_accuracy = summary["robust_accuracy"]
    except Exception:  # a raising certification is a failed operation
        attempt.problems.append(traceback.format_exc(limit=3).strip())
    return attempt


def run_pass(units, workdir: Path, seed: int, recorder, seconds: float | None):
    """Certify every unit once, then repeat units until ``seconds`` elapse."""
    attempts = []
    start = time.perf_counter()
    i = 0
    while i < len(units) or (seconds is not None
                             and time.perf_counter() - start < seconds):
        image, transform = units[i % len(units)]
        before = len(recorder.rows)
        t0 = time.perf_counter()
        attempt = certify_unit(workdir, seed, image, transform)
        attempt.wall = time.perf_counter() - t0
        if len(recorder.rows) == before + 1:
            attempt.seconds = recorder.rows[-1].seconds
        attempts.append(attempt)
        i += 1
    return attempts, time.perf_counter() - start


def balanced_rate(attempts) -> float:
    """Completed certifications per second of one pass over the units.

    Each unit's CLI calls are averaged first, so repeats that cover only
    part of a pass do not shift the mix of cheap and costly units.
    """
    walls, done = {}, {}
    for a in attempts:
        key = (a.image, a.transform)
        walls.setdefault(key, []).append(a.wall)
        done.setdefault(key, []).append(a.body is not None)
    pass_s = sum(statistics.fmean(v) for v in walls.values())
    return sum(statistics.fmean(v) for v in done.values()) / pass_s


def check_attempts(attempts, reference: dict) -> None:
    """Row checks, plus byte equality with the first row seen for each unit."""
    from checks import check_row, parse_row

    for a in attempts:
        if a.body is None:
            continue
        key = f"{a.transform}/{a.image}"
        try:
            a.problems += check_row(a.transform, TRANSFORM_FLAGS[a.transform],
                                    parse_row(a.body))
        except (ValueError, KeyError) as exc:
            a.problems.append(f"unreadable CSV row: {exc!r}")
        if reference.setdefault(key, a.body) != a.body:
            a.problems.append(f"CSV differs from the same-seed row for {key}")


def load_reference(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def save_reference(path: Path, reference: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(reference, indent=1, sort_keys=True))
    os.replace(tmp, path)


def run_oracle(workdir: Path, attempts) -> tuple[dict, list]:
    """Dense-grid check of sqrt(M) for the first rotation/scaling image."""
    from checks import oracle, parse_row
    from semcert import io as semio

    first = next((a for a in attempts if a.transform in ("rotation", "scaling")
                  and a.body is not None), None)
    if first is None:
        return {}, []
    sqrt_m = float(parse_row(first.body)["sqrt_m"])
    images, _ = semio.read_idx(workdir / f"images-{first.image}.idx")
    worst, problems = oracle(images[0], first.transform,
                             TRANSFORM_FLAGS[first.transform], sqrt_m, ORACLE_POINTS)
    return {"image": first.image, "dense_points": ORACLE_POINTS,
            "dense_max_min_l2": worst, "sqrt_m": sqrt_m}, problems


# ---------------------------------------------------------------------------
# Workload properties and per-layer metrics


def properties(attempts, rows) -> dict:
    """Anchor checks, verdict mix and sqrt(M) of the certifications run."""
    from checks import parse_row

    first = {}
    for a in attempts:
        if a.body is not None:
            first.setdefault((a.image, a.transform), parse_row(a.body))
    verdicts = [r["verdict"] for r in first.values()]
    sqrt_m = [float(r["sqrt_m"]) for r in first.values() if r["sqrt_m"]]
    anchors = [anchor for row in rows for anchor in row.anchors]
    n_anchors = max(len(anchors), 1)
    n_rows = max(len(verdicts), 1)
    return {
        "smoothing.anchor_checks_1_frac":
            sum(c == 1 for c, ok, _ in anchors if ok) / n_anchors,
        "smoothing.anchor_checks_2_10_frac":
            sum(2 <= c <= 10 for c, ok, _ in anchors if ok) / n_anchors,
        "smoothing.anchor_checks_over_10_frac":
            sum(c > 10 for c, ok, _ in anchors if ok) / n_anchors,
        "smoothing.anchor_exhausted_frac": sum(not ok for _, ok, _ in anchors) / n_anchors,
        "pipeline.certified_frac": verdicts.count("certified") / n_rows,
        "pipeline.not_certified_frac": verdicts.count("not_certified") / n_rows,
        "pipeline.abstain_frac": verdicts.count("abstain") / n_rows,
        "pipeline.sqrt_m_p50": _median(sqrt_m),
        "pipeline.sqrt_m_max": max(sqrt_m, default=0.0),
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "trace.coverage":
        return "fraction"
    if name == "trace.overhead":
        return "ratio"
    if "sqrt_m" in name:
        return "l2"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(rec, traced_wall: float, untraced_wall: float) -> dict:
    c, own, group = rec.counts, rec.layer_self, rec.group_self
    anchors = [anchor for row in rec.rows for anchor in row.anchors]
    n_anchors = len(anchors)
    alias_total = rec.hook_total.get("pipeline.aliasing_bound", 0.0)
    wasted = sum(r.aliasing_s for r in rec.rows if r.verdict != "certified")
    values = {
        "streams.draws": c["streams.draws"],
        "streams.values": c["streams.values"],
        "streams.self_s": own["streams"],
        "streams.values_per_s": _rate(c["streams.values"], own["streams"]),
        "transforms.blur_images": c["transforms.blur_images"],
        "transforms.blur_self_s": group["blur"],
        "transforms.geom_images": c["transforms.geom_images"],
        "transforms.geom_self_s": group["geom"],
        "transforms.self_s": own["transforms"],
        "tensor.bilinear_points": c["tensor.bilinear_points"],
        "tensor.self_s": own["tensor"],
        "tensor.points_per_s": _rate(c["tensor.bilinear_points"], own["tensor"]),
        "classifiers.evals": c["classifiers.evals"],
        "classifiers.self_s": own["classifiers"],
        "classifiers.evals_per_s": _rate(c["classifiers.evals"], own["classifiers"]),
        "statfn.cp_calls": c["statfn.cp_calls"],
        "statfn.cp_self_s": group["cp"],
        "statfn.binom_calls": c["statfn.binom_calls"],
        "statfn.self_s": own["statfn"],
        "smoothing.certify_calls": c["smoothing.certify_calls"],
        "smoothing.anchors": n_anchors,
        "smoothing.anchor_checks": sum(checks for checks, _, _ in anchors),
        "smoothing.anchor_one_batch_frac":
            sum(checks == 1 for checks, _, _ in anchors) / max(n_anchors, 1),
        "smoothing.anchor_pass_frac":
            sum(ok and label_ok for _, ok, label_ok in anchors) / max(n_anchors, 1),
        "smoothing.samples": c["smoothing.samples"],
        "smoothing.self_s": own["smoothing"],
        "aliasing.calls": c["aliasing.calls"],
        "aliasing.intervals": c["aliasing.intervals"],
        "aliasing.self_s": own["aliasing"],
        "aliasing.intervals_per_s": _rate(c["aliasing.intervals"], alias_total),
        "aliasing.sqrt_m_p50": _median(rec.sqrt_m),
        "aliasing.wasted_frac": wasted / alias_total if alias_total > 0 else 0.0,
        "radii.calls": c["radii.calls"],
        "radii.self_s": own["radii"],
        "pipeline.self_s": own["pipeline"],
        "io.self_s": own["io"],
        "io.bytes_written": c["io.bytes_written"],
        "cli.self_s": own["cli"],
        "trace.coverage": sum(own.values()) / traced_wall,
        "trace.overhead": traced_wall / untraced_wall,
    }
    return values


def emphasis(workload: str, rec, traced_wall: float) -> tuple[dict, str]:
    """Layer shares of traced wall time and the workload's designed emphasis."""
    from hooks import LAYERS

    shares = {layer: rec.layer_self.get(layer, 0.0) / traced_wall for layer in LAYERS}
    if workload == "resolvable":
        held = rec.counts["aliasing.calls"] == 0 and rec.layer_self.get("aliasing", 0.0) == 0.0
        return shares, "held" if held else "VIOLATED: aliasing fired in resolvable"
    group = EMPHASIS[workload]
    inside = sum(shares[layer] for layer in group)
    outside = max(share for layer, share in shares.items() if layer not in group)
    if inside > outside:
        return shares, "held"
    return shares, (f"VIOLATED: {'+'.join(group)} share {inside:.3f} is not above "
                    f"the largest other layer ({outside:.3f})")


def projections(transform: str, rec, base_rss_mb: float, peak_mb: float) -> dict:
    """Projected cost of one image at the CLI default grid (not measured)."""
    flags = TRANSFORM_FLAGS[transform]
    n_outer = int(flags[flags.index("--grid-n") + 1])
    n_inner = int(flags[flags.index("--grid-r") + 1])
    def_outer, def_inner = DEFAULT_GRIDS[transform]
    intervals_per_s = _rate(rec.counts["aliasing.intervals"],
                            rec.hook_total.get("pipeline.aliasing_bound", 0.0))
    anchors = sum(len(r.anchors) for r in rec.rows)
    apply_anchor = "pipeline.rotate" if transform == "rotation" else "pipeline.scale"
    anchor_s = (rec.hook_total.get("pipeline.progressive_certify", 0.0)
                + rec.hook_total.get(apply_anchor, 0.0))
    per_anchor = anchor_s / anchors if anchors else 0.0
    chunk_images = min(ALIASING_CHUNK, n_outer - 1) * n_inner
    per_image_mb = max(peak_mb - base_rss_mb, 0.0) / chunk_images
    alias_s = ((def_outer - 1) / intervals_per_s * def_inner / n_inner
               if intervals_per_s else 0.0)
    return {
        "grid": f"{def_outer}x{def_inner}",
        "projected_aliasing_s": alias_s,
        "projected_anchor_s": def_outer * per_anchor,
        "projected_total_s": alias_s + def_outer * per_anchor,
        "projected_peak_rss_mb": base_rss_mb + per_image_mb * min(
            ALIASING_CHUNK, def_outer - 1) * def_inner,
        "basis": (f"measured at {n_outer}x{n_inner}: {intervals_per_s:.4g} intervals/s, "
                  f"{per_anchor:.4g} s per anchor, {per_image_mb:.4g} MB per image "
                  f"of the largest aliasing chunk; aliasing time assumed linear in "
                  f"inner points"),
    }


# ---------------------------------------------------------------------------
# One benchmark run


def run(args) -> int:
    if not (ROOT / "src" / "semcert").is_dir():
        print(f"error: no semcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_cap = _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    import numpy
    from hooks import Recorder

    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = _median(measure_setup(workdir / "probe", args.seed))
        levels = write_corpus(workdir, args.seed)
        images = [i for i, level in enumerate(levels)
                  if level in workload.levels][:workload.images]
        units = [(i, t) for i in images for t in workload.transforms]
        base_rss = _peak_rss_mb()
        # One untimed certification first, so lazy set-up inside numpy and
        # the allocator's first growth stay out of the timed window.
        warmup = certify_unit(workdir, args.seed, *units[0])

        with Recorder(traced=False) as plain:
            attempts, wall = run_pass(units, workdir, args.seed, plain,
                                      None if args.trace else args.seconds)
        peak_mb = _peak_rss_mb()
        certs_per_s = balanced_rate(attempts)
        rows = plain.rows
        if args.trace:
            with Recorder(traced=True) as traced:
                traced_attempts, traced_wall = run_pass(units, workdir, args.seed,
                                                        traced, None)
            attempts += traced_attempts
            rows = traced.rows

        ref_path = OUT / "rows" / f"{args.workload}-seed{args.seed}.json"
        reference = load_reference(ref_path)
        checked = [warmup, *attempts]
        check_attempts(checked, reference)
        oracle_record, oracle_problems = run_oracle(workdir, checked)
        save_reference(ref_path, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{a.transform}/image {a.image}: {p}" for a in checked for p in a.problems]
    failures += oracle_problems
    attempted = len(checked) + (1 if oracle_record else 0)
    failed = sum(1 for a in checked if a.problems) + len(oracle_problems)
    first_pass = attempts[:len(units)]
    accs = [a.robust_accuracy for a in first_pass if a.robust_accuracy is not None]
    row_seconds = [r.seconds for r in plain.rows]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads_cap": blas_cap,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "protocol": {"alpha": 0.001, "n": 100_000, "n0": 100, "batch": 400},
        "transforms": {t: list(TRANSFORM_FLAGS[t]) for t in workload.transforms},
        "images": {str(i): str(levels[i]) for i in images},
        "first_pass_certifications": len(units),
        "certifications_timed": len(plain.rows),
        "properties": properties(attempts, rows),
        "oracle": oracle_record,
        "failures": failures,
    }
    if args.trace:
        metrics = layer_metrics(traced, traced_wall, wall)
        shares, verdict = emphasis(args.workload, traced, traced_wall)
        record.update(layer_shares=shares, emphasis=verdict,
                      missing_hooks=traced.missing,
                      counter_errors=traced.counter_errors)
        if workload.transforms[0] in DEFAULT_GRIDS:
            record["projection"] = projections(workload.transforms[0], traced,
                                               base_rss, peak_mb)
        metrics.update(record["properties"])
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in metrics.items()}
    else:
        metrics = {
            "certs_per_s": {"value": certs_per_s, "unit": "1/s"},
            "cert_s_p50": {"value": _median(row_seconds), "unit": "s"},
            "certified_acc": {"value": sum(accs) / len(accs) if accs else 0.0,
                              "unit": "fraction"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        record["cert_s_p50_samples"] = len(row_seconds)
        record["timed_rows"] = [[a.image, a.transform, a.seconds] for a in attempts]
    record["metrics"] = metrics

    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-"
               f"{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    for key, value in record.items():
        if key != "metrics":
            print(f"{key}: {json.dumps(value)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Compare mode


def _load_records(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def compare(base_dir: Path, new_dir: Path) -> int:
    """Per workload and metric: medians, quartiles, ratio and a verdict.

    The verdict follows the pairwise rule: a gain needs the new side to
    win at least 9 of 10 seed-matched pairs and the medians to differ by
    more than the base side's quartile spread; a loss beyond the
    benchmark's bound is 'worse'; a spread wider than the bound leaves
    the metric 'unresolved' unless every new run beats every base run.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: (m["better"], m.get("bound")) for m in
              spec["end_to_end"] + spec["per_layer"]}
    base, new = _load_records(base_dir), _load_records(new_dir)
    keys = sorted({(r["workload"], name) for r in base + new for name in r["metrics"]})
    print("workload metric base_q1 base_median base_q3 new_q1 new_median new_q3 "
          "ratio(new/base) verdict")
    for workload, name in keys:
        b = {r["seed"]: r["metrics"][name]["value"] for r in base
             if r["workload"] == workload and name in r["metrics"]}
        n = {r["seed"]: r["metrics"][name]["value"] for r in new
             if r["workload"] == workload and name in r["metrics"]}
        if not b or not n:
            continue
        direction, bound = better.get(name, ("higher", None))
        sign = 1.0 if direction == "higher" else -1.0
        bq, nq = _quartiles(list(b.values())), _quartiles(list(n.values()))
        pairs = [(b[s], n[s]) for s in b if s in n]
        wins = sum(sign * (nv - bv) > 0 for bv, nv in pairs)
        losses = sum(sign * (nv - bv) < 0 for bv, nv in pairs)
        gain = sign * (nq[1] - bq[1])
        spread = bq[2] - bq[0]
        limit = spread if bound is None else max(spread, bound * abs(bq[1]))
        if pairs and wins >= 0.9 * len(pairs) and gain > spread:
            verdict = "improved"
        elif -gain > limit and (bound is not None or losses >= 0.9 * len(pairs)):
            verdict = "worse"
        elif bound is not None and spread > bound * abs(bq[1]) and not (
                min(sign * v for v in n.values()) > max(sign * v for v in b.values())):
            verdict = "unresolved"
        elif bound is None and abs(gain) > spread:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        print(f"{workload} {name} {bq[0]:.6g} {bq[1]:.6g} {bq[2]:.6g} "
              f"{nq[0]:.6g} {nq[1]:.6g} {nq[2]:.6g} "
              f"{ratio:.4f} (base {bq[1]:.6g}) {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                        help="compare two directories of run records")
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _cap_blas_threads()
        sys.path.insert(0, str(ROOT / "src"))
        print(setup_probe(args.setup_probe, args.seed))
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
