"""Output checks on certify rows and the dense-grid soundness oracle.

Both use only semcert's public API, and both run outside the timed
window.  A check returns a list of problems; an empty list means pass.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from semcert.aliasing import IntervalGrid
from semcert.radii import ConfidencePair, bc_condition, bc_confidence_shift
from semcert.tensor import ImageTensor
from semcert.transforms import rotate_many, scale_many


def parse_row(body: str) -> dict:
    """The single data row of a one-image certify CSV."""
    rows = list(csv.DictReader(io.StringIO(body)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, found {len(rows)}")
    return rows[0]


def _flag(flags, name: str, count: int = 1):
    at = flags.index(name)
    values = [float(v) for v in flags[at + 1:at + 1 + count]]
    return values[0] if count == 1 else values


def check_row(transform: str, flags, row: dict) -> list[str]:
    """Problems with one CSV row; only certified rows carry claims to check."""
    if row["verdict"] != "certified":
        return []
    problems = []
    if int(row["predicted"]) != int(row["true_label"]):
        problems.append(f"certified but predicted {row['predicted']} != "
                        f"label {row['true_label']}")
    p_a = float(row["p_a_lower"])
    if not p_a > 0.5:
        problems.append(f"certified with p_a_lower {p_a!r} <= 0.5")
    radius = float(row["radius"])
    if transform in ("rotation", "scaling"):
        sqrt_m = float(row["sqrt_m"])
        if not sqrt_m < radius:
            problems.append(f"sqrt_m {sqrt_m!r} not below radius {radius!r}")
    elif transform == "blur":
        if not _flag(flags, "--alpha-max") < radius:
            problems.append(f"alpha_max outside blur radius {radius!r}")
    elif transform == "translation-reflect":
        if not _flag(flags, "--rho") < radius:
            problems.append(f"rho outside translation radius {radius!r}")
    elif transform == "brightness-contrast":
        k_lo, k_hi = _flag(flags, "--k-range", 2)
        b_lo, b_hi = _flag(flags, "--b-range", 2)
        sigma_k, sigma_b = _flag(flags, "--sigma-k"), _flag(flags, "--sigma-b")
        shift = min(bc_confidence_shift(p_a, k_lo), bc_confidence_shift(p_a, k_hi))
        conf = ConfidencePair(shift) if shift >= 0.5 else ConfidencePair(0.5, 0.5)
        for k in (k_lo, k_hi):
            for b in (b_lo, b_hi):
                if not bc_condition(k, b, sigma_k, sigma_b, conf):
                    problems.append(f"corner (k={k}, b={b}) fails bc_condition")
    return problems


def dense_max_min_distance(x: ImageTensor, grid: IntervalGrid, n_dense: int,
                           chunk: int = 1000) -> float:
    """Max over a dense parameter grid of the l2 distance to the nearest anchor."""
    many = rotate_many if grid.kind == "rotation" else scale_many
    anchors = many(x, grid.anchors()).reshape(grid.n_outer, -1)
    a_sq = np.einsum("ij,ij->i", anchors, anchors)
    params = np.linspace(grid.a, grid.b, n_dense)
    worst = 0.0
    for lo in range(0, n_dense, chunk):
        imgs = many(x, params[lo:lo + chunk]).reshape(-1, anchors.shape[1])
        d2 = (np.einsum("ij,ij->i", imgs, imgs)[:, None] + a_sq[None, :]
              - 2.0 * imgs @ anchors.T)
        worst = max(worst, float(np.sqrt(np.maximum(d2, 0.0)).min(axis=1).max()))
    return worst


def oracle(x: ImageTensor, transform: str, flags, sqrt_m: float,
           n_dense: int) -> tuple[float, list[str]]:
    """Dense-grid sampling error of one image against the reported sqrt(M)."""
    lo, hi = _flag(flags, "--interval", 2)
    if transform == "rotation":
        lo, hi = math.radians(lo), math.radians(hi)
    grid = IntervalGrid(transform, lo, hi, int(_flag(flags, "--grid-n")),
                        int(_flag(flags, "--grid-r")))
    worst = dense_max_min_distance(x, grid, n_dense)
    if worst > sqrt_m:
        return worst, [f"soundness oracle: dense max-min distance {worst!r} "
                       f"exceeds sqrt(M) {sqrt_m!r}"]
    return worst, []
