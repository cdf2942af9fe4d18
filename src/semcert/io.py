"""Dataset ingestion, binary formats, and report emission.

Formats:

* IDX containers (big-endian magic 0x00000803 for images with ubyte
  pixels scaled to [0, 1], 0x00000801 for labels).  IDX stores images
  as (count, rows, cols) with rows running down the image, so pixels
  are transposed into this package's (K, W, H) width-major layout.
* SEMT1: one image tensor; ASCII header "SEMT1 K W H\\n" followed by
  K*W*H little-endian float64 values, row-major.  Bit-exact round trip.
* SEMW1: linear classifier weights; header "SEMW1 C K W H\\n" followed
  by C*(K*W*H) weight values then C bias values, little-endian float64.
* Report CSV: one row per evaluated sample.  Floats are written with
  shortest round-trip formatting ('.' decimal, no locale), so a parsed
  row equals the row written (the tests check this with their own
  reader) and two runs with the same config and seed produce
  byte-identical bodies.  Timing lives in the JSON summary, never in
  the CSV: avg/min/max seconds of each certifier call's wall time, as
  ``robust_accuracy_report`` took it.  ``predicted`` is the clean
  smoothed label (``predict``: n0 draws and a two-sided binomial test,
  -1 on abstain); it does not come from the certificate, and the
  verdict is about ``true_label``: a ``certified`` verdict always
  certifies ``true_label``, whatever ``predicted`` says.  So robust
  accuracy can exceed clean accuracy, as in a row that reads
  ``5,3,-1,certified,...``.  ``sqrt_m`` is empty when the row read no
  aliasing bound: every other transform, and a rotation/scaling row
  that ended at its first anchor's guess or first check.
"""

from __future__ import annotations

import csv
import json
import os
import stat
import struct

import numpy as np

from .classifiers import LinearClassifier
from .pipeline import ReportTable
from .tensor import ImageTensor

__all__ = [
    "FormatError",
    "read_idx_images",
    "read_idx_labels",
    "read_idx",
    "read_tensor",
    "write_tensor",
    "load_linear_classifier",
    "save_linear_classifier",
    "rows_from_table",
    "write_report_csv",
    "report_summary",
    "write_summary_json",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class FormatError(ValueError):
    """Malformed binary input."""


def _read_exact(f, n: int, what: str) -> bytes:
    """The next n bytes of f.  A regular file's size is checked first,
    so a header that declares more data than the file holds fails before
    anything is allocated; a pipe is read and then measured."""
    st = os.fstat(f.fileno())
    found = st.st_size - f.tell() if stat.S_ISREG(st.st_mode) else n
    if found >= n:
        data = f.read(n)
        found = len(data)
    if found != n:
        raise FormatError(f"truncated file: expected {n} bytes of {what}, found {found}")
    return data


def _read_be32(f, what: str) -> int:
    return struct.unpack(">I", _read_exact(f, 4, what))[0]


def read_idx_images(path) -> list[ImageTensor]:
    """Parse an IDX image container into [0, 1]-scaled single-channel tensors."""
    with open(path, "rb") as f:
        magic = _read_be32(f, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(
                f"bad image magic 0x{magic:08x} at offset 0 "
                f"(expected 0x{IDX_IMAGE_MAGIC:08x})")
        count = _read_be32(f, "image count")
        rows = _read_be32(f, "row count")
        cols = _read_be32(f, "column count")
        if rows < 1 or cols < 1:
            raise FormatError(f"image size {rows} x {cols} has no pixels")
        total = count * rows * cols
        raw = _read_exact(f, total, "pixel data")
        extra = f.read(1)
        if extra:
            raise FormatError(f"trailing bytes at offset {16 + total}")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    scaled = pixels.astype(np.float64) / 255.0
    # IDX is (row, col) = (y, x); this package stores (x, y)
    return [ImageTensor(img.T[None, :, :]) for img in scaled]


def read_idx_labels(path) -> np.ndarray:
    """Parse an IDX label container into an int array."""
    with open(path, "rb") as f:
        magic = _read_be32(f, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(
                f"bad label magic 0x{magic:08x} at offset 0 "
                f"(expected 0x{IDX_LABEL_MAGIC:08x})")
        count = _read_be32(f, "label count")
        raw = _read_exact(f, count, "label data")
        if f.read(1):
            raise FormatError(f"trailing bytes at offset {8 + count}")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def read_idx(images_path, labels_path=None):
    """Images plus, when given a companion file, their labels."""
    images = read_idx_images(images_path)
    if labels_path is None:
        return images, None
    labels = read_idx_labels(labels_path)
    if len(labels) != len(images):
        raise FormatError(
            f"label count {len(labels)} does not match image count {len(images)}")
    return images, labels


# ---------------------------------------------------------------------------
# SEMT1 / SEMW1

def _read_header(f, tag: str, n_fields: int):
    line = f.readline(128)
    parts = line.decode("ascii", errors="replace").split()
    if len(parts) != n_fields + 1 or parts[0] != tag:
        raise FormatError(f"bad header {line!r}: expected '{tag}' with "
                          f"{n_fields} dimensions")
    try:
        dims = [int(p) for p in parts[1:]]
    except ValueError:
        raise FormatError(f"non-integer dimension in header {line!r}") from None
    if any(d < 1 for d in dims):
        raise FormatError(f"non-positive dimension in header {line!r}")
    return dims


def _read_f64(f, count: int, what: str) -> np.ndarray:
    return np.frombuffer(_read_exact(f, 8 * count, f"{what} payload"), dtype="<f8").copy()


def write_tensor(x: ImageTensor, path) -> None:
    with open(path, "wb") as f:
        f.write(f"SEMT1 {x.channels} {x.width} {x.height}\n".encode("ascii"))
        f.write(x.data.astype("<f8").tobytes())


def read_tensor(path) -> ImageTensor:
    with open(path, "rb") as f:
        k, w, h = _read_header(f, "SEMT1", 3)
        data = _read_f64(f, k * w * h, "tensor")
        if f.read(1):
            raise FormatError("trailing bytes after tensor payload")
    if not np.all(np.isfinite(data)):
        raise FormatError("tensor payload contains non-finite values")
    return ImageTensor(data.reshape(k, w, h))


def save_linear_classifier(c: LinearClassifier, path) -> None:
    k, w, h = c.shape
    with open(path, "wb") as f:
        f.write(f"SEMW1 {c.num_classes} {k} {w} {h}\n".encode("ascii"))
        f.write(c.weights.astype("<f8").tobytes())
        f.write(c.bias.astype("<f8").tobytes())


def load_linear_classifier(path) -> LinearClassifier:
    with open(path, "rb") as f:
        n_classes, k, w, h = _read_header(f, "SEMW1", 4)
        d = k * w * h
        weights = _read_f64(f, n_classes * d, "weight").reshape(n_classes, d)
        bias = _read_f64(f, n_classes, "bias")
        if f.read(1):
            raise FormatError("trailing bytes after classifier payload")
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
        raise FormatError("classifier weights contain non-finite values")
    return LinearClassifier(weights, bias, (k, w, h))


# ---------------------------------------------------------------------------
# Reports

_CSV_FIELDS = ("index", "true_label", "predicted", "verdict", "p_a_lower",
               "radius", "sqrt_m", "samples_used")


def rows_from_table(table: ReportTable) -> list[tuple]:
    """One tuple per sample, its values in ``_CSV_FIELDS`` order."""
    return [(s.index, s.true_label, s.predicted, s.result.verdict, s.result.p_a_lower,
             s.result.region_bound,
             s.result.aliasing.sqrt_m if s.result.aliasing is not None else None,
             s.result.samples_used)
            for s in table.samples]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_report_csv(rows: list[tuple], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_FIELDS)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def report_summary(table: ReportTable, config_echo: dict, started_at: str) -> dict:
    """JSON-ready run summary: accuracies, verdict counts, the number of
    rotation/scaling rows that read their grid's refined aliasing bound,
    and ``timing``: avg/min/max of each certifier call's wall time, as
    ``robust_accuracy_report`` took it."""
    verdicts: dict[str, int] = {}
    for s in table.samples:
        verdicts[s.result.verdict] = verdicts.get(s.result.verdict, 0) + 1
    elapsed = [s.elapsed for s in table.samples]
    timing = {"avg_s": sum(elapsed) / len(elapsed),
              "min_s": min(elapsed), "max_s": max(elapsed)}
    return {
        "started_at": started_at,
        "config": config_echo,
        "n_samples": len(table.samples),
        "clean_accuracy": table.clean_accuracy,
        "robust_accuracy": table.robust_accuracy,
        "verdicts": verdicts,
        "refined": sum(s.result.refined for s in table.samples),
        "timing": timing,
    }


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
