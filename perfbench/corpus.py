"""Seeded synthetic corpus: stroke-like 1x28x28 images and a linear classifier.

Every image mixes class prototypes and is labelled with the generator's
class, not the classifier's prediction.  A level is either a weight ``w``
for ``w * P_label + (1 - w) * P_other`` (with a seeded jitter of 0.02) or
``"tie"``: a three-prototype mix on which the three class scores are
equal, so a smoothed classifier splits its votes, abstains, and drives
an anchor through its whole sample budget.  The caller passes the same
ladder of levels for every seed, so each seed yields the same spread of
margins: images that certify, images the classifier gets wrong, and
ties.

The classifier is a nearest-prototype rule written as a
``LinearClassifier``: class rows are zero-sum templates (so uniform
brightness shifts never change the argmax), with a seeded perturbation.
Nothing is downloaded.
"""

from __future__ import annotations

import struct

import numpy as np

SIDE = 28
CLASSES = 10
_BRUSH_SIGMA = 1.0
_STROKE_SAMPLES = 64


def _render_strokes(rng: np.random.Generator) -> np.ndarray:
    """One prototype: 2-3 quadratic Bezier strokes inside the rotation disk."""
    c = (SIDE - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(SIDE, dtype=np.float64),
                         np.arange(SIDE, dtype=np.float64), indexing="ij")
    img = np.zeros((SIDE, SIDE))
    t = np.linspace(0.0, 1.0, _STROKE_SAMPLES)[:, None]
    for _ in range(int(rng.integers(2, 4))):
        r = rng.uniform(2.0, 8.5, size=3)
        a = rng.uniform(0.0, 2.0 * np.pi, size=3)
        pts = np.stack([c + r * np.cos(a), c + r * np.sin(a)], axis=1)
        curve = ((1 - t) ** 2) * pts[0] + 2 * (1 - t) * t * pts[1] + t ** 2 * pts[2]
        d2 = ((ii[None] - curve[:, 0, None, None]) ** 2
              + (jj[None] - curve[:, 1, None, None]) ** 2)
        img = np.maximum(img, np.exp(-d2.min(axis=0) / (2 * _BRUSH_SIGMA ** 2)))
    return img


def _tie_mix(protos, weights, bias, label, rng):
    """Three-prototype mix, led by ``label``, on which the three scores tie.

    Tries three disjoint partner pairs in seeded order and keeps the
    first whose tie needs every weight >= 0.15 and scores no other class
    higher.
    """
    flat = protos.reshape(len(protos), -1)
    others = rng.permutation(np.delete(np.arange(CLASSES), label))
    for partners in others.reshape(3, 3)[:, :2]:
        classes = [label, int(partners[0]), int(partners[1])]
        p = flat[classes].T
        rows = np.stack([(weights[label] - weights[classes[1]]) @ p,
                         (weights[label] - weights[classes[2]]) @ p, np.ones(3)])
        rhs = np.array([bias[classes[1]] - bias[label],
                        bias[classes[2]] - bias[label], 1.0])
        mix = np.linalg.solve(rows, rhs)
        scores = weights @ (p @ mix) + bias
        if mix.min() >= 0.15 and np.delete(scores, classes).max() < scores[label]:
            return classes, mix
    return classes, np.full(3, 1.0 / 3.0)


def make_corpus(seed: int, levels):
    """Images for the mixing-weight ``levels`` (one image per entry).

    A level is a weight in (0, 1) for the labelled prototype against one
    other class, or ``"tie"`` for a three-class mix whose clean scores
    are equal.  Returns (pixels uint8 (n, 28, 28) in IDX row/col order,
    labels, classifier weights (10, 784), classifier bias (10,)).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E3C]))
    protos = np.stack([_render_strokes(rng) for _ in range(CLASSES)])
    flat = protos.reshape(CLASSES, -1)
    weights = flat - flat.mean(axis=1, keepdims=True)
    weights += rng.normal(0.0, 0.02, size=weights.shape)
    weights -= weights.mean(axis=1, keepdims=True)
    bias = -0.5 * np.einsum("ij,ij->i", weights, weights)

    n = len(levels)
    labels = rng.integers(0, CLASSES, size=n)
    imgs = np.empty((n, SIDE, SIDE))
    for i, level in enumerate(levels):
        label = int(labels[i])
        if level == "tie":
            classes, mix = _tie_mix(protos, weights, bias, label, rng)
        else:
            other = int(rng.choice(np.delete(np.arange(CLASSES), label)))
            w = float(level) + rng.uniform(-0.02, 0.02)
            classes, mix = [label, other], np.array([w, 1.0 - w])
        imgs[i] = np.tensordot(mix, protos[classes], axes=1)
    imgs += rng.normal(0.0, 0.01, size=imgs.shape)
    pixels = np.clip(np.rint(imgs * 255.0), 0, 255).astype(np.uint8)
    # IDX stores (row, col) = (y, x); semcert reads it transposed
    pixels = np.ascontiguousarray(pixels.transpose(0, 2, 1))
    return pixels, labels.astype(np.uint8), weights, bias


def write_idx_images(path, pixels: np.ndarray) -> None:
    n, rows, cols = pixels.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(pixels.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())
