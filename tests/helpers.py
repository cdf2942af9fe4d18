"""Shared test oracles: one image's label, and dense enumeration of the
sampling error.

The enumeration deliberately avoids the bound machinery it validates;
distances are recomputed from the raw transforms.
"""

import numpy as np

from semcert.transforms import transform_spec


def one_label(classifier, x):
    """The classifier's label for one image, as a one-row batch."""
    out = classifier.classify_flat_batch(x.data.reshape(1, -1), x.shape)
    assert out.shape == (1,) and out.dtype == np.int64
    return int(out[0])


def transform_flat_batch(x, kind, params):
    return transform_spec(kind).apply_many(x, params).reshape(len(params), -1)


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
