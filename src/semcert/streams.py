"""Counter-based, draw-indexed noise streams.

Every Monte-Carlo draw has a global index, and the noise for draw i is a
pure function of (seed, i).  Uniform variates come from numpy's Philox
generator keyed by the seed with the block number in the counter, in
fixed-size blocks of draws; distribution sampling is built explicitly on
those uniforms (inverse CDF for exponential / uniform, a cosine-sine
pair transform for gaussians, absolute value for the folded gaussian)
so each draw consumes a fixed uniform budget, and any slice of the
stream can be drawn alone, by index: each progressive check past the
prefix is drawn at its own offset.

A request is served block by block, and each block is entered by
advancing the Philox counter to the first wanted uniform, so a uniform
is generated once per request whatever the offset into its block.
"""

from __future__ import annotations

import numpy as np

from .radii import DistributionSpec

__all__ = ["DRAWS_PER_BLOCK", "uniforms_per_draw", "draw_params"]

DRAWS_PER_BLOCK = 1024


def uniforms_per_draw(noise: DistributionSpec) -> int:
    """Fixed number of uniform variates one parameter draw consumes."""
    if noise.family in ("gaussian", "folded_gaussian"):
        return 2 * ((noise.dim + 1) // 2)
    return noise.dim


def _block_uniforms(seed: int, block: int, skip: int, count: int) -> np.ndarray:
    """Uniforms [skip, skip + count) of one block's stream.

    Philox yields four 64-bit words per counter step and each double
    takes one word, so advancing the counter by skip // 4 and dropping
    skip % 4 doubles lands on uniform ``skip`` without generating the
    ones before it.
    """
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[0, 0, block, 0])
    gen = np.random.Generator(bitgen)
    if skip:  # only a request's first block starts mid-block
        bitgen.advance(skip // 4)
        gen.random(skip % 4)
    return gen.random(count)


def _uniform_matrix(seed: int, start: int, count: int, per_draw: int) -> np.ndarray:
    """Uniforms for draws [start, start+count), shaped (count, per_draw)."""
    out = np.empty((count, per_draw))
    i = start
    while i < start + count:
        block, lo = divmod(i, DRAWS_PER_BLOCK)
        take = min(start + count - i, DRAWS_PER_BLOCK - lo)
        u = _block_uniforms(seed, block, lo * per_draw, take * per_draw)
        out[i - start:i - start + take] = u.reshape(take, per_draw)
        i += take
    return out


def _standard_normals(u: np.ndarray, dim: int) -> np.ndarray:
    """Pair transform of uniforms to standard normals, column pairs."""
    n = u.shape[0]
    pairs = u.shape[1] // 2
    r = np.sqrt(-2.0 * np.log1p(-u[:, :pairs] * (1.0 - 1e-16)))
    theta = 2.0 * np.pi * u[:, pairs:]
    z = np.empty((n, 2 * pairs))
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z[:, :dim]


def draw_params(noise: DistributionSpec, seed: int, start: int, count: int) -> np.ndarray:
    """Parameters for draws [start, start+count) as a (count, dim) array."""
    per_draw = uniforms_per_draw(noise)
    u = _uniform_matrix(seed, start, count, per_draw)
    if noise.family == "gaussian":
        return _standard_normals(u, noise.dim) * noise.sigmas()[None, :]
    if noise.family == "folded_gaussian":
        return np.abs(_standard_normals(u, noise.dim)) * noise.params[0]
    if noise.family == "exponential":
        rate = noise.params[0]
        return -np.log1p(-np.clip(u, 0.0, 1.0 - 1e-16)) / rate
    if noise.family == "uniform":
        a, b = noise.params
        return a + (b - a) * u
    raise ValueError(f"no sampler for noise family {noise.family!r}")
