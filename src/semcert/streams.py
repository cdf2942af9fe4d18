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
is generated once per request whatever the offset into its block.  The
uniforms are made and transformed a chunk of draws at a time, through
buffers allocated once per request, straight into the output (which the
caller may pass, to reuse one buffer across requests): a request holds
its output and about one chunk more.
"""

from __future__ import annotations

import numpy as np

from .radii import DistributionSpec

__all__ = ["DRAWS_PER_BLOCK", "uniforms_per_draw", "largest_draw", "draw_params"]

DRAWS_PER_BLOCK = 1024


def uniforms_per_draw(noise: DistributionSpec) -> int:
    """Fixed number of uniform variates one parameter draw consumes."""
    if noise.family in ("gaussian", "folded_gaussian"):
        return 2 * ((noise.dim + 1) // 2)
    return noise.dim


def _block_generator(seed: int, block: int, skip: int) -> np.random.Generator:
    """One block's stream, positioned at its uniform ``skip``.

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
    return gen


def _uniform_chunks(seed: int, start: int, count: int, buf: np.ndarray):
    """Uniforms for draws [start, start+count), ``len(buf)`` draws at a time.

    Yields (i, u): the (n, per_draw) uniforms of draws [start + i,
    start + i + n), written into the leading rows of ``buf``, which the
    next chunk overwrites.  A chunk may span blocks and a block chunks;
    each block's generator is made once.
    """
    per_draw = buf.shape[1]
    gen, left = None, 0  # the current block's generator, and its draws not yet read
    for i in range(0, count, len(buf)):
        u = buf[:min(len(buf), count - i)]
        j = 0
        while j < len(u):
            if not left:
                block, lo = divmod(start + i + j, DRAWS_PER_BLOCK)
                gen, left = _block_generator(seed, block, lo * per_draw), DRAWS_PER_BLOCK - lo
            take = min(left, len(u) - j)
            gen.random(out=u[j:j + take])
            j += take
            left -= take
        yield i, u


def _fill_draws(noise: DistributionSpec, u: np.ndarray, out: np.ndarray,
                work: np.ndarray | None) -> None:
    """Write the draws of uniforms ``u``, one row per draw, into ``out``.

    Gaussians take a cosine-sine pair transform of column pairs: the
    first half of a row's uniforms gives the radii, the second the
    angles (``work``, three (n, pairs) planes, holds them).
    """
    family = noise.family
    if family in ("gaussian", "folded_gaussian"):
        pairs, half = u.shape[1] // 2, noise.dim // 2
        radius, theta, trig = work[:, :len(u)]
        np.negative(u[:, :pairs], out=radius)
        radius *= 1.0 - 1e-16
        np.log1p(radius, out=radius)
        np.multiply(-2.0, radius, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(2.0 * np.pi, u[:, pairs:], out=theta)
        np.cos(theta, out=trig)
        np.multiply(radius, trig, out=out[:, 0::2])
        np.sin(theta, out=trig)
        np.multiply(radius[:, :half], trig[:, :half], out=out[:, 1::2])
        if family == "gaussian":
            out *= noise.sigmas()[None, :]
        else:
            np.abs(out, out=out)
            out *= noise.params[0]
    elif family == "exponential":
        np.clip(u, 0.0, 1.0 - 1e-16, out=out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        out /= noise.params[0]
    else:  # uniform
        a, b = noise.params
        np.multiply(b - a, u, out=out)
        out += a


def largest_draw(noise: DistributionSpec) -> float:
    """The largest draw of 1-d ``noise``: ``_fill_draws`` logs uniforms up to 1 - 1e-16."""
    tail = -float(np.log1p(-(1.0 - 1e-16)))
    if noise.family == "exponential":
        return tail / noise.params[0]
    return noise.params[-1] * (1.0 if noise.family == "uniform" else float(np.sqrt(2.0 * tail)))


# Uniforms made and transformed at once by ``draw_params``: 256 KB.
_CHUNK_UNIFORMS = 1 << 15


def draw_params(noise: DistributionSpec, seed: int, start: int, count: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Parameters for draws [start, start+count) as a (count, dim) array.

    The draws are written into ``out`` when given, and are made about
    ``_CHUNK_UNIFORMS`` uniforms at a time through buffers allocated once
    per call, so a request holds little beyond its output.
    """
    if noise.family not in ("gaussian", "folded_gaussian", "exponential", "uniform"):
        raise ValueError(f"no sampler for noise family {noise.family!r}")
    if out is None:
        out = np.empty((count, noise.dim))
    elif out.shape != (count, noise.dim):
        raise ValueError(f"draws need a ({count}, {noise.dim}) output, got {out.shape}")
    per_draw = uniforms_per_draw(noise)
    rows = max(1, min(count, _CHUNK_UNIFORMS // per_draw))
    buf = np.empty((rows, per_draw))
    work = (np.empty((3, rows, per_draw // 2))
            if noise.family in ("gaussian", "folded_gaussian") else None)
    for i, u in _uniform_chunks(seed, start, count, buf):
        _fill_draws(noise, u, out[i:i + len(u)], work)
    return out
