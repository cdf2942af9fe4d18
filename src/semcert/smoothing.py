"""Monte-Carlo smoothed-classifier protocol: sample, predict, certify.

A smoothed classifier predicts the class the base classifier most often
returns when the input is perturbed by a random transform parameter.
``predict`` backs the prediction with an exact two-sided binomial test
and abstains when the top two counts are statistically too close;
``certify`` lower-bounds the top-class probability with a one-sided
Clopper-Pearson bound (abstaining at p_a <= 1/2), from which the radius
modules derive certified parameter sets; ``progressive_certify`` grows
the sample in batches and stops as soon as the running radius clears a
target, splitting the error rate across the maximum number of checks
(union bound) so the overall guarantee stays 1 - alpha.  It also stops
early, with a failed outcome, once Hoeffding's one-sided bound shows the
top-class probability below what the target needs; a failed outcome
claims nothing, and one whose true probability clears the target is
stopped so with probability at most alpha.

All sampling is draw-indexed through :mod:`semcert.streams`: identical
(seed, query, input) produce bitwise-identical counts, and all anchors
of a rotation/scaling row read their draws from one ``RowStream``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .radii import DistributionSpec
from .statfn import (ConfidenceParams, binom_two_sided_p, clopper_pearson_exceeds,
                     clopper_pearson_lower, std_normal_cdf, std_normal_quantile)
from .streams import draw_params
from .tensor import ImageTensor
from .transforms import _BLOCK_IMAGES, Transform

__all__ = [
    "ABSTAIN",
    "BaseClassifier",
    "SmoothedQuery",
    "CountVector",
    "RowStream",
    "sample_counts",
    "predict",
    "certify",
    "progressive_certify",
    "CertifyOutcome",
    "ProgressiveOutcome",
]

# returned instead of a class label when the statistical test is inconclusive
ABSTAIN = -1


class BaseClassifier:
    """Deterministic classifier interface: same input, same label.

    The smoothed classifier needs only labels for batches of transformed
    inputs, so a subclass implements ``classify_flat_batch`` and, if it
    is affine, ``affine``.
    """

    num_classes: int = 2

    def classify_flat_batch(self, flats: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
        """Labels for a (n, K*W*H) batch of flattened images of ``shape``."""
        raise NotImplementedError

    def affine(self, shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray] | None:
        """(W, b) when the label of a flattened image f of ``shape`` is
        argmax(f @ W.T + b), ties to the smaller label; None otherwise.

        Given, it lets ``_label_params`` read transforms linear in the
        image as class scores without building their images.
        """
        return None


@dataclass(frozen=True)
class SmoothedQuery:
    """Everything needed to evaluate one smoothed classifier."""

    classifier: BaseClassifier
    transform: Transform
    noise: DistributionSpec
    conf: ConfidenceParams
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.noise.dim != self.transform.param_dim:
            raise ValueError(
                f"noise dimension {self.noise.dim} != transform parameter "
                f"dimension {self.transform.param_dim}")
        noise = self.noise
        if noise.family == "laplace":
            raise ValueError("laplace noise has a radius (radius-table) but no sampler")
        if self.transform.kind == "gaussian_blur" and (
                noise.family == "gaussian"
                or noise.family == "uniform" and noise.params[0] < 0.0):
            raise ValueError(f"blur takes parameters >= 0, but {noise.family} "
                             f"noise {noise.params} draws negative ones")


@dataclass(frozen=True)
class CountVector:
    """Per-class hit counts from n noisy evaluations."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def top_two(self) -> tuple[int, int]:
        """Indices of the largest and second-largest counts (ties to the
        smaller label)."""
        order = np.argsort(-self.counts, kind="stable")
        return int(order[0]), int(order[1])


def _label_params(classifier: BaseClassifier, transform: Transform, x: ImageTensor,
                  params: np.ndarray) -> np.ndarray:
    """Label of ``classifier`` on ``x`` transformed at each row of ``params``.

    A transform linear in the image builds its basis once per call
    (``Transform.linear_form``).  If the classifier is affine as well
    (``BaseClassifier.affine``), the form is projected to class scores,
    argmax(coefs @ (basis @ W.T) + (offset @ W.T + b)): a parameter then
    costs C columns where its image costs d pixels, and no image is
    built.  A translation labels each distinct integer shift once
    (``Transform.integer_shifts``; shifts repeat heavily), keyed as one
    int64, m1 (2H + 1) + m2, distinct because |m2| <= H.  Parameters are
    taken ``_BLOCK_IMAGES`` at a time, so memory stays flat in their
    number.
    """
    params = transform.check_params(params)
    inverse = None
    if (shifts := transform.integer_shifts(x, params)) is not None:
        key = shifts[0] * (2 * x.height + 1) + shifts[1]
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        params = params[first]
    form = transform.linear_form(x)
    affine = None if form is None else classifier.affine(x.shape)
    if affine is not None:
        form = form.project(*affine)
    labels = np.empty(len(params), dtype=np.int64)
    for lo in range(0, len(params), _BLOCK_IMAGES):
        block = params[lo:lo + _BLOCK_IMAGES]
        hi = lo + len(block)
        if affine is None:
            flats = (transform.apply_many(x, block) if form is None else form.apply(block))
            labels[lo:hi] = classifier.classify_flat_batch(flats.reshape(len(block), -1),
                                                           x.shape)
        else:
            labels[lo:hi] = np.argmax(form.apply(block), axis=1)
    return labels if inverse is None else labels[inverse]


class RowStream:
    """One additive-noise query's stream, read by every anchor of a row.

    It fixes the row's protocol for ``progressive_certify``: the
    isotropic gaussian ``sigma``, the check size ``batch``, the per-check
    error rate ``alpha_check`` = alpha / ceil(n_samples / batch), and
    ``bound``, Clopper-Pearson bounds at ``alpha_check`` memoised by
    (hits, used).  Building it draws nothing.

    All anchors read the same (offset, n) slices: the n0 guess draws,
    then their checks.  An affine classifier labels argmax(E @ W.T +
    x @ W.T + b), and E @ W.T does not depend on the image: each slice is
    drawn once per row into one draw buffer that the whole row reuses
    (n0 or ``batch`` rows, whichever is more, at most ``_BLOCK_IMAGES``),
    projected, and only its C class scores per draw are kept.  Other
    classifiers keep the raw prefix (the guess draws and a first check of
    ``batch``) and draw later checks per read.  The last image read is
    kept with its projected form, or its prefix labels, so reading it
    again reuses them.
    """

    def __init__(self, q: SmoothedQuery, batch: int):
        if q.transform.kind != "additive_pixel":
            raise ValueError(f"a row stream needs an additive_pixel query, "
                             f"got {q.transform.kind!r}")
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        self.q = q
        self.sigma = _isotropic_sigma(q.noise)
        self.batch = batch
        self.alpha_check = q.conf.alpha / math.ceil(q.conf.n_samples / batch)
        alpha_check = self.alpha_check  # the memo holds alpha, not the stream
        self.bound = functools.cache(lambda hits, used:
                                     clopper_pearson_lower(hits, used, alpha_check))
        self._clears: dict[tuple[int, int, float], bool] = {}
        check = min(batch, q.conf.n_samples)
        self._prefix_len = q.conf.n0_samples + check
        self._prefix = None
        self._draw_rows = min(max(q.conf.n0_samples, check), _BLOCK_IMAGES)
        self._draws = None
        self._scores: dict[tuple[int, int], np.ndarray] = {}
        self._image = self._form = None
        self._labels: dict[tuple[int, int], np.ndarray] = {}

    def upper(self, hits: int, used: int) -> float:
        """Hoeffding's one-sided upper bound on hits/used at ``alpha_check``."""
        return hits / used + math.sqrt(math.log(1.0 / self.alpha_check) / (2.0 * used))

    def clears(self, hits: int, used: int, target: float) -> bool:
        """Whether ``bound(hits, used)`` certifies a radius above ``target``,
        memoised: decided by ``clopper_pearson_exceeds`` at the floor, and
        bisected for the radius test only within its margin."""
        key = hits, used, target
        if key not in self._clears:
            clears = clopper_pearson_exceeds(hits, used, self.alpha_check,
                                             _certify_floor(target, self.sigma), 2.0 ** -49)
            if clears is None:
                p = self.bound(hits, used)
                clears = p > 0.5 and self.sigma * std_normal_quantile(p) > target
            self._clears[key] = clears
        return self._clears[key]

    def drop_draws(self) -> None:
        """Free the draw buffer; the next slice drawn allocates it again."""
        self._draws = None

    def labels(self, x: ImageTensor, offset: int, n: int) -> np.ndarray:
        """Base-classifier labels of ``x`` plus draws [offset, offset + n)."""
        q = self.q
        if self._image is not x:
            affine = q.classifier.affine(x.shape)
            self._image, self._labels = x, {}
            self._form = None if affine is None else q.transform.linear_form(x).project(*affine)
        form = self._form
        if form is None:
            if self._prefix is None:  # the first read is the guess, inside the prefix
                self._prefix = draw_params(q.noise, q.seed, 0, self._prefix_len)
            if offset + n > self._prefix_len:
                return _label_params(q.classifier, q.transform, x,
                                     draw_params(q.noise, q.seed, offset, n))
            if (offset, n) not in self._labels:
                self._labels[offset, n] = _label_params(q.classifier, q.transform, x,
                                                        self._prefix[offset:offset + n])
            return self._labels[offset, n]
        if (offset, n) not in self._scores:
            if self._draws is None:
                self._draws = np.empty((self._draw_rows, q.noise.dim))
            parts = []
            for lo in range(0, n, len(self._draws)):
                draws = self._draws[:min(len(self._draws), n - lo)]
                draw_params(q.noise, q.seed, offset + lo, len(draws), out=draws)
                parts.append(form.product(draws))
            self._scores[offset, n] = np.concatenate(parts)
        return np.argmax(self._scores[offset, n] + form.offset, axis=1)


def sample_counts(q: SmoothedQuery, x: ImageTensor, n: int, draw_offset: int = 0,
                  stream: RowStream | None = None) -> CountVector:
    """Tally base-classifier labels over n noisy transform draws.

    ``draw_offset`` positions the draws in the query's global stream, so
    selection and estimation samples never overlap.  ``stream``, when
    given, is ``q``'s ``RowStream`` and serves the draws; otherwise
    ``_label_params`` labels them, each distinct translation shift once.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if stream is not None:
        if stream.q is not q:
            raise ValueError("the stream serves another query")
        labels = stream.labels(x, draw_offset, n)
    else:
        labels = _label_params(q.classifier, q.transform, x,
                               draw_params(q.noise, q.seed, draw_offset, n))
    counts = np.bincount(labels, minlength=q.classifier.num_classes)
    return CountVector(counts)


def predict(q: SmoothedQuery, x: ImageTensor) -> int:
    """Smoothed prediction, or ABSTAIN when the top two classes are too close.

    Uses n0 samples and the exact two-sided binomial test at the
    fair-coin null on the top-versus-runner-up counts.
    """
    counts = sample_counts(q, x, q.conf.n0_samples)
    top, runner = counts.top_two()
    n_top = int(counts.counts[top])
    n_runner = int(counts.counts[runner])
    if binom_two_sided_p(n_top, n_top + n_runner) <= q.conf.alpha:
        return top
    return ABSTAIN


@dataclass(frozen=True)
class CertifyOutcome:
    """Result of a single-shot certification query."""

    label: int
    p_a_lower: float
    samples_used: int

    @property
    def abstained(self) -> bool:
        return self.label == ABSTAIN


def certify(q: SmoothedQuery, x: ImageTensor) -> CertifyOutcome:
    """Guess the top class with n0 samples, then lower-bound its probability.

    Returns the guessed label with a one-sided Clopper-Pearson lower
    bound from n fresh samples, or abstains when the bound is <= 1/2.
    """
    n0, n = q.conf.n0_samples, q.conf.n_samples
    guess, _ = sample_counts(q, x, n0).top_two()
    counts = sample_counts(q, x, n, draw_offset=n0)
    p_lower = clopper_pearson_lower(int(counts.counts[guess]), n, q.conf.alpha)
    if p_lower <= 0.5:
        return CertifyOutcome(ABSTAIN, p_lower, n0 + n)
    return CertifyOutcome(guess, p_lower, n0 + n)


@dataclass(frozen=True)
class ProgressiveOutcome:
    """Result of batched certification against a target radius.

    ``hits`` of ``used`` samples carried the label at the check the run
    stopped at.  ``p_a_lower``, their Clopper-Pearson bound, comes from
    the row's memo (bisected on first access), and ``radius`` is sigma
    Phi_inv(p_a_lower).
    """

    certified: bool
    label: int
    hits: int
    used: int
    samples_used: int
    checks_used: int
    bound: Callable[[int, int], float] = field(repr=False, compare=False)
    sigma: float = field(repr=False)

    @property
    def p_a_lower(self) -> float:
        return self.bound(self.hits, self.used)

    @property
    def radius(self) -> float:
        return self.sigma * std_normal_quantile(self.p_a_lower)


def _isotropic_sigma(noise: DistributionSpec) -> float:
    """The common scale of isotropic gaussian noise; ValueError otherwise."""
    if noise.family != "gaussian":
        raise ValueError(f"need isotropic gaussian noise, got {noise.family}")
    sig = noise.sigmas()
    if not np.all(sig == sig[0]) or sig[0] <= 0.0:
        raise ValueError("need isotropic gaussian noise with sigma > 0")
    return float(sig[0])


def _certify_floor(target_radius: float, sigma: float) -> float:
    """Point estimate hits/used at or below which a check cannot certify.

    Certifying needs p_a_lower > 1/2 and sigma * Phi_inv(p_a_lower) >
    target, i.e. p_a_lower > Phi(target / sigma).  At alpha < 1/2 the
    Clopper-Pearson lower bound lies strictly below hits/used (the
    median of Binomial(used, hits/used) is hits), so a check whose
    hits/used is at most this floor fails.

    The radius test holds for every p > floor + 2^-49 and fails for
    every p <= floor - 2^-49: with u = 2^-53, erfc within 4 ulps and
    Phi_inv within 16u relative (5.2u measured), the floor lies within 9u
    of max(1/2, Phi(target / sigma)), and sigma Phi_inv(p) within 18u
    relative of its value, which moves the p where it meets the target
    by at most 19u z phi(z) <= 5u.
    """
    return max(0.5, std_normal_cdf(target_radius / sigma))


def progressive_certify(stream: RowStream, x: ImageTensor, target_radius: float,
                        first_check_only: bool = False) -> ProgressiveOutcome:
    """Accumulate samples in batches until the certified radius beats a target.

    ``stream`` fixes the query, sigma, ``batch`` and per-check error rate
    alpha_check = alpha / ceil(n_samples / batch).  After each batch the
    radius is recomputed from the cumulative counts at alpha_check;
    splitting alpha across the maximum number of checks keeps the
    overall guarantee at 1 - alpha by the union bound.  Gives up after
    the query's full sample budget, or earlier once no check can certify.

    A check certifies when ``stream.clears`` it, mostly from one tail sum
    without a bisection.  A check whose hits/used is at or below
    ``_certify_floor`` cannot certify and is not asked, except the last
    (with two or more checks alpha_check is below 1/2, as the floor
    needs); it stops the sampling (futility) when Hoeffding's bound at
    alpha_check (``stream.upper``) is at or below the floor too.  The
    outcome keeps the counts it stopped at; their bound is bisected when
    read.

    The futility stop cannot make a certificate unsound: a failed
    outcome claims nothing, and no certifying check is skipped.  Its
    cost in power is bounded too.  Hoeffding's bound never lies below
    the Clopper-Pearson upper bound at the same alpha (the binomial
    lower tail at p is at most exp(-2 used (p - hits/used)^2)), so when
    the true top-class probability exceeds the floor a check stops
    wrongly with probability at most alpha_check, and all checks
    together with probability at most alpha.  The test costs O(1).

    ``first_check_only`` stops after the first check, still at
    alpha_check, so the check it reads is one of the checks a full run
    reads.  A certified outcome is then exactly the full run's; a failed
    one carries that check's counts.
    """
    if target_radius < 0.0:
        raise ValueError("target radius must be >= 0")
    q, n = stream.q, stream.q.conf.n_samples
    p_floor = _certify_floor(target_radius, stream.sigma)
    n0 = q.conf.n0_samples
    guess, _ = sample_counts(q, x, n0, stream=stream).top_two()

    hits = 0
    used = 0
    checks = 0
    while used < n:
        m = min(stream.batch, n - used)
        counts = sample_counts(q, x, m, draw_offset=n0 + used, stream=stream)
        hits += int(counts.counts[guess])
        used += m
        checks += 1
        certified = ((hits / used > p_floor or used == n)
                     and stream.clears(hits, used, target_radius))
        # Hoeffding's bound lies above hits/used, so it stops no check above the floor
        if certified or first_check_only or stream.upper(hits, used) <= p_floor:
            break
    return ProgressiveOutcome(certified, guess, hits, used, n0 + used, checks,
                              stream.bound, stream.sigma)
