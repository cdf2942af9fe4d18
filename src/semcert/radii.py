"""Closed-form robust radii per smoothing noise family.

Given a (p_A, p_B)-confident smoothed classifier, each supported noise
family yields an explicit bound on how far the transform parameter may
be shifted before the argmax can change:

* gaussian (per-dimension scales sigma_i): the certified set is the
  ellipsoid sqrt(sum_i (alpha_i / sigma_i)^2) < (Phi_inv(p_A) -
  Phi_inv(p_B)) / 2; the returned value is that weighted-norm bound.
* exponential (iid per dimension, rate lambda): ||alpha||_1 <
  -log(1 - p_A + p_B) / lambda, nonnegative shifts only.
* uniform on [a, b] (one dimension): |alpha| < (b - a)(p_A - p_B)/2.
* laplace (scale b): -b log(1 - p_A + p_B) in the interior case
  p_A > 1/2 > p_B, and -b log(4 p_B (1 - p_A)) on the p = 1/2
  boundaries; no radius when p_A < 1/2 or p_B > 1/2.
* folded gaussian (|N(0, sigma^2)|, nonnegative shifts):
  sigma (Phi_inv((1 + min(p_A, 1 - p_B))/2) - Phi_inv(3/4)).

``closed_form_radius`` returns that bound as a float; which norm it
bounds follows from the family.  p_A = 1 produces an infinite radius,
which propagates; certification pipelines clamp to the declared
parameter region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .statfn import std_normal_cdf, std_normal_quantile

__all__ = [
    "DistributionSpec",
    "ConfidencePair",
    "closed_form_radius",
    "bc_confidence_shift",
    "bc_condition",
    "NOISE_FAMILIES",
]

NOISE_FAMILIES = ("gaussian", "exponential", "uniform", "laplace", "folded_gaussian")


@dataclass(frozen=True)
class DistributionSpec:
    """A smoothing noise distribution: family, scale parameters, dimension.

    ``params`` by family: gaussian -> per-dimension sigmas (zeros allowed,
    a zero-variance dimension is deterministically 0); exponential ->
    (rate,); uniform -> (a, b); laplace -> (scale,); folded_gaussian ->
    (sigma,).
    """

    family: str
    params: tuple
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.dim < 1:
            raise ValueError("noise dimension must be >= 1")
        p = self.params
        if not all(math.isfinite(v) for v in p):
            raise ValueError(f"{self.family} noise parameters must be finite, got {p}")
        if self.family == "gaussian":
            if np.any(self.sigmas() < 0.0):
                raise ValueError("gaussian sigmas must be >= 0")
        elif self.family == "uniform":
            if len(p) != 2 or not p[0] < p[1]:
                raise ValueError("uniform noise needs an interval (a, b) with a < b")
        else:
            if len(p) != 1 or p[0] <= 0.0:
                raise ValueError(f"{self.family} noise needs one positive scale")

    def sigmas(self) -> np.ndarray:
        """Per-dimension gaussian scales, broadcast to ``dim``."""
        if self.family != "gaussian":
            raise ValueError("sigmas() only applies to the gaussian family")
        p = np.asarray(self.params, dtype=np.float64)
        if p.size == 1:
            return np.full(self.dim, p[0])
        if p.size != self.dim:
            raise ValueError("gaussian scale vector length must be 1 or dim")
        return p


@dataclass(frozen=True)
class ConfidencePair:
    """Statistically valid (p_A, p_B) bounds at a point: p_B <= p_A."""

    p_a: float
    p_b: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.p_b is None:
            # two-class reduction: only p_A estimated
            object.__setattr__(self, "p_b", 1.0 - self.p_a)
        if not 0.0 <= self.p_a <= 1.0 or not 0.0 <= self.p_b <= 1.0:
            raise ValueError(f"probabilities out of range: ({self.p_a}, {self.p_b})")
        if self.p_b > self.p_a:
            raise ValueError(f"need p_b <= p_a, got ({self.p_a}, {self.p_b})")


def _quantile_gap(conf: ConfidencePair) -> float:
    """(Phi_inv(p_A) - Phi_inv(p_B)) / 2, with infinities propagating."""
    qa = std_normal_quantile(conf.p_a)
    qb = std_normal_quantile(conf.p_b)
    if math.isinf(qa) and math.isinf(qb) and qa == qb:
        return 0.0
    return 0.5 * (qa - qb)


def closed_form_radius(dist: DistributionSpec, conf: ConfidencePair) -> float:
    """Largest certified perturbation bound for ``dist`` at confidence ``conf``.

    Returns 0 whenever the family's condition cannot hold for any
    nonzero perturbation (e.g. laplace with p_A < 1/2).
    """
    pa, pb = conf.p_a, conf.p_b
    if dist.family == "gaussian":
        value = max(0.0, _quantile_gap(conf))
    elif dist.family == "exponential":
        diff = 1.0 - pa + pb
        value = math.inf if diff <= 0.0 else max(0.0, -math.log(diff) / dist.params[0])
    elif dist.family == "uniform":
        if dist.dim != 1:
            raise ValueError("uniform noise radius is only defined in one dimension")
        a, b = dist.params
        value = max(0.0, (b - a) * (pa - pb) / 2.0)
    elif dist.family == "laplace":
        scale = dist.params[0]
        if pa < 0.5 or pb > 0.5 or (pa == 0.5 and pb == 0.5):
            value = 0.0
        elif pb == 0.5 or pa == 0.5:
            inner = 4.0 * pb * (1.0 - pa)
            value = math.inf if inner <= 0.0 else max(0.0, -scale * math.log(inner))
        else:
            diff = 1.0 - pa + pb
            value = math.inf if diff <= 0.0 else max(0.0, -scale * math.log(diff))
    elif dist.family == "folded_gaussian":
        top = std_normal_quantile((1.0 + min(pa, 1.0 - pb)) / 2.0)
        value = max(0.0, dist.params[0] * (top - std_normal_quantile(0.75)))
    else:
        raise ValueError(f"unknown noise family {dist.family!r}")
    if math.isnan(value) or value < 0.0:
        raise ValueError(f"radius must be >= 0, got {value}")
    return value


def bc_confidence_shift(p: float, k: float) -> float:
    """Confidence carried from contrast-noise scale tau to e^{-k} tau.

    Given a class probability >= p under brightness/contrast smoothing
    noise N(0, diag(sigma^2, tau^2)), returns a valid lower bound on the
    same class probability when the second dimension's scale becomes
    e^{-k} tau.  Equals p at k = 0 and degrades monotonically in |k|.
    """
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if k <= 0.0:
        q = std_normal_quantile((1.0 + p) / 2.0)
        if math.isinf(q):
            return 1.0
        return min(1.0, max(0.0, 2.0 * std_normal_cdf(math.exp(k) * q) - 1.0))
    q = std_normal_quantile(1.0 - p / 2.0)
    if math.isinf(q):
        return 1.0 if q < 0 else 0.0
    return min(1.0, max(0.0, 2.0 * (1.0 - std_normal_cdf(math.exp(k) * q))))


def bc_condition(k: float, b: float, sigma: float, tau: float,
                 conf_shifted: ConfidencePair) -> bool:
    """Weighted-ellipse certification test for a brightness/contrast shift.

    True iff sqrt((k/sigma)^2 + (b/(e^{-k} tau))^2) is strictly below
    the half quantile gap of the (already shift-adjusted) confidences.
    """
    if sigma <= 0.0 or tau <= 0.0:
        raise ValueError("noise scales must be positive")
    lhs = math.hypot(k / sigma, b * math.exp(k) / tau)
    return lhs < _quantile_gap(conf_shifted)
