"""Special functions and exact-confidence statistics.

Everything downstream funnels through these four functions: the normal
CDF and quantile parameterize every closed-form robust radius, and the
Clopper-Pearson bound / exact binomial test drive the Monte-Carlo
certification protocol.  No scipy is needed, and the accuracy of each
is pinned by this package's own oracle tests:

* ``std_normal_cdf`` goes through the complementary error function
  (series / continued-fraction split in libm), accurate to ~1e-16.
  It stays on erfc: ``statistics.NormalDist.cdf`` goes through erf,
  and 1 + erf(z) cancels in the lower tail.
* ``std_normal_quantile`` is the standard library's
  ``NormalDist().inv_cdf`` (Wichura's AS241).  Its relative error
  measured at most 5.8e-16 against mpmath's erfinv, over 3,450 p from
  1e-300 to 1 - 2^-53, the tail and the 2^-52 neighbourhood of 1/2
  included.
* ``clopper_pearson_lower`` bisects the exact binomial survival
  function, accumulated in log space; no incomplete-beta dependency.
  Sample counts in this artifact stay <= 1e5, so the direct tail sum is
  cheap, and one sum can place the bound (``clopper_pearson_exceeds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "ConfidenceParams",
    "std_normal_cdf",
    "std_normal_quantile",
    "clopper_pearson_lower",
    "clopper_pearson_exceeds",
    "binom_two_sided_p",
]

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class ConfidenceParams:
    """Error rate and sample budgets for the certification protocol."""

    alpha: float = 0.001
    n_samples: int = 100_000
    n0_samples: int = 100

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.n_samples < 1 or self.n0_samples < 1:
            raise ValueError("sample counts must be positive")
        if self.n0_samples > self.n_samples:
            raise ValueError("n0_samples must not exceed n_samples")


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF Phi(z); accepts +-inf, rejects NaN."""
    if math.isnan(z):
        raise ValueError("std_normal_cdf: NaN input")
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF; Phi_inv(0) = -inf, Phi_inv(1) = +inf."""
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"std_normal_quantile: p must be in [0, 1], got {p}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return _STD_NORMAL.inv_cdf(p)


def _log_binom_tail_terms(successes: int, trials: int) -> np.ndarray:
    """log C(trials, k) for k = successes .. trials, via a stable recurrence."""
    k = np.arange(successes, trials + 1, dtype=np.float64)
    first = (math.lgamma(trials + 1) - math.lgamma(successes + 1)
             - math.lgamma(trials - successes + 1))
    if len(k) == 1:
        return np.asarray([first])
    # logC(n, k+1) = logC(n, k) + log(n-k) - log(k+1)
    steps = np.log(trials - k[:-1]) - np.log(k[:-1] + 1.0)
    return first + np.concatenate(([0.0], np.cumsum(steps)))


def _log_survival(successes: int, trials: int):
    """log P[X >= successes] for X ~ Binomial(trials, p), as a function of p.

    The tail's terms and two work arrays are built once, so a bisection
    evaluates each p without allocating.
    """
    log_comb = _log_binom_tail_terms(successes, trials)
    k = np.arange(successes, trials + 1, dtype=np.float64)
    rest = trials - k
    logs, part = np.empty_like(k), np.empty_like(k)

    def at(p: float) -> float:
        if p <= 0.0:
            return -math.inf
        if p >= 1.0:
            return 0.0
        # log_comb + k log p + (trials - k) log(1 - p), summed in that order
        np.multiply(k, math.log(p), out=logs)
        np.add(log_comb, logs, out=logs)
        np.multiply(rest, math.log1p(-p), out=part)
        np.add(logs, part, out=logs)
        m = np.max(logs)
        np.subtract(logs, m, out=logs)
        np.exp(logs, out=logs)
        return float(m + math.log(np.sum(logs)))
    return at


def _check_counts(successes: int, trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")


def clopper_pearson_lower(successes: int, trials: int, alpha: float) -> float:
    """One-sided exact lower confidence bound on a binomial proportion.

    Returns the p such that P[Binomial(trials, p) >= successes] = alpha,
    i.e. the largest success probability that would still produce a
    count this extreme with probability only alpha.  Returns 0 when
    there are no successes.
    """
    _check_counts(successes, trials)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if successes == 0:
        return 0.0
    log_alpha = math.log(alpha)
    log_survival = _log_survival(successes, trials)
    # survival is strictly increasing in p on (0, 1): bisect to the
    # machine-adjacent pair of doubles
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if log_survival(mid) < log_alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson_exceeds(successes: int, trials: int, alpha: float, p: float,
                            gap: float) -> bool | None:
    """Whether ``clopper_pearson_lower(successes, trials, alpha)`` exceeds
    p + gap (True) or is at most p - gap (False), from one tail sum at p;
    None within the margin.  Needs p - gap > 2^-52.

    With u = 2^-53, n = trials, k = successes, and log, log1p, exp and
    lgamma within 4 ulps, ``_log_survival`` computes f = log S to within
    E = u n (n + 128) (ln(n + 1) + 57) at this p and at the bisection's:
    the cumsum of n log-ratios adds at most u n^2 ln(n + 1), the rest at
    most 128 u n (ln(n + 1) + |ln p| + |ln(1 - p)|), and log-sum-exp is
    1-Lipschitz; |ln p| + |ln(1 - p)| <= 57 at the dyadic p >= 2^-80
    the bisection reads.  It ends with f~(lo) < log alpha <= f~(hi) and
    0 < hi - lo <= 2^-53, and returns a value in [lo, hi].  As
    S'(p) = (k / p) P[X = k] <= (k / p) S(p), f moves by at most
    D = k s / (p - s) over s = gap + 2^-52 from p.  So f~(p) < log alpha
    - 2E - D gives f(p + s) < log alpha - E <= f(hi), hence lo > p + gap;
    f~(p) > log alpha + 2E + D gives f(lo) < f(p - s), hence hi < p - gap.
    """
    s = gap + 2.0 ** -52
    margin = (2.0 ** -52 * trials * (trials + 128) * (math.log(trials + 1) + 57.0)
              + successes * s / (p - s))
    excess = _log_survival(successes, trials)(p) - math.log(alpha)
    return None if abs(excess) <= margin else excess < 0.0


def binom_two_sided_p(successes: int, trials: int) -> float:
    """Exact two-sided binomial test p-value at success probability 1/2.

    The null is symmetric, so the two-sided p-value is twice the smaller
    tail, clamped to 1.
    """
    _check_counts(successes, trials)
    upper = math.exp(_log_survival(successes, trials)(0.5))
    # P[X <= s] = P[X >= n - s] by symmetry of Binomial(n, 1/2)
    lower = math.exp(_log_survival(trials - successes, trials)(0.5))
    return min(1.0, 2.0 * min(lower, upper))
