import math

import numpy as np
import pytest
from helpers import binom_two_sided_p_reference, clopper_pearson_lower_reference
from mpmath import mp, mpf

from semcert.statfn import (ConfidenceParams, binom_two_sided_p, clopper_pearson_exceeds,
                            clopper_pearson_lower, std_normal_cdf, std_normal_quantile)

mp.dps = 40


def mp_cdf(z):
    """High-precision normal CDF via mpmath's error-function series."""
    return float(0.5 * mp.erfc(-mpf(z) / mp.sqrt(2)))


def mp_quantile(p, lo=-40.0, hi=40.0):
    """Bisection against the high-precision CDF."""
    p = mpf(p)
    for _ in range(200):
        mid = (lo + hi) / 2
        if 0.5 * mp.erfc(-mpf(mid) / mp.sqrt(2)) < p:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def exact_binom_survival(s, n, p):
    """P[X >= s] by direct pmf summation in extended precision."""
    p = mpf(p)
    total = mpf(0)
    for k in range(s, n + 1):
        total += mp.binomial(n, k) * p ** k * (1 - p) ** (n - k)
    return total


class TestNormalCdf:
    def test_anchor_values(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0
        assert std_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

    def test_symmetry(self, rng):
        for z in rng.normal(0, 3, size=200):
            assert std_normal_cdf(-z) == pytest.approx(1.0 - std_normal_cdf(z),
                                                       abs=1e-15)

    def test_against_series_oracle(self, rng):
        for z in np.concatenate([rng.normal(0, 2, 50), [-8.0, -5.5, 5.5, 8.0]]):
            assert std_normal_cdf(z) == pytest.approx(mp_cdf(z), abs=1e-14)

    def test_monotone(self):
        zs = np.linspace(-10, 10, 2001)
        vals = [std_normal_cdf(z) for z in zs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            std_normal_cdf(float("nan"))


class TestNormalQuantile:
    def test_anchor_values(self):
        assert std_normal_quantile(0.5) == 0.0
        assert std_normal_quantile(0.0) == -math.inf
        assert std_normal_quantile(1.0) == math.inf
        assert std_normal_quantile(0.9) == pytest.approx(1.2815515655, abs=1e-10)
        assert std_normal_quantile(0.75) == pytest.approx(0.6744897502, abs=1e-10)

    def test_against_bisection_oracle(self, rng):
        for p in np.concatenate([rng.uniform(1e-6, 1 - 1e-6, 40),
                                 [1e-9, 1e-4, 0.999, 1 - 1e-9]]):
            assert std_normal_quantile(p) == pytest.approx(mp_quantile(p), abs=1e-10)

    def test_roundtrip_grid(self):
        ps = np.linspace(1e-9, 1 - 1e-9, 10_000)
        worst = max(abs(std_normal_cdf(std_normal_quantile(p)) - p) for p in ps)
        assert worst <= 1e-9

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                std_normal_quantile(bad)

    @pytest.mark.parametrize("p", [0.5 + 2.0**-52, 0.5 + 1e-15, 0.5 + 2.05e-9, 0.5 + 1e-6,
                                   0.5 + 1e-4, 0.6, 0.9, 0.999999, 1 - 2.0**-53])
    def test_relative_error_against_mpmath(self, p):
        # just above 1/2, where a radius sigma * Phi_inv(p_a_lower) is
        # smallest, an absolute tolerance would accept any relative error
        exact = mp.sqrt(2) * mp.erfinv(2 * mpf(p) - 1)
        assert abs(std_normal_quantile(p) - exact) <= 1e-15 * abs(exact)


class TestClopperPearson:
    def test_no_successes(self):
        assert clopper_pearson_lower(0, 100, 0.001) == 0.0

    def test_all_successes_closed_form(self):
        # P[X >= n | p] = p^n, so the bound solves p^n = alpha exactly
        for n in (100, 10_000):
            got = clopper_pearson_lower(n, n, 0.001)
            assert got == pytest.approx(0.001 ** (1.0 / n), abs=1e-9)
            assert float(exact_binom_survival(n, n, got)) == pytest.approx(
                0.001, abs=1e-9)

    def test_against_exact_tail_bisection(self):
        # bisect the extended-precision tail sum independently
        for s, n, alpha in [(90, 100, 0.001), (7, 12, 0.05), (450, 500, 0.01)]:
            lo, hi = mpf(0), mpf(1)
            for _ in range(60):
                mid = (lo + hi) / 2
                if exact_binom_survival(s, n, mid) < alpha:
                    lo = mid
                else:
                    hi = mid
            oracle = float((lo + hi) / 2)
            assert clopper_pearson_lower(s, n, alpha) == pytest.approx(oracle,
                                                                       abs=1e-9)

    @pytest.mark.parametrize("s,n,alpha", [(1, 5, 0.001), (37, 60, 0.05), (390, 400, 0.001 / 250),
                                           (8_452, 20_000, 0.001 / 2_500),
                                           (100_000, 100_000, 0.001 / 50_000)])
    def test_exceeds_decides_outside_its_margin(self, s, n, alpha):
        # one tail sum places the bisected bound against p +- gap: undecided
        # at the bound itself, and decided a thousandth of it away
        cp, gap = clopper_pearson_lower(s, n, alpha), 2.0 ** -49
        assert clopper_pearson_exceeds(s, n, alpha, cp, gap) is None
        assert clopper_pearson_exceeds(s, n, alpha, cp * (1 - 1e-3), gap) is True
        assert clopper_pearson_exceeds(s, n, alpha, cp + (1 - cp) * 1e-3, gap) is False

    def test_tail_probability_at_bound(self):
        for s, n in [(1, 5), (9, 10), (37, 60), (199, 200), (320, 1000)]:
            p = clopper_pearson_lower(s, n, 0.001)
            assert float(exact_binom_survival(s, n, p)) == pytest.approx(
                0.001, abs=1e-9)

    def test_monotone_in_successes_and_alpha(self):
        n = 60
        vals = [clopper_pearson_lower(s, n, 0.01) for s in range(n + 1)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        in_alpha = [clopper_pearson_lower(40, n, a) for a in (0.001, 0.01, 0.05, 0.2)]
        assert all(a <= b for a, b in zip(in_alpha, in_alpha[1:]))

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            clopper_pearson_lower(5, 4, 0.01)
        with pytest.raises(ValueError):
            clopper_pearson_lower(-1, 4, 0.01)
        with pytest.raises(ValueError):
            clopper_pearson_lower(2, 0, 0.01)
        with pytest.raises(ValueError):
            clopper_pearson_lower(2, 4, 0.0)


class TestTwoSidedBinomial:
    def test_balanced_clamps_to_one(self):
        assert binom_two_sided_p(50, 100) == 1.0

    def test_extreme_tail(self):
        assert binom_two_sided_p(100, 100) == pytest.approx(2 * 0.5 ** 100,
                                                            rel=1e-12)

    def test_against_tail_summation(self):
        for s, n in [(60, 100), (40, 100), (3, 10), (998, 1000)]:
            upper = exact_binom_survival(s, n, 0.5)
            lower = exact_binom_survival(n - s, n, 0.5)  # = P[X <= s] by symmetry
            oracle = float(min(1, 2 * min(upper, lower)))
            assert binom_two_sided_p(s, n) == pytest.approx(oracle, abs=1e-12)

    def test_symmetry(self):
        for s, n in [(10, 100), (33, 77)]:
            assert binom_two_sided_p(s, n) == pytest.approx(
                binom_two_sided_p(n - s, n), rel=1e-12)


class TestReusedTailArrays:
    """The tail sums reuse their arrays across bisection steps, with the
    bits of the bisection that rebuilt them at every step."""

    _CASES = [(hits, trials, alpha)
              for trials in (1, 2, 12, 400, 1000)
              for hits in sorted({1, 2, trials // 2, trials - 1, trials})
              if 1 <= hits <= trials
              for alpha in (0.001 / 250, 0.001, 0.05)]
    _CASES += [(hits, 100_000, 0.001 / 250) for hits in (1, 50_000, 99_999, 100_000)]

    @pytest.mark.parametrize("hits,trials,alpha", _CASES)
    def test_clopper_pearson_equals_fresh_arrays(self, hits, trials, alpha):
        assert (clopper_pearson_lower(hits, trials, alpha)
                == clopper_pearson_lower_reference(hits, trials, alpha))

    @pytest.mark.parametrize("hits,trials", sorted({(h, n) for h, n, _ in _CASES}
                                                   | {(0, 1), (0, 400)}))
    def test_two_sided_p_equals_fresh_arrays(self, hits, trials):
        assert binom_two_sided_p(hits, trials) == binom_two_sided_p_reference(hits, trials)


class TestConfidenceParams:
    def test_defaults(self):
        c = ConfidenceParams()
        assert (c.alpha, c.n_samples, c.n0_samples) == (0.001, 100_000, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceParams(alpha=0.0)
        with pytest.raises(ValueError):
            ConfidenceParams(alpha=1.0)
        with pytest.raises(ValueError):
            ConfidenceParams(n_samples=10, n0_samples=20)
        with pytest.raises(ValueError):
            ConfidenceParams(n_samples=0)
