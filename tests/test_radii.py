import math

import numpy as np
import pytest

from semcert.radii import (ConfidencePair, DistributionSpec, bc_condition,
                           bc_confidence_shift, closed_form_radius)
from semcert.statfn import std_normal_quantile

UNIT_GAUSSIAN = DistributionSpec("gaussian", (1.0,), dim=1)
UNIT_EXP = DistributionSpec("exponential", (1.0,), dim=1)
UNIT_UNIFORM = DistributionSpec("uniform", (-math.sqrt(3.0), math.sqrt(3.0)), dim=1)
UNIT_LAPLACE = DistributionSpec("laplace", (1.0 / math.sqrt(2.0),), dim=1)
UNIT_FOLDED = DistributionSpec("folded_gaussian",
                               (math.sqrt(math.pi / (math.pi - 2.0)),), dim=1)


class TestSpecsValidation:
    def test_uniform_interval_order(self):
        with pytest.raises(ValueError):
            DistributionSpec("uniform", (1.0, 1.0), dim=1)

    def test_positive_scales(self):
        with pytest.raises(ValueError):
            DistributionSpec("exponential", (0.0,), dim=1)
        with pytest.raises(ValueError):
            DistributionSpec("laplace", (-1.0,), dim=1)

    def test_gaussian_zero_scale_allowed(self):
        d = DistributionSpec("gaussian", (0.0, 0.3), dim=2)
        np.testing.assert_array_equal(d.sigmas(), [0.0, 0.3])

    def test_confidence_pair(self):
        c = ConfidencePair(0.8)
        assert c.p_b == pytest.approx(0.2)
        with pytest.raises(ValueError):
            ConfidencePair(0.3, 0.5)
        with pytest.raises(ValueError):
            ConfidencePair(1.2)


class TestClosedFormRadius:
    def test_gaussian_uninformative(self):
        assert closed_form_radius(UNIT_GAUSSIAN, ConfidencePair(0.5, 0.5)) == 0.0

    def test_exponential_example(self):
        r = closed_form_radius(UNIT_EXP, ConfidencePair(0.75, 0.25))
        assert isinstance(r, float)
        assert r == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_unit_variance_values_at_09(self):
        # frozen from a 50-digit evaluation of the closed forms
        expect = {
            "gaussian": 1.2815515655446006,
            "exponential": 1.6094379124341003,
            "laplace": 1.1380444617920574,
            "uniform": 1.3856406460551020,
            "folded_gaussian": 1.6097334717314645,
        }
        conf = ConfidencePair(0.9, 0.1)
        for dist in (UNIT_GAUSSIAN, UNIT_EXP, UNIT_LAPLACE, UNIT_UNIFORM, UNIT_FOLDED):
            got = closed_form_radius(dist, conf)
            assert got == pytest.approx(expect[dist.family], abs=1e-9), dist.family

    def test_uniform_scalar_radius(self):
        r = closed_form_radius(UNIT_UNIFORM, ConfidencePair(0.9, 0.1))
        assert r == pytest.approx(2 * math.sqrt(3.0) * 0.4, abs=1e-12)
        r = closed_form_radius(UNIT_UNIFORM, ConfidencePair(0.8, 0.1))
        assert r == pytest.approx(2 * math.sqrt(3.0) * 0.35, abs=1e-12)
        assert closed_form_radius(UNIT_UNIFORM, ConfidencePair(0.5, 0.5)) == 0.0

    def test_uniform_multidim_rejected(self):
        # the radius is the 1-d one; no transform smooths with uniform
        # noise in more dimensions
        d = DistributionSpec("uniform", (0.0, 1.0), dim=3)
        with pytest.raises(ValueError, match="one dimension"):
            closed_form_radius(d, ConfidencePair(0.9, 0.1))

    def test_laplace_interior_and_boundary(self):
        b = UNIT_LAPLACE.params[0]
        r = closed_form_radius(UNIT_LAPLACE, ConfidencePair(0.9, 0.1))
        assert r == pytest.approx(-b * math.log(0.2), abs=1e-12)
        rb = closed_form_radius(UNIT_LAPLACE, ConfidencePair(0.9, 0.5))
        assert rb == pytest.approx(-b * math.log(4 * 0.5 * 0.1), abs=1e-12)
        assert closed_form_radius(UNIT_LAPLACE, ConfidencePair(0.4, 0.3)) == 0.0
        assert closed_form_radius(UNIT_LAPLACE, ConfidencePair(0.5, 0.5)) == 0.0

    def test_laplace_branch_continuity_at_half(self):
        # both branches vanish together as (p_A, p_B) -> (1/2, 1/2)
        b = UNIT_LAPLACE.params[0]
        delta = 1e-9
        interior = -b * math.log(1 - (0.5 + delta) + (0.5 - delta))
        boundary = -b * math.log(4 * (0.5 - delta) * (0.5 - delta))
        assert abs(interior - boundary) <= 1e-8
        assert closed_form_radius(
            UNIT_LAPLACE, ConfidencePair(0.5 + delta, 0.5 - delta)
        ) == pytest.approx(interior, abs=1e-12)

    def test_folded_gaussian_formula(self):
        sigma = UNIT_FOLDED.params[0]
        r = closed_form_radius(UNIT_FOLDED, ConfidencePair(0.9, 0.1))
        expect = sigma * (std_normal_quantile(0.95) - std_normal_quantile(0.75))
        assert r == pytest.approx(expect, abs=1e-12)

    def test_infinite_radius_propagates(self):
        assert math.isinf(closed_form_radius(UNIT_EXP, ConfidencePair(1.0, 0.0)))
        assert math.isinf(closed_form_radius(UNIT_GAUSSIAN,
                                             ConfidencePair(1.0, 0.0)))

    def test_monotone_in_confidences(self):
        for dist in (UNIT_GAUSSIAN, UNIT_EXP, UNIT_LAPLACE, UNIT_UNIFORM, UNIT_FOLDED):
            vals = [closed_form_radius(dist, ConfidencePair(pa, 1 - pa))
                    for pa in (0.55, 0.7, 0.85, 0.95, 0.99)]
            assert all(a <= b for a, b in zip(vals, vals[1:])), dist.family
            in_pb = [closed_form_radius(dist, ConfidencePair(0.95, pb))
                     for pb in (0.01, 0.05, 0.2, 0.4)]
            assert all(a >= b for a, b in zip(in_pb, in_pb[1:])), dist.family

    def test_exponential_dominates_at_unit_variance(self):
        for pa in (0.9, 0.99, 0.999):
            conf = ConfidencePair(pa, 1 - pa)
            exp_r = closed_form_radius(UNIT_EXP, conf)
            for dist in (UNIT_GAUSSIAN, UNIT_LAPLACE, UNIT_UNIFORM):
                assert exp_r > closed_form_radius(dist, conf)

    def test_one_sided_blur_families_cross_near_09(self):
        # blur's one-sided noise families at unit variance: exponential
        # rate 1, folded gaussian, uniform [0, sqrt(12)].  Exponential
        # gives the largest radius only above about p_A = 0.9; uniform
        # wins below about 0.82 and folded gaussian in between
        families = (UNIT_EXP, UNIT_FOLDED, DistributionSpec("uniform", (0.0, math.sqrt(12.0))))
        table = {0.6: (0.223, 0.277, 0.346), 0.75: (0.693, 0.789, 0.866),
                 0.9: (1.609, 1.610, 1.386), 0.99: (3.912, 3.154, 1.697),
                 0.999: (6.215, 4.340, 1.729)}
        for pa, row in table.items():
            got = [closed_form_radius(d, ConfidencePair(pa)) for d in families]
            assert got == pytest.approx(row, abs=5e-4), pa

        def best(pa):
            radii = [closed_form_radius(d, ConfidencePair(pa)) for d in families]
            return families[radii.index(max(radii))].family

        grid = np.round(np.arange(0.501, 0.9995, 0.001), 3)
        winners = [best(float(pa)) for pa in grid]
        changes = [(float(pa), w) for pa, w, prev in zip(grid, winners, [None] + winners)
                   if w != prev]
        assert changes == [(0.501, "uniform"), (0.822, "folded_gaussian"),
                           (0.901, "exponential")]
        assert best(0.9) == "folded_gaussian" and best(0.9002) == "exponential"

    def test_folded_beats_gaussian(self):
        for pa in (0.9, 0.99, 0.999):
            conf = ConfidencePair(pa, 1 - pa)
            assert (closed_form_radius(UNIT_FOLDED, conf)
                    > closed_form_radius(UNIT_GAUSSIAN, conf))


class TestBcConfidenceShift:
    def test_identity_at_zero(self, rng):
        for p in rng.uniform(0, 1, 50):
            assert bc_confidence_shift(p, 0.0) == pytest.approx(p, abs=1e-12)

    def test_full_confidence_stays_full(self):
        for k in (-2.0, -0.5, 0.0):
            assert bc_confidence_shift(1.0, k) == 1.0

    def test_monte_carlo_oracle(self):
        # the bound equals the probability, under the wider/narrower
        # gaussian, of the |z|-event whose original probability is p
        gen = np.random.default_rng(2024)
        n = 1_000_000
        for p, k in [(0.9, 0.2), (0.9, -0.2)]:
            tau = 1.0
            if k > 0:
                cut = tau * std_normal_quantile(1 - p / 2)
                draws = gen.normal(0.0, math.exp(-k) * tau, n)
                emp = np.mean(np.abs(draws) >= cut)
            else:
                cut = tau * std_normal_quantile((1 + p) / 2)
                draws = gen.normal(0.0, math.exp(-k) * tau, n)
                emp = np.mean(np.abs(draws) <= cut)
            got = bc_confidence_shift(p, k)
            se = math.sqrt(got * (1 - got) / n)
            assert abs(emp - got) <= 3 * se

    def test_monotone_in_abs_k(self):
        for p in (0.7, 0.9, 0.99):
            for sign in (1.0, -1.0):
                vals = [bc_confidence_shift(p, sign * k) for k in (0.0, 0.1, 0.3, 0.8)]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bc_confidence_shift(1.5, 0.1)


class TestBcCondition:
    def test_origin_passes_with_margin(self):
        assert bc_condition(0.0, 0.0, 0.3, 0.3, ConfidencePair(0.8, 0.2))

    def test_no_margin_rejects_everything(self):
        conf = ConfidencePair(0.5, 0.5)
        assert not bc_condition(0.1, 0.0, 0.3, 0.3, conf)
        assert not bc_condition(0.0, 0.01, 0.3, 0.3, conf)

    def test_boundary_is_strict(self):
        conf = ConfidencePair(0.9, 0.1)
        sigma = tau = 0.3
        gap = std_normal_quantile(0.9)  # (q(0.9) - q(0.1)) / 2
        k = 0.0
        b = tau * gap * math.exp(-k)  # puts the point exactly on the ellipse
        assert not bc_condition(k, b, sigma, tau, conf)
        assert bc_condition(k, b * (1 - 1e-9), sigma, tau, conf)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            bc_condition(0.0, 0.0, 0.0, 0.3, ConfidencePair(0.8, 0.2))
