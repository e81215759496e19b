"""Empirical/reference laws, KS machinery, level-vs-time comparisons."""

import math

import numpy as np
import pytest

from evlhts.errors import (
    CapTooSmall,
    DomainError,
    GridMismatch,
    InsufficientSample,
)
from evlhts.laws import (
    EmpiricalLaw,
    check_evl_from_hts,
    exponential_cdf,
    kolmogorov_sf,
    ks_critical,
    ks_statistic,
    sup_distance_on_grid,
    survival_integral,
)
from evlhts.observables import GKind, GShape
from reference import uniform_cdf


class TestEmpiricalLaw:
    def test_ecdf_steps(self):
        law = EmpiricalLaw(np.arange(1, 11) / 10.0)
        assert law.cdf(0.05) == 0.0
        assert law.cdf(0.1) == pytest.approx(0.1)  # right-continuous
        assert law.cdf(0.15) == pytest.approx(0.1)
        assert law.cdf(1.0) == 1.0
        assert law.cdf(math.inf) == 1.0
        assert law.sf(0.5) == pytest.approx(0.5)
        assert law.sf(math.inf) == 0.0

    def test_values_are_sorted_on_build(self):
        law = EmpiricalLaw([0.3, 0.1, 0.2])
        assert law.values.tolist() == [0.1, 0.2, 0.3]

    def test_from_hit_times_scales_and_censors(self):
        times = np.array([3, 10, 7])
        hit = np.array([True, False, True])
        law = EmpiricalLaw.from_hit_times(times, hit, scale=0.1, cap=1.0)
        assert law.values.tolist() == pytest.approx([0.3, 0.7])
        assert law.n_censored == 1
        assert law.cap == 1.0  # censored lanes sit at the cap
        assert law.n_total == 3
        assert law.cdf(0.5) == pytest.approx(1 / 3)
        assert law.cdf(0.99) == pytest.approx(2 / 3)

    def test_censored_ecdf_undefined_at_cap(self):
        law = EmpiricalLaw([0.3, 0.7], n_censored=1, cap=1.0)
        with pytest.raises(CapTooSmall):
            law.cdf(1.0)
        with pytest.raises(CapTooSmall):
            law.sf(1.2)
        # +/- infinity stay exact whatever the cap
        assert law.cdf(math.inf) == 1.0
        assert law.sf(math.inf) == 0.0

    def test_uncensored_law_has_no_cap_limit(self):
        law = EmpiricalLaw([0.3, 0.7])
        assert law.cdf(100.0) == 1.0

    def test_validation(self):
        with pytest.raises(InsufficientSample):
            EmpiricalLaw([])
        with pytest.raises(DomainError):
            EmpiricalLaw([0.5], n_censored=-1)
        with pytest.raises(DomainError):
            EmpiricalLaw([0.5], n_censored=2)  # censored without a cap
        with pytest.raises(DomainError):
            EmpiricalLaw([2.0], n_censored=1, cap=1.0)  # value beyond cap


class TestReferenceLaw:
    """The limit laws: each shape's ``limit_cdf`` and ``exponential_cdf``."""

    def test_ev1_values(self):
        law = GShape(GKind.G1)
        assert law.limit_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert law.limit_cdf(3.0) == pytest.approx(math.exp(-math.exp(-3.0)),
                                                    rel=1e-15)
        assert law.limit_cdf(-50.0) == 0.0

    def test_ev2_values(self):
        law = GShape(GKind.G2, alpha=1.0)
        assert law.limit_cdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert law.limit_cdf(2.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
        assert law.limit_cdf(0.0) == 0.0
        assert law.limit_cdf(-3.0) == 0.0
        half = GShape(GKind.G2, alpha=0.5)
        assert half.limit_cdf(4.0) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_ev3_values(self):
        law = GShape(GKind.G3, alpha=1.0)
        assert law.limit_cdf(0.0) == 1.0
        assert law.limit_cdf(1.0) == 1.0
        assert law.limit_cdf(-1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        quad = GShape(GKind.G3, alpha=2.0)
        assert quad.limit_cdf(-2.0) == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_exponential_values(self):
        assert exponential_cdf(2.0) == pytest.approx(-math.expm1(-2.0),
                                                     rel=1e-15)
        assert exponential_cdf(0.0) == 0.0
        assert exponential_cdf(-1.0) == 0.0

    def test_vectorized_cdf(self):
        law = GShape(GKind.G1)
        out = law.limit_cdf(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert isinstance(law.limit_cdf(0.0), float)
        assert exponential_cdf(np.array([0.0, 1.0])).shape == (2,)
        assert isinstance(exponential_cdf(1.0), float)


class TestKolmogorov:
    def test_classic_quantiles(self):
        # Tabulated asymptotic critical points: Q(1.358) ~ 5%, Q(1.628) ~ 1%.
        assert kolmogorov_sf(1.358) == pytest.approx(0.05, abs=2e-3)
        assert kolmogorov_sf(1.628) == pytest.approx(0.01, abs=5e-4)
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(6.0) < 1e-12

    def test_series_switch_is_continuous(self):
        assert kolmogorov_sf(1.18 - 1e-9) == pytest.approx(
            kolmogorov_sf(1.18 + 1e-9), abs=1e-8
        )

    def test_monotone_decreasing(self):
        lams = np.linspace(0.3, 3.0, 40)
        vals = [kolmogorov_sf(l) for l in lams]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_critical_values(self):
        assert ks_critical(10_000, 0.01) == pytest.approx(0.01628, abs=2e-4)
        assert ks_critical(100, 0.05) == pytest.approx(0.1358, abs=2e-3)
        with pytest.raises(InsufficientSample):
            ks_critical(0)
        with pytest.raises(DomainError):
            ks_critical(100, 0.0)


class TestKsStatistic:
    def test_exact_uniform_lattice(self):
        # x_i = i/10: D+ = 0 and D- = 0.1 exactly against U[0, 1].
        law = EmpiricalLaw(np.arange(1, 11) / 10.0)
        assert ks_statistic(law, uniform_cdf) == pytest.approx(0.1, rel=1e-14)

    def test_refuses_censored(self):
        law = EmpiricalLaw([0.5], n_censored=1, cap=2.0)
        with pytest.raises(CapTooSmall):
            ks_statistic(law, uniform_cdf)

    def test_exponential_sample_passes(self):
        gen = np.random.default_rng(20260814)
        law = EmpiricalLaw(gen.exponential(size=4000))
        critical = ks_critical(4000, 0.01)
        assert ks_statistic(law, exponential_cdf) <= critical
        # the rate-2 law
        assert ks_statistic(law, lambda t: exponential_cdf(2.0 * t)) > critical

    def test_sup_distance_on_grid(self):
        law = EmpiricalLaw(np.arange(1, 11) / 10.0)
        d = sup_distance_on_grid(law, uniform_cdf, [0.05, 0.5, 0.95])
        assert d == pytest.approx(0.05, rel=1e-12)


class TestSurvivalIntegral:
    def test_exact_two_point_law(self):
        # F steps 0 -> 1/2 at 1 -> 1 at 3: integral of sf over [0, 2] = 1.5.
        law = EmpiricalLaw([1.0, 3.0])
        assert survival_integral(law, 2.0) == pytest.approx(1.5, rel=1e-15)
        assert survival_integral(law, 0.0) == 0.0

    def test_censored_lanes_contribute_t(self):
        law = EmpiricalLaw([1.0], n_censored=1, cap=5.0)
        assert survival_integral(law, 2.0) == pytest.approx(1.5)
        with pytest.raises(CapTooSmall):
            survival_integral(law, 6.0)

    def test_domain(self):
        law = EmpiricalLaw([1.0])
        with pytest.raises(DomainError):
            survival_integral(law, -0.5)
        with pytest.raises(DomainError):
            survival_integral(EmpiricalLaw([-1.0, 1.0]), 0.5)

    def test_exponential_fixed_point(self):
        # For T ~ Exp(1), E[min(t, T)] = 1 - e^-t.
        gen = np.random.default_rng(11)
        law = EmpiricalLaw(gen.exponential(size=20_000))
        for t in (0.5, 1.0, 2.0):
            assert survival_integral(law, t) == pytest.approx(
                -math.expm1(-t), abs=0.03
            )


class TestLevelTimeComparison:
    def test_exact_bridge(self):
        g = GShape(GKind.G2, alpha=1.0)  # tau(y) = 1/y on y > 0, inf below
        hit_law = EmpiricalLaw([0.5, 1.5, 2.5, 3.5])
        comp = check_evl_from_hts(
            [-1.0, 0.5, 1.0], [0.0, 0.5, 0.7], hit_law, g
        )
        assert comp.taus == (math.inf, 2.0, 1.0)
        assert comp.time_survivals == (0.0, 0.5, 0.75)
        assert comp.sup_diff == pytest.approx(0.05)

    def test_horizon_mismatch(self):
        g = GShape(GKind.G2, alpha=1.0)
        short = EmpiricalLaw([0.5], n_censored=1, cap=2.0)
        with pytest.raises(GridMismatch):
            check_evl_from_hts([0.4], [0.9], short, g)  # tau = 2.5 > cap

    def test_length_mismatch(self):
        g = GShape(GKind.G1)
        with pytest.raises(DomainError):
            check_evl_from_hts([0.0, 1.0], [0.5], EmpiricalLaw([1.0]), g)
