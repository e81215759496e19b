"""Hitting/return time sampling, Kac's identity, and the RTS/HTS bridge."""

import math
from fractions import Fraction

import numpy as np
import pytest

from evlhts.cylinders import PartitionContext
from evlhts.evl import sample_ball_min_distances
from evlhts.errors import CapTooSmall, DomainError, UnsupportedCombination
from evlhts.hts import (
    HitSample,
    ball_target,
    compare_hts_rts,
    cylinder_target,
    default_cap,
    first_hits,
    hts_curve_from_rts,
    kac_check,
    sample_hit_times,
)
from evlhts.laws import (
    EmpiricalLaw,
    exponential_cdf,
    ks_critical,
    ks_statistic,
)
from evlhts.measures import BernoulliDoubling, EmpiricalOrbit, Lebesgue1D
from evlhts.observables import BallObservable, GKind, GShape
from evlhts.rng import BLOCK
from evlhts.systems import (
    FIXED_ONE,
    Metric,
    doubling,
    full_tent,
    manneville_pomeau,
    rotation,
)
from reference import per_block_orbit_hits, per_block_orbit_min_distances

LEB_I = Lebesgue1D(Metric.INTERVAL)
LEB_C = Lebesgue1D(Metric.CIRCLE)


def tent_cylinder(depth, zeta=Fraction(1)):
    ctx = PartitionContext(full_tent(), LEB_I)
    return cylinder_target(ctx, zeta, depth)


class TestTargets:
    def test_tent_cylinder_target(self):
        tgt = tent_cylinder(10)
        assert tgt.mass == 2.0 ** -10
        assert tgt.word == 1 << 9  # letters 1, 0, ..., 0
        assert tgt.depth == 10
        assert tgt.arc is None

    def test_rotation_cylinder_target(self):
        ctx = PartitionContext(rotation("golden"), LEB_C)
        tgt = cylinder_target(ctx, 0.0, 13)
        lo, hi = tgt.arc
        assert 0 <= lo < hi <= FIXED_ONE
        assert tgt.mass == pytest.approx((hi - lo) / FIXED_ONE, rel=1e-12)

    def test_ball_target_by_mass(self):
        tgt = ball_target(LEB_C, 0.25, mass=0.01)
        assert tgt.eta == pytest.approx(0.005, rel=1e-9)
        assert tgt.mass == pytest.approx(0.01, rel=1e-9)
        lo, hi = tgt.cdf_arcs
        assert lo[0] == pytest.approx(0.245, rel=1e-9)
        assert hi[0] == pytest.approx(0.255, rel=1e-9)

    def test_ball_target_wraps_on_the_circle(self):
        tgt = ball_target(LEB_C, 0.002, mass=0.01)
        assert tgt.eta == pytest.approx(0.005, rel=1e-9)
        lo, hi = tgt.cdf_arcs
        assert len(lo) == 2  # pieces on both sides of 0
        widths = [b - a for a, b in zip(lo, hi)]
        assert sum(widths) == pytest.approx(0.01, rel=1e-9)

    def test_default_cap(self):
        assert default_cap(0.5) == 100
        assert default_cap(2.0 ** -10) == 51200
        assert default_cap(0.3) == 167  # ceil(50 / 0.3)
        with pytest.raises(DomainError):
            default_cap(0.0)
        with pytest.raises(DomainError):
            default_cap(1.5)


class TestHitSampleLaw:
    def test_law_scales_by_mass(self):
        tgt = tent_cylinder(4)  # mass 1/16
        sample = sample_hit_times(
            full_tent(), tgt, cap=default_cap(tgt.mass), n_samples=2000,
            seed=1, measure=LEB_I,
        )
        law = sample.law()
        assert law.n_total == 2000
        want = np.sort(sample.times[sample.hit] * tgt.mass)
        assert np.array_equal(law.values, want)

    def test_censoring_carries_to_the_law(self):
        tgt = tent_cylinder(10)
        sample = sample_hit_times(
            full_tent(), tgt, cap=64, n_samples=2000, seed=2, measure=LEB_I
        )
        assert sample.n_censored > 0
        law = sample.law()
        assert law.cap == pytest.approx(64 * tgt.mass)
        with pytest.raises(CapTooSmall):
            law.cdf(64 * tgt.mass)

    def test_cap_validation(self):
        tgt = tent_cylinder(3)
        with pytest.raises(DomainError):
            sample_hit_times(full_tent(), tgt, cap=1, n_samples=10, seed=1,
                             measure=LEB_I)


class TestKac:
    def test_tent_cylinder_returns(self):
        tgt = tent_cylinder(10)
        sample = sample_hit_times(
            full_tent(), tgt, cap=default_cap(tgt.mass), n_samples=10_000,
            seed=2, conditional=True, measure=LEB_I,
        )
        report = kac_check(sample)
        assert report.passed
        assert report.product == pytest.approx(1.0, abs=0.03)

    def test_doubling_half_cell_returns(self):
        ctx = PartitionContext(doubling(), LEB_I)
        tgt = cylinder_target(ctx, 0.0, 1)  # the cell [0, 1/2)
        sample = sample_hit_times(
            doubling(), tgt, cap=default_cap(tgt.mass), n_samples=10_000,
            seed=3, conditional=True, measure=LEB_I,
        )
        report = kac_check(sample)
        assert report.passed
        assert report.product == pytest.approx(1.0, abs=0.03)

    def test_needs_conditional_sample(self):
        tgt = tent_cylinder(4)
        sample = sample_hit_times(
            full_tent(), tgt, cap=default_cap(tgt.mass), n_samples=500,
            seed=4, measure=LEB_I,
        )
        with pytest.raises(DomainError):
            kac_check(sample)

    def test_censored_returns_refused(self):
        tgt = tent_cylinder(10)
        sample = sample_hit_times(
            full_tent(), tgt, cap=64, n_samples=500, seed=5,
            conditional=True, measure=LEB_I,
        )
        with pytest.raises(CapTooSmall):
            kac_check(sample)


class TestDigitBallReturns:
    def test_doubling_circle_ball(self):
        tgt = ball_target(LEB_C, 0.3, mass=0.02)
        sample = sample_hit_times(
            doubling(), tgt, cap=default_cap(tgt.mass), n_samples=5000,
            seed=7, conditional=True, measure=LEB_C,
        )
        report = kac_check(sample)
        assert report.passed
        assert report.product == pytest.approx(1.0, abs=0.05)

    def test_bernoulli_ball(self):
        bern = BernoulliDoubling(0.3)
        tgt = ball_target(bern, 0.3, mass=0.01)
        sample = sample_hit_times(
            doubling(), tgt, cap=default_cap(tgt.mass), n_samples=5000,
            seed=8, conditional=True, measure=bern,
        )
        report = kac_check(sample)
        assert report.passed

    @pytest.mark.parametrize("system, measure, target", [
        (doubling(), LEB_C, lambda: ball_target(LEB_C, 0.3, mass=0.02)),
        (doubling(), BernoulliDoubling(0.3),
         lambda: ball_target(BernoulliDoubling(0.3), 0.3, mass=0.02)),
        (full_tent(), LEB_I, lambda: ball_target(LEB_I, 0.3, mass=0.02)),
    ], ids=["circle-ball", "bernoulli-ball", "tent-ball"])
    def test_conditional_start_is_inside(self, system, measure, target):
        # With start_j = 0 a conditioned start must register time 0.
        times, hit = first_hits(
            system, target(), cap=100, n_samples=300, seed=9,
            labels=("inside",), conditional=True, start_j=0, measure=measure,
        )
        assert np.all(hit) and np.all(times == 0)

    def test_tent_ball_hitting_law_is_exponential(self):
        tgt = ball_target(LEB_I, 0.3, mass=2.0 ** -10)
        sample = sample_hit_times(
            full_tent(), tgt, cap=default_cap(tgt.mass), n_samples=4000,
            seed=10, measure=LEB_I,
        )
        assert sample.n_censored == 0
        stat = ks_statistic(sample.law(), exponential_cdf)
        assert stat <= ks_critical(4000, 0.01)


class TestCylinderHittingLaw:
    def test_tent_hitting_law_is_exponential(self):
        tgt = tent_cylinder(10)
        sample = sample_hit_times(
            full_tent(), tgt, cap=default_cap(tgt.mass), n_samples=4000,
            seed=4, measure=LEB_I,
        )
        stat = ks_statistic(sample.law(), exponential_cdf)
        assert stat <= ks_critical(4000, 0.01)


class TestRotation:
    def test_return_times_take_fibonacci_values(self):
        # Returns to a cell of the arc partition take at most 3 distinct
        # values (three-distance); at the golden angle they are
        # consecutive Fibonacci numbers (and possibly their sum).
        ctx = PartitionContext(rotation("golden"), LEB_C)
        tgt = cylinder_target(ctx, 0.0, 13)
        sample = sample_hit_times(
            rotation("golden"), tgt, cap=default_cap(tgt.mass),
            n_samples=3000, seed=5, conditional=True,
        )
        seen = set(np.unique(sample.times).tolist())
        assert seen <= {13, 21, 34}
        assert kac_check(sample).passed

    def test_hitting_law_is_not_exponential(self):
        ctx = PartitionContext(rotation("golden"), LEB_C)
        tgt = cylinder_target(ctx, 0.0, 13)
        sample = sample_hit_times(
            rotation("golden"), tgt, cap=default_cap(tgt.mass),
            n_samples=3000, seed=6,
        )
        stat = ks_statistic(sample.law(), exponential_cdf)
        assert stat > 0.1

    def test_ball_returns(self):
        tgt = ball_target(LEB_C, 0.25, mass=0.01)
        sample = sample_hit_times(
            rotation("golden"), tgt, cap=default_cap(tgt.mass),
            n_samples=3000, seed=6, conditional=True,
        )
        assert kac_check(sample).passed


class TestIntermittent:
    def test_ball_returns(self):
        system = manneville_pomeau(0.2)
        measure = EmpiricalOrbit(system, master_seed=1, orbit_len=200_000,
                                 burn_in=2000)
        tgt = ball_target(measure, 0.5, mass=0.02)
        sample = sample_hit_times(
            system, tgt, cap=default_cap(tgt.mass), n_samples=2000, seed=9,
            conditional=True, measure=measure,
        )
        report = kac_check(sample)
        # mass and returns come from the same finite orbit: allow a loose
        # band on top of the CLT one
        assert report.product == pytest.approx(1.0, abs=max(report.band, 0.1))

    def test_cylinder_targets_unsupported(self):
        system = manneville_pomeau(0.2)
        tgt = tent_cylinder(4)
        with pytest.raises(UnsupportedCombination):
            sample_hit_times(system, tgt, cap=100, n_samples=10, seed=1)


class TestOneOrbitScan:
    """The rotation and intermittent runs draw each block's starts and then
    step every lane in one scan.  That equals the per-block route bit for
    bit, since a lane's orbit depends on its start alone, not on the lanes
    beside it; for the intermittent map this rests on numpy's array pow.
    Two full blocks and a ragged one of 5."""

    N = 2 * BLOCK + 5

    @pytest.fixture(scope="class")
    def intermittent(self):
        system = manneville_pomeau(0.5)
        return system, EmpiricalOrbit(system, master_seed=3,
                                      orbit_len=50_000, burn_in=1000)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("conditional", [False, True])
    @pytest.mark.parametrize("case", ["rotation-ball", "rotation-cylinder",
                                      "intermittent"])
    def test_first_hits_match_per_block_runs(self, intermittent, case,
                                             conditional, threads):
        if case == "intermittent":
            system, measure = intermittent
            target = ball_target(measure, 0.3, mass=0.02)
        elif case == "rotation-ball":
            system, measure = rotation("golden"), None
            target = ball_target(LEB_C, 0.3, mass=0.02)
        else:
            system, measure = rotation("golden"), None
            target = cylinder_target(PartitionContext(system, LEB_C), 0.3, 80)
        kw = dict(cap=default_cap(target.mass), n_samples=self.N, seed=11,
                  labels=("one-scan", case), conditional=conditional,
                  measure=measure, threads=threads)
        times, hit = first_hits(system, target, **kw)
        want_times, want_hit = per_block_orbit_hits(system, target, **kw)
        assert np.array_equal(times, want_times)
        assert np.array_equal(hit, want_hit)
        # the scan runs past its first chunk and compacts its lanes
        assert hit.mean() > 0.25 and times.max() > 64

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["rotation", "intermittent"])
    def test_min_distances_match_per_block_runs(self, intermittent, case,
                                                threads):
        if case == "intermittent":
            system, measure = intermittent
        else:
            system, measure = rotation("golden"), LEB_C
        obs = BallObservable(GShape(GKind.G1), measure, 0.3)
        kw = dict(n_steps=300, n_samples=self.N, seed=12,
                  labels=("one-scan", case), threads=threads)
        got = sample_ball_min_distances(obs, system, **kw)
        want = per_block_orbit_min_distances(obs, system, **kw)
        assert np.array_equal(got, want)
        assert np.unique(got).size > 100


class TestBridge:
    def test_exact_step_integral(self):
        rts = EmpiricalLaw([0.5, 1.5])
        got = hts_curve_from_rts(rts, [1.0, 2.0])
        assert got == pytest.approx([0.75, 1.0], rel=1e-15)

    def test_tent_cylinder_bridge(self):
        tgt = tent_cylinder(10)
        cap = default_cap(tgt.mass)
        rts = sample_hit_times(
            full_tent(), tgt, cap=cap, n_samples=10_000, seed=2,
            conditional=True, measure=LEB_I,
        )
        hts = sample_hit_times(
            full_tent(), tgt, cap=cap, n_samples=4000, seed=4, measure=LEB_I
        )
        grid = np.linspace(0.1, 3.0, 30)
        assert compare_hts_rts(hts.law(), rts.law(), grid) <= 0.03

    def test_grid_beyond_cap_is_refused(self):
        tgt = tent_cylinder(10)
        rts = sample_hit_times(
            full_tent(), tgt, cap=64, n_samples=500, seed=5,
            conditional=True, measure=LEB_I,
        )
        assert rts.n_censored > 0
        with pytest.raises(CapTooSmall):
            hts_curve_from_rts(rts.law(), [1.0])
