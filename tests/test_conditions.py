"""Short-range recurrence and mixing-gap dependence estimators."""

import tracemalloc

import pytest

from evlhts.conditions import (
    ConditionReport,
    dprime_estimate,
    mixing_gap_estimate,
)
from evlhts.cylinders import PartitionContext
from evlhts.errors import DomainError, UnsupportedCombination
from evlhts.hts import ball_target, cylinder_target
from evlhts.measures import BernoulliDoubling, Lebesgue1D
from evlhts.systems import Metric, doubling, full_tent, rotation

LEB = Lebesgue1D(Metric.INTERVAL)


def tent_target(zeta, depth=10):
    ctx = PartitionContext(full_tent(), LEB)
    return cylinder_target(ctx, zeta, depth)


class TestReportLogic:
    def test_verdicts(self):
        base = dict(window=1)
        elevated = ConditionReport(estimate=0.5, baseline=0.1, sigma=0.01,
                                   **base)
        assert elevated.excess == pytest.approx(0.4)
        assert elevated.verdict == "Elevated"
        small = ConditionReport(estimate=0.119, baseline=0.1, sigma=0.001,
                                **base)
        assert small.verdict == "ConsistentWithZero"  # below the 0.02 floor
        wide = ConditionReport(estimate=0.5, baseline=0.1, sigma=0.2, **base)
        assert wide.verdict == "ConsistentWithZero"  # inside 3 sigma


class TestShortRangeRecurrence:
    def test_generic_center_is_consistent_with_zero(self):
        report = dprime_estimate(
            full_tent(), LEB, tent_target(0.3), block_n=1024, k=10,
            n_samples=50_000, seed=31,
        )
        assert report.baseline == pytest.approx(1024 * 102 * 2.0 ** -20)
        assert abs(report.excess) < 0.01
        assert report.verdict == "ConsistentWithZero"

    def test_fixed_point_center_is_elevated(self):
        generic = dprime_estimate(
            full_tent(), LEB, tent_target(0.3), block_n=1024, k=10,
            n_samples=50_000, seed=31,
        )
        pinned = dprime_estimate(
            full_tent(), LEB, tent_target(0.0), block_n=1024, k=10,
            n_samples=50_000, seed=31,
        )
        assert pinned.verdict == "Elevated"
        # orbits that start in the cell around the fixed point re-enter
        # immediately: an order-k enhancement over the generic center
        assert pinned.estimate / generic.estimate > 10.0

    def test_doubling_bernoulli_generic(self):
        bern = BernoulliDoubling(0.3)
        ctx = PartitionContext(doubling(), bern)
        tgt = cylinder_target(ctx, 0.43, 8)
        block_n = int(1.0 / tgt.mass)
        report = dprime_estimate(
            doubling(), bern, tgt, block_n=block_n, k=10,
            n_samples=50_000, seed=17,
        )
        assert report.verdict == "ConsistentWithZero"

    def test_validation(self):
        tgt = tent_target(0.3)
        with pytest.raises(DomainError):
            dprime_estimate(full_tent(), LEB, tgt, block_n=0, k=10,
                            n_samples=10, seed=1)
        with pytest.raises(DomainError):
            dprime_estimate(full_tent(), LEB, tgt, block_n=5, k=10,
                            n_samples=10, seed=1)  # empty window
        with pytest.raises(UnsupportedCombination):
            dprime_estimate(rotation("golden"), LEB, tgt, block_n=64, k=2,
                            n_samples=10, seed=1)
        ball = ball_target(LEB, 0.3, mass=0.01)
        with pytest.raises(UnsupportedCombination):
            dprime_estimate(full_tent(), LEB, ball, block_n=64, k=2,
                            n_samples=10, seed=1)


class TestMixingGap:
    def test_fast_mixing_is_consistent_with_zero(self):
        report = mixing_gap_estimate(
            full_tent(), LEB, tent_target(0.3), block_n=1024, gap=128,
            n_samples=20_000, seed=34,
        )
        assert report.verdict == "ConsistentWithZero"
        assert report.estimate < 0.02

    def test_even_at_the_fixed_point(self):
        # Long-range decorrelation holds at zeta = 0 too: the clustering
        # there is a short-range effect.
        report = mixing_gap_estimate(
            full_tent(), LEB, tent_target(0.0), block_n=1024, gap=128,
            n_samples=20_000, seed=35,
        )
        assert report.verdict == "ConsistentWithZero"

    def test_explicit_gap(self):
        report = mixing_gap_estimate(
            full_tent(), LEB, tent_target(0.3), block_n=256, gap=7,
            n_samples=2000, seed=36,
        )
        assert report.window == 7
        assert report.baseline == 0.0

    def test_memory_stays_per_tile(self):
        # the benchmark's periodic conditions run: 100,000 lanes in one
        # scan hold their times, lane numbers, done flags and carried
        # digits, beside one tile's temporaries: 3.36 MB traced when the
        # word's one run of letters is built in the match rows, 3.59 MB
        # with word tiles of two blocks re-laid into overlapping letter
        # rows and a complemented copy of those rows, 3.51 MB when the
        # letters were shifted across word boundaries in place, 3.14 MB
        # with one-block tiles, 3.65 MB with two-block tiles and a
        # separate digit matrix, 4.73 MB with four-block tiles.  Per-block
        # scans peaked at 1.83 MB; buffering the whole run's digits
        # reached 12.3 MB, and a whole-run column array with copying
        # compaction 7.0 MB.
        measure = Lebesgue1D(Metric.CIRCLE)
        target = cylinder_target(PartitionContext(doubling(), measure), 0.0,
                                 10)
        tracemalloc.start()
        try:
            mixing_gap_estimate(doubling(), measure, target, block_n=1000,
                                gap=126, n_samples=100_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1.83e6

    def test_validation(self):
        tgt = tent_target(0.3)
        with pytest.raises(DomainError):
            mixing_gap_estimate(full_tent(), LEB, tgt, block_n=0, gap=1,
                                n_samples=10, seed=1)
        with pytest.raises(DomainError):
            mixing_gap_estimate(full_tent(), LEB, tgt, block_n=64, gap=0,
                                n_samples=10, seed=1)
