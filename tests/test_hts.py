"""Hitting/return time sampling, Kac's identity, and the RTS/HTS bridge."""

import math
from fractions import Fraction

import numpy as np
import pytest

from evlhts import engine, hts
from evlhts.cylinders import PartitionContext
from evlhts.engine import block_substreams
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
    orbit_starts,
    sample_hit_times,
)
from evlhts.laws import (
    EmpiricalLaw,
    exponential_cdf,
    ks_critical,
    ks_statistic,
)
from evlhts.measures import (BernoulliDoubling, EmpiricalOrbit, Lebesgue1D,
                             fixed_to_float)
from evlhts.observables import BallObservable, GKind, GShape
from evlhts.rng import BLOCK, block_slices, substream
from evlhts.systems import (
    FIXED_ONE,
    Metric,
    doubling,
    full_tent,
    manneville_pomeau,
    rotation,
)
from reference import (
    RecordingGen,
    exact_ball_pieces,
    per_block_digit_hits,
    per_block_orbit_hits,
    per_block_orbit_min_distances,
)

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
        assert tgt.arcs == ()

    def test_rotation_cylinder_target(self):
        ctx = PartitionContext(rotation("golden"), LEB_C)
        tgt = cylinder_target(ctx, 0.0, 13)
        (lo, hi), = tgt.arcs  # the 2^63 arc on the 2^-128 grid
        assert lo % 2 ** 65 == hi % 2 ** 65 == 0
        assert 0 <= lo < hi <= 2 ** 128
        assert tgt.mass == pytest.approx((hi - lo) / 2 ** 128, rel=1e-12)

    def test_ball_target_by_mass(self):
        tgt = ball_target(LEB_C, 0.25, mass=0.01)
        assert tgt.metric is Metric.CIRCLE
        (a, b), = tgt.arcs
        assert (a + b) / 2 ** 129 == 0.25
        assert tgt.mass == pytest.approx(0.01, rel=1e-9)
        lo, hi = LEB_C.ball_cdfs(tgt.arcs)
        assert lo[0] == pytest.approx(0.245, rel=1e-9)
        assert hi[0] == pytest.approx(0.255, rel=1e-9)

    def test_ball_target_wraps_on_the_circle(self):
        tgt = ball_target(LEB_C, 0.002, mass=0.01)
        assert len(tgt.arcs) == 2
        lo, hi = LEB_C.ball_cdfs(tgt.arcs)
        assert len(lo) == 2  # pieces on both sides of 0
        widths = [b - a for a, b in zip(lo, hi)]
        assert sum(widths) == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.parametrize("measure,zeta,mass,want", [
        (LEB_C, 0.3, 0.001,  # doubling, as in the ball rts benchmark step
         (["0x1.32b020c49ba33p-2"], ["0x1.33b645a1cac33p-2"])),
        (BernoulliDoubling(0.3), 0.3, 0.001,
         (["0x1.986c974d4fb45p-4"], ["0x1.9c852ac20c855p-4"])),
        (LEB_I, 0.3, 0.01,  # tent
         (["0x1.2e147ae147ab3p-2"], ["0x1.3851eb851ebb3p-2"])),
        (LEB_C, 0.25, 0.01,
         (["0x1.f5c28f5c28f00p-3"], ["0x1.051eb851eb880p-2"])),
    ], ids=["doubling", "doubling-bernoulli", "tent", "circle"])
    def test_ball_start_cdfs_are_pinned(self, measure, zeta, mass, want):
        # return runs invert these start CDFs, so they are pinned bit for bit
        tgt = ball_target(measure, zeta, mass)
        got = measure.ball_cdfs(tgt.arcs)
        assert got == tuple(tuple(float.fromhex(v) for v in side)
                            for side in want)

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
        ctx = PartitionContext(doubling(), LEB_C)
        tgt = cylinder_target(ctx, 0.0, 1)  # the cell [0, 1/2)
        sample = sample_hit_times(
            doubling(), tgt, cap=default_cap(tgt.mass), n_samples=10_000,
            seed=3, conditional=True, measure=LEB_C,
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
        assert stat <= ks_critical(4000)


class TestCylinderHittingLaw:
    def test_tent_hitting_law_is_exponential(self):
        tgt = tent_cylinder(10)
        sample = sample_hit_times(
            full_tent(), tgt, cap=default_cap(tgt.mass), n_samples=4000,
            seed=4, measure=LEB_I,
        )
        stat = ks_statistic(sample.law(), exponential_cdf)
        assert stat <= ks_critical(4000)


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

    # 3 2^-64 lies halfway between two grid points
    @pytest.mark.parametrize("zeta", [0.0, 0.3, 1.0 - 2.0 ** -53,
                                      3 * 2.0 ** -64])
    # below mass 0.001 the radius leaves the 2^-63 grid
    @pytest.mark.parametrize("mass", [0.0001, 0.001, 0.01, 0.1, 0.5])
    def test_ball_width_counts_the_grid_points(self, zeta, mass):
        # the grid points k 2^-63 in a piece [a, b) of the exact ball are
        # those with ceil(a 2^63) <= k < ceil(b 2^63)
        eta = LEB_C.quantile_radius(zeta, mass)
        want = sum(math.ceil(b * FIXED_ONE) - math.ceil(a * FIXED_ONE)
                   for a, b in exact_ball_pieces(Metric.CIRCLE, zeta, eta))
        assert hts._rotation_arc(ball_target(LEB_C, zeta, mass)) == (0, want)
        # for such radii and centres the ends lie on the grid: 2 eta 2^63
        if eta >= 2.0 ** -11 and math.ldexp(zeta, 63).is_integer():
            assert want == min(round(2 * eta * FIXED_ONE), FIXED_ONE)

    def test_ball_takes_the_grid_point_at_its_lower_end(self):
        # a ball is half-open: [2^-40, 2^-40 + 2^-79) holds the grid point
        # 2^-40 and no other; [2^-40 - 2^-79, 2^-40) holds none, and a
        # rotation refuses it
        def ball(lo, hi):
            return hts.TargetSet("ball", mass=2.0 ** -79, zeta_value=0.0,
                                 arcs=((lo, hi),), metric=Metric.CIRCLE)

        point, sliver = 1 << 88, 1 << 49
        assert hts._rotation_arc(ball(point, point + sliver)) == (0, 1)
        with pytest.raises(DomainError, match="no point"):
            first_hits(rotation("golden"), ball(point - sliver, point),
                       cap=10, n_samples=4, seed=1, labels=("empty",))


def test_a_map_refuses_a_cylinder_of_another_map():
    # a tent cell is a word, with no arcs for a rotation to scan; a rotation
    # cell is an arc of the circle, with no word to scan and not on the
    # intermittent map's interval
    rot = cylinder_target(PartitionContext(rotation("golden"), LEB_C), 0.3, 5)
    orbit = EmpiricalOrbit(manneville_pomeau(0.5), orbit_len=1000, burn_in=10)
    for system, target, measure in (
            (rotation("golden"), tent_cylinder(4), None),
            (doubling(), rot, LEB_C),
            (manneville_pomeau(0.5), rot, orbit)):
        with pytest.raises(UnsupportedCombination):
            first_hits(system, target, cap=10, n_samples=4, seed=1,
                       labels=("other-map",), measure=measure)


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

    @pytest.mark.parametrize("mass", [0.001, 0.01, 0.05])
    def test_return_starts_are_the_points_the_mass_counts(self, mass):
        # the pool return starts are drawn from is the ball's arcs' share
        # of the orbit, which is the target's mass times the orbit length
        system = manneville_pomeau(0.5)
        measure = EmpiricalOrbit(system, master_seed=2, orbit_len=50_000,
                                 burn_in=1000)
        target = ball_target(measure, 0.3, mass=mass)
        pool = measure.points_in(target.arcs)
        assert pool.size / measure.orbit_len == target.mass
        assert pool.size == round(mass * measure.orbit_len)
        starts = orbit_starts(system, measure, 500, 4, ("pool", mass), 1,
                              inside=target)
        assert np.isin(starts, pool).all()
        assert np.unique(starts).size > min(pool.size // 2, 100)

    def test_kernel_hits_the_points_the_mass_counts(self):
        # with start_j = 0 and cap 1 the kernel tests each start alone: on
        # the whole orbit it marks the points the target's mass counts
        system = manneville_pomeau(0.5)
        measure = EmpiricalOrbit(system, master_seed=2, orbit_len=50_000,
                                 burn_in=1000)
        target = ball_target(measure, 0.3, mass=0.01)
        (a, b), = target.arcs
        lo, hi = fixed_to_float(a), fixed_to_float(b)
        orbit = measure.orbit
        _, hit = engine.mp_first_hit(orbit.size, s_exp=system.s, lo=lo,
                                     hi=hi, cap=1, start_j=0, starts=orbit)
        assert np.array_equal(orbit[hit], measure.points_in(target.arcs))
        assert hit.sum() / measure.orbit_len == measure.interval_mass(a, b)
        # the lower float end is inside, the upper one outside
        ends = np.array([np.nextafter(lo, 0), lo, np.nextafter(hi, 0), hi])
        _, hit = engine.mp_first_hit(4, s_exp=system.s, lo=lo, hi=hi, cap=1,
                                     start_j=0, starts=ends)
        assert hit.tolist() == [False, True, True, False]

    def test_cylinder_targets_unsupported(self):
        system = manneville_pomeau(0.2)
        tgt = tent_cylinder(4)
        with pytest.raises(UnsupportedCombination):
            sample_hit_times(system, tgt, cap=100, n_samples=10, seed=1)


def test_rotation_needs_lebesgue():
    # hitting runs share evl's start sampler and its measure check
    target = ball_target(LEB_C, 0.3, mass=0.02)
    with pytest.raises(UnsupportedCombination, match="Lebesgue"):
        first_hits(rotation("golden"), target, cap=100, n_samples=10, seed=1,
                   labels=("rotation-measure",),
                   measure=BernoulliDoubling(0.3))


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
                  labels=("one-scan", case))
        got = sample_ball_min_distances(obs, system, threads=threads, **kw)
        want = per_block_orbit_min_distances(obs, system, **kw)
        assert np.array_equal(got, want)
        assert np.unique(got).size > 100


def _cylinder(system, measure, zeta, depth):
    return cylinder_target(PartitionContext(system, measure), zeta, depth)


BERNOULLI = BernoulliDoubling(0.3)
# id: (system, measure, target, conditional, start_j, cap); no cap is a
# whole number of 256-step chunks
DIGIT_RUNS = {
    "tent-cylinder-hit": lambda: (
        full_tent(), LEB_I, _cylinder(full_tent(), LEB_I, 0.3, 8), False, 1,
        3000),
    "tent-cylinder-from-zero": lambda: (
        full_tent(), LEB_I, _cylinder(full_tent(), LEB_I, 0.3, 8), False, 0,
        777),
    "bernoulli-cylinder-return": lambda: (
        doubling(), BERNOULLI, _cylinder(doubling(), BERNOULLI, 0.3, 6), True,
        1, 1000),
    "doubling-cylinder-past-a-chunk": lambda: (
        doubling(), LEB_C, _cylinder(doubling(), LEB_C, 0.3, 8), True, 300,
        300 + 777),
    "circle-ball-two-pieces": lambda: (
        doubling(), LEB_C, ball_target(LEB_C, 0.0, mass=0.004), False, 1,
        2000),
    "circle-ball-two-pieces-return": lambda: (
        doubling(), LEB_C, ball_target(LEB_C, 0.0, mass=0.004), True, 1,
        2000),
    "tent-ball-from-zero": lambda: (
        full_tent(), LEB_I, ball_target(LEB_I, 0.3, mass=0.01), False, 0,
        999),
    "bernoulli-ball-return": lambda: (
        doubling(), BERNOULLI, ball_target(BERNOULLI, 0.3, mass=0.005), True,
        1, 1500),
    "bernoulli-ball-past-a-chunk": lambda: (
        doubling(), BERNOULLI, ball_target(BERNOULLI, 0.3, mass=0.005), True,
        300, 300 + 555),
    # about a quarter of the lanes hit in the first chunk, so the blocks
    # compact at the first chunk or the second
    "compaction-split": lambda: (
        doubling(), LEB_C, ball_target(LEB_C, 0.3, mass=0.00112), False, 1,
        1200),
}


class TestOneDigitScan:
    """A tent or doubling first-hit run scans all its blocks in one pass.
    Each block still draws exactly what it drew when it ran alone: its
    starts, then one digit matrix per chunk over its own live lanes, which
    it compacts on its own done share.  Four full blocks and a ragged one
    of 5."""

    N = 4 * BLOCK + 5
    SEED = 21

    def run(self, monkeypatch, case):
        """(times, hit) of one scan, checked against each block run alone,
        and the draw shapes of every block."""
        system, measure, target, conditional, start_j, cap = DIGIT_RUNS[case]()
        labels = ("one-digit-scan", case)
        scanned = []

        def recording(*args):
            scanned[:] = [RecordingGen(gen) for gen in block_substreams(*args)]
            return scanned

        monkeypatch.setattr(engine, "block_substreams", recording)
        kw = dict(cap=cap, n_samples=self.N, conditional=conditional,
                  start_j=start_j, measure=measure)
        times, hit = first_hits(system, target, seed=self.SEED, labels=labels,
                                threads=2, **kw)
        alone = [RecordingGen(substream(self.SEED, *labels, index))
                 for index, _, _ in block_slices(self.N)]
        want_times, want_hit = per_block_digit_hits(system, target, alone,
                                                    **kw)
        assert np.array_equal(times, want_times)
        assert np.array_equal(hit, want_hit)
        shapes = [gen.shapes for gen in scanned]
        assert shapes == [gen.shapes for gen in alone]
        return hit, shapes

    @pytest.mark.parametrize("case", sorted(DIGIT_RUNS))
    def test_one_scan_equals_each_block_alone(self, monkeypatch, case):
        hit, _ = self.run(monkeypatch, case)
        assert 0.0 < hit.mean()

    def test_blocks_compact_and_empty_on_their_own(self, monkeypatch):
        def rows(shapes):
            # (rows, words) draws; a byte-lane draw's tie words are 1-d
            return [shape[0] for shape in shapes if isinstance(shape, tuple)]

        _, shapes = self.run(monkeypatch, "compaction-split")
        first_drop = {next(i for i, r in enumerate(rows(s)) if r < BLOCK)
                      for s in shapes[:4]}
        assert len(first_drop) > 1
        # the block of 5 lanes stops drawing while the full blocks go on
        _, shapes = self.run(monkeypatch, "tent-cylinder-hit")
        assert len(shapes[-1]) < min(len(s) for s in shapes[:-1])


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
