"""Level construction and block-maxima sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest

from evlhts.cylinders import PartitionContext, cylinder_word
from evlhts.errors import DomainError, UnsupportedCombination
from evlhts.engine import iid_min_distance_uniform
from evlhts.evl import (
    Normalizers,
    ball_maxima_values,
    cylinder_schedule,
    iid_no_exceedance,
    quantile_normalizers,
    sample_ball_min_distances,
    sample_cylinder_no_entry,
)
from evlhts.laws import EmpiricalLaw
from evlhts.measures import BernoulliDoubling, EmpiricalOrbit, Lebesgue1D
from evlhts.observables import BallObservable, CylinderObservable, GKind, GShape
from evlhts.rng import substream
from evlhts.systems import (
    Metric,
    doubling,
    full_tent,
    manneville_pomeau,
    rotation,
)
from reference import (
    iid_digit_min_distances,
    itinerary,
    per_block_orbit_min_distances,
)

G1 = GShape(GKind.G1)
G2 = GShape(GKind.G2, alpha=1.0)
G3 = GShape(GKind.G3, alpha=1.0)


def tent_cylinder_obs(g, zeta=Fraction(1)):
    ctx = PartitionContext(full_tent(), Lebesgue1D(Metric.INTERVAL))
    return CylinderObservable(g, ctx, zeta)


class TestNormalizers:
    def test_log_shape(self):
        norm = quantile_normalizers(G1, 64)
        assert norm == Normalizers(1.0, math.log(64))
        assert norm.level(0.5) == pytest.approx(math.log(64) + 0.5)

    def test_power_shape(self):
        assert quantile_normalizers(G2, 8) == Normalizers(0.125, 0.0)
        assert quantile_normalizers(G2, 8).level(3.0) == 24.0
        root = quantile_normalizers(GShape(GKind.G2, alpha=2.0), 16)
        assert root == Normalizers(0.25, 0.0)

    def test_bounded_shape(self):
        norm = quantile_normalizers(G3, 8)
        assert norm == Normalizers(8.0, 1.0)
        assert norm.level(-1.0) == 1.0 - 0.125

    def test_rescale_inverts_level(self):
        norm = quantile_normalizers(G1, 50)
        ys = np.array([-1.0, 0.0, 2.0])
        levels = np.array([norm.level(y) for y in ys])
        assert norm.rescale(levels) == pytest.approx(ys)


class TestSupport:
    def test_power_shape_rejects_nonpositive_y(self):
        assert G2.pinned(0.0) == 0.0
        assert G2.pinned(-3.0) == 0.0
        assert G2.pinned(1.0) is None

    def test_bounded_shape_rejects_nonnegative_y(self):
        assert G3.pinned(0.0) == 1.0
        assert G3.pinned(2.0) == 1.0
        assert G3.pinned(-1.0) is None

    def test_log_shape_supports_all_y(self):
        assert G1.pinned(-100.0) is None


class TestGammaLevel:
    """The quantile level gamma_n = g(1/n) must reproduce the closed forms
    of the smooth tails: tail e^-u gives log n, tail u^-alpha gives
    n^(1/alpha), tail (1 - u)^alpha gives 1 - n^(-1/alpha)."""

    NS = [10, 100, 1000, 10**4, 10**5, 10**6]

    def test_log_shape_quantile(self):
        for n in self.NS:
            norms = quantile_normalizers(G1, n)
            assert norms.a == 1.0
            assert norms.b == pytest.approx(math.log(n), rel=1e-9)

    def test_power_shape_quantile(self):
        for n in self.NS:
            norms = quantile_normalizers(G2, n)
            assert norms.b == 0.0
            assert 1.0 / norms.a == pytest.approx(float(n), rel=1e-9)
        half = GShape(GKind.G2, alpha=0.5)
        assert 1.0 / quantile_normalizers(half, 100).a == pytest.approx(
            1e4, rel=1e-9)

    def test_bounded_shape_quantile(self):
        quad = GShape(GKind.G3, alpha=2.0)
        for n in self.NS:
            norms = quantile_normalizers(quad, n)
            assert norms.b == 1.0
            assert norms.level(-1.0) == pytest.approx(1.0 - n ** -0.5,
                                                      rel=1e-9)

    def test_smallest_block(self):
        # n = 1: every level exceeds with probability <= 1, so gamma is the
        # bottom of the range.
        assert quantile_normalizers(G1, 1).b == 0.0

    def test_block_length_validation(self):
        with pytest.raises(DomainError):
            quantile_normalizers(G1, 0)


class TestQuantileNormalizers:
    def test_matches_closed_forms(self):
        cases = [(G1, 1000, 1.0, math.log(1000)),
                 (G2, 512, 1 / 512, 0.0),
                 (GShape(GKind.G2, alpha=2.0), 81, 1 / 9, 0.0),
                 (GShape(GKind.G3, alpha=2.0), 400, 20.0, 1.0)]
        for g, n, a, b in cases:
            got = quantile_normalizers(g, n)
            assert got.a == pytest.approx(a, rel=1e-9)
            assert got.b == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestGForwardArray:
    def test_matches_scalar(self):
        masses = np.array([1.0, 0.5, 0.125, 1e-6])
        for g in (G1, G2, GShape(GKind.G2, alpha=2.0),
                  GShape(GKind.G3, alpha=2.0)):
            want = [g.forward(float(m)) for m in masses]
            assert g.forward_array(masses) == pytest.approx(want, rel=1e-14)

    def test_zero_mass(self):
        assert G1.forward_array(np.array([0.0]))[0] == math.inf
        assert G2.forward_array(np.array([0.0]))[0] == math.inf
        assert G3.forward_array(np.array([0.0]))[0] == 1.0


class TestCylinderSchedule:
    def test_dyadic_anchor(self):
        obs = tent_cylinder_obs(G2)
        s = cylinder_schedule(obs, depth=12, tau=1.0)
        assert s.level == 2048.0
        assert s.event_depth == 12
        assert s.event_mass == 2.0 ** -12
        assert s.window == 4096
        assert cylinder_word(obs.ctx, obs.zeta, s.event_depth) == 1 << 11

    def test_window_scales_with_tau(self):
        obs = tent_cylinder_obs(G2)
        assert cylinder_schedule(obs, depth=12, tau=0.5).window == 2048
        assert cylinder_schedule(obs, depth=12, tau=2.0).window == 8192

    def test_one_anchor_deeper(self):
        obs = tent_cylinder_obs(G2)
        s = cylinder_schedule(obs, depth=13, tau=1.0)
        assert s.level == 4096.0
        assert s.event_depth == 13
        assert s.window == 8192

    def test_shallowest_anchor(self):
        obs = tent_cylinder_obs(G2)
        s = cylinder_schedule(obs, depth=1, tau=1.0)
        assert s.level == 1.0  # g(full mass)
        assert s.event_depth == 1
        assert s.event_mass == 0.5
        assert s.window == 2

    def test_bernoulli_masses(self):
        ctx = PartitionContext(doubling(), BernoulliDoubling(0.3))
        obs = CylinderObservable(GShape(GKind.G1), ctx, 0.0)
        s = cylinder_schedule(obs, depth=3, tau=1.0)
        assert s.event_mass == pytest.approx(0.3 ** 3)
        assert s.window == int(1.0 / 0.3 ** 3)
        assert cylinder_word(ctx, 0.0, s.event_depth) == 0

    @pytest.mark.parametrize("system, measure", [
        (full_tent(), Lebesgue1D(Metric.INTERVAL)),
        (doubling(), BernoulliDoubling(0.3)),
    ], ids=["tent-lebesgue", "doubling-bernoulli"])
    @pytest.mark.parametrize("g", [G1, G2, G3], ids=["g1", "g2", "g3"])
    def test_event_is_the_cell_below_the_anchor(self, g, system, measure):
        # g(ladder mass) and back may round above the mass; the event cell
        # must still be the one below the anchor, never the anchor itself
        ctx = PartitionContext(system, measure)
        misses = []
        for zeta in (0.1, 0.3, 0.7, 0.77, 1 / 3):
            obs = CylinderObservable(g, ctx, zeta)
            for depth in range(2, 41):
                s = cylinder_schedule(obs, depth=depth, tau=1.0)
                if s.event_depth != depth:
                    misses.append((zeta, depth, s.event_depth))
        assert misses == []

    def test_validation(self):
        obs = tent_cylinder_obs(G2)
        with pytest.raises(DomainError):
            cylinder_schedule(obs, depth=0, tau=1.0)
        with pytest.raises(DomainError):
            cylinder_schedule(obs, depth=5, tau=0.0)
        with pytest.raises(DomainError):
            cylinder_schedule(obs, depth=5, tau=math.inf)
        with pytest.raises(DomainError):
            cylinder_schedule(obs, depth=1, tau=0.3)  # window floor = 0


def avoid_probability(word, positions):
    """Exact chance that an iid fair letter stream shows ``word`` at none of
    the first ``positions`` sliding offsets (prefix-automaton recursion).

    Tent letters are fair and independent under Lebesgue (each letter is
    the XOR of consecutive iid fair digits), so this is the exact law of
    the dynamical no-entry event.
    """
    word = list(word)
    depth = len(word)
    trans = []
    for s in range(depth):
        row = []
        for c in (0, 1):
            pre = word[:s] + [c]
            nxt = 0
            for ln in range(min(len(pre), depth), 0, -1):
                if pre[-ln:] == word[:ln]:
                    nxt = ln
                    break
            row.append(nxt)
        trans.append(row)
    p = [0.0] * depth
    p[0] = 1.0
    for _ in range(positions - 1 + depth):
        q = [0.0] * depth
        for s, mass in enumerate(p):
            if mass:
                for c in (0, 1):
                    nxt = trans[s][c]
                    if nxt < depth:
                        q[nxt] += 0.5 * mass
        p = q
    return math.fsum(p)


class TestCylinderSampling:
    def test_iid_route_matches_binomial_formula(self):
        obs = tent_cylinder_obs(G2)
        sched = cylinder_schedule(obs, depth=8, tau=1.0)
        want = (1.0 - 2.0 ** -8) ** 256
        assert iid_no_exceedance(sched.event_mass, sched.window) == \
            pytest.approx(want, rel=1e-12)

    def test_dynamical_route_matches_exact_word_avoidance(self):
        obs = tent_cylinder_obs(G2)
        scheds = [cylinder_schedule(obs, depth=8, tau=tau)
                  for tau in (0.5, 1.0, 2.0)]
        flags = sample_cylinder_no_entry(obs, scheds, n_samples=10_000,
                                         seed=5)
        assert flags.shape == (10_000, 3)
        word = itinerary(obs.ctx, obs.zeta, scheds[0].event_depth)
        want = [avoid_probability(word, s.window) for s in scheds]
        assert want[1] == pytest.approx(0.3569, abs=1e-4)  # pins the oracle
        assert flags.mean(axis=0) == pytest.approx(want, abs=0.02)

    @pytest.mark.parametrize("obs, depth", [
        (tent_cylinder_obs(G2), 8),
        (CylinderObservable(G1, PartitionContext(
            doubling(), BernoulliDoubling(0.3)), 0.7), 6),
    ])
    def test_columns_are_nested(self, obs, depth):
        # no entry by a longer window implies no entry by a shorter one
        scheds = [cylinder_schedule(obs, depth=depth, tau=tau)
                  for tau in (0.5, 1.0, 2.0)]
        flags = sample_cylinder_no_entry(obs, scheds, n_samples=4000, seed=3)
        assert np.all(flags[:, :-1] >= flags[:, 1:])
        assert flags[:, 0].sum() > flags[:, -1].sum()

    def test_schedules_must_share_the_event_cell(self):
        obs = tent_cylinder_obs(G2)
        scheds = [cylinder_schedule(obs, depth=d, tau=1.0) for d in (6, 8)]
        with pytest.raises(DomainError):
            sample_cylinder_no_entry(obs, scheds, n_samples=10, seed=1)
        with pytest.raises(DomainError):
            sample_cylinder_no_entry(obs, [], n_samples=10, seed=1)

    def test_rotation_context_rejected(self):
        ctx = PartitionContext(rotation("golden"), Lebesgue1D(Metric.CIRCLE))
        obs = CylinderObservable(G2, ctx, 0.0)
        sched_src = tent_cylinder_obs(G2)
        sched = cylinder_schedule(sched_src, depth=4, tau=1.0)
        with pytest.raises(UnsupportedCombination):
            sample_cylinder_no_entry(obs, [sched], n_samples=10, seed=1)


class TestBallSampling:
    def test_iid_route_matches_closed_form(self):
        # iid uniform circle points: P(min distance >= eta) = (1 - 2 eta)^n.
        measure = Lebesgue1D(Metric.CIRCLE)
        obs = BallObservable(G1, measure, 0.25)
        u = -math.log(0.02)  # tail mass 0.02, radius 0.01
        assert ball_maxima_values(np.array([0.01]), obs) == pytest.approx([u])
        want = (1.0 - 0.02) ** 20
        assert iid_no_exceedance(obs.g.tail_fraction(u), 20) == \
            pytest.approx(want, abs=1e-8)
        # a level below g(1) is exceeded everywhere, though log1p(-1) = -inf
        assert iid_no_exceedance(obs.g.tail_fraction(-3.0), 20) == 0.0

    def test_dynamical_route_at_the_standard_level(self):
        # Level with tail 1/n: the no-exceedance probability approaches
        # e^-1 (the exceedance set is a ball, visits decorrelate fast).
        n = 4096
        measure = Lebesgue1D(Metric.CIRCLE)
        obs = BallObservable(G1, measure, 0.3)
        norms = quantile_normalizers(G1, n)
        d = sample_ball_min_distances(
            obs, doubling(), n_steps=n, n_samples=4000, seed=11
        )
        maxima = EmpiricalLaw(norms.rescale(ball_maxima_values(d, obs)))
        assert maxima.cdf(0.0) == pytest.approx(math.exp(-1.0), abs=0.03)

    def test_maxima_values_vectorize_g_of_ball_mass(self):
        measure = Lebesgue1D(Metric.CIRCLE)
        obs = BallObservable(G1, measure, 0.25)
        vals = ball_maxima_values(np.array([0.25, 0.1]), obs)
        assert vals == pytest.approx([-math.log(0.5), -math.log(0.2)])

    def test_determinism_and_route_separation(self):
        measure = Lebesgue1D(Metric.CIRCLE)
        obs = BallObservable(G1, measure, 0.7)
        kw = dict(n_steps=64, n_samples=3000, seed=21)
        a = sample_ball_min_distances(obs, doubling(), **kw)
        b = sample_ball_min_distances(obs, doubling(), **kw)
        assert np.array_equal(a, b)

    def test_rotation_wrapper_matches_engine(self):
        system = rotation("golden")
        obs = BallObservable(G1, Lebesgue1D(Metric.CIRCLE), 0.0)
        kw = dict(n_steps=100, n_samples=500, seed=4, labels=("x",))
        got = sample_ball_min_distances(obs, system, **kw)
        want = per_block_orbit_min_distances(obs, system, **kw)
        assert np.array_equal(got, want)

    def test_intermittent_smoke(self):
        system = manneville_pomeau(0.2)
        measure = EmpiricalOrbit(system, master_seed=1, orbit_len=20_000,
                                 burn_in=1000)
        obs = BallObservable(G1, measure, 0.5)
        d = sample_ball_min_distances(
            obs, system, n_steps=50, n_samples=400, seed=6
        )
        assert d.shape == (400,)
        assert np.all((d >= 0) & (d <= 1))

    def test_digit_measure_required(self):
        system = doubling()
        orbit_measure = EmpiricalOrbit(manneville_pomeau(0.2), orbit_len=1000,
                                       burn_in=10)
        obs = BallObservable(G1, orbit_measure, 0.5)
        with pytest.raises(UnsupportedCombination):
            sample_ball_min_distances(obs, system, n_steps=5, n_samples=10,
                                      seed=1)

    def test_rotation_needs_lebesgue(self):
        orbit_measure = EmpiricalOrbit(manneville_pomeau(0.2), orbit_len=1000,
                                       burn_in=10)
        obs = BallObservable(G1, orbit_measure, 0.5)
        with pytest.raises(UnsupportedCombination, match="Lebesgue"):
            sample_ball_min_distances(obs, rotation("golden"), n_steps=5,
                                      n_samples=10, seed=1)


class TestExactIidLaw:
    """The closed forms (1 - m)^n are the laws the iid draws they replace
    sample: each agrees with a Monte Carlo of n independent draws from the
    measure at |z| <= 4."""

    LANES = 20_000
    N = 50
    U = -math.log(0.02)  # a g1 level with exceedance mass 0.02

    def check(self, obs, min_distances):
        exact = iid_no_exceedance(obs.g.tail_fraction(self.U), self.N)
        assert 0.2 < exact < 0.5
        share = np.mean(ball_maxima_values(min_distances, obs) <= self.U)
        z = (share - exact) / math.sqrt(exact * (1.0 - exact) / self.LANES)
        assert abs(z) <= 4.0

    @pytest.mark.parametrize("metric, zeta", [
        (Metric.CIRCLE, 0.25),
        (Metric.INTERVAL, 0.3),
        (Metric.INTERVAL, 0.004),  # the ball is clipped at 0
    ])
    def test_lebesgue_balls(self, metric, zeta):
        obs = BallObservable(G1, Lebesgue1D(metric), zeta)
        d = iid_min_distance_uniform(
            substream(3, "exact-iid", metric.value, zeta), self.LANES,
            n_draws=self.N, zeta=zeta, circle=metric is Metric.CIRCLE)
        self.check(obs, d)

    def test_bernoulli_balls(self):
        obs = BallObservable(G1, BernoulliDoubling(0.3), 0.3)
        d = iid_digit_min_distances(
            substream(3, "exact-iid", "bernoulli"), self.LANES,
            n_draws=self.N, p_zero=0.3, zeta=0.3, metric=Metric.CIRCLE)
        self.check(obs, d)

    def test_orbit_measure_balls(self):
        measure = EmpiricalOrbit(manneville_pomeau(0.5), master_seed=1,
                                 orbit_len=20_000, burn_in=1000)
        obs = BallObservable(G1, measure, 0.3)
        gen = substream(3, "exact-iid", "orbit")
        idx = gen.integers(0, measure.orbit.size, size=(self.LANES, self.N))
        d = np.abs(measure.orbit[idx] - 0.3).min(axis=1)
        self.check(obs, d)

    @pytest.mark.parametrize("obs", [
        tent_cylinder_obs(G2),
        CylinderObservable(G2, PartitionContext(
            doubling(), BernoulliDoubling(0.3)), 0.3),
    ])
    def test_cylinder_no_entry(self, obs):
        sched = cylinder_schedule(obs, depth=8, tau=1.0)
        exact = iid_no_exceedance(sched.event_mass, sched.window)
        gen = substream(3, "exact-iid", "binomial")
        share = np.mean(
            gen.binomial(sched.window, sched.event_mass, self.LANES) == 0)
        z = (share - exact) / math.sqrt(exact * (1.0 - exact) / self.LANES)
        assert abs(z) <= 4.0

    def test_window_of_2_to_62_steps(self):
        # 1 - 2^-62 rounds to 1.0, so the naive power loses the event
        mass, window = 2.0 ** -62, 2 ** 62
        assert (1.0 - mass) ** window == 1.0
        assert iid_no_exceedance(mass, window) == pytest.approx(
            math.exp(-1.0), rel=1e-15)
