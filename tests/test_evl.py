"""Level construction and block-maxima sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest

from evlhts.cylinders import PartitionContext, cylinder_word
from evlhts.errors import (
    DegenerateTail,
    DomainError,
    UnsupportedCombination,
)
from evlhts.engine import iid_min_distance_uniform
from evlhts.evl import (
    CylinderSchedule,
    Normalizers,
    ball_maxima_values,
    cylinder_schedule,
    degenerate_probability,
    g_forward_array,
    gamma_level,
    iid_no_entry,
    iid_prob_max_below,
    prob_max_below,
    proof_normalizers,
    quantile_normalizers,
    sample_ball_min_distances,
    sample_cylinder_no_entry,
)
from evlhts.hts import pack_word
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
from reference import iid_digit_min_distances

G1 = GShape(GKind.G1)
G2 = GShape(GKind.G2, alpha=1.0)
G3 = GShape(GKind.G3, alpha=1.0, top=1.0)


def tent_cylinder_obs(g, zeta=Fraction(1)):
    ctx = PartitionContext(full_tent(), Lebesgue1D(Metric.INTERVAL))
    return CylinderObservable(g, ctx, zeta)


class TestNormalizers:
    def test_log_shape(self):
        norm = proof_normalizers(G1, 100)
        assert norm == Normalizers(1.0, math.log(100))
        assert norm.level(0.5) == pytest.approx(math.log(100) + 0.5)

    def test_power_shape(self):
        assert proof_normalizers(G2, 8) == Normalizers(0.125, 0.0)
        assert proof_normalizers(G2, 8).level(3.0) == pytest.approx(24.0)
        root = proof_normalizers(GShape(GKind.G2, alpha=2.0), 16)
        assert root.a == pytest.approx(0.25)

    def test_bounded_shape(self):
        g = GShape(GKind.G3, alpha=1.0, top=2.0)
        norm = proof_normalizers(g, 8)
        assert norm == Normalizers(8.0, 2.0)
        assert norm.level(-1.0) == pytest.approx(2.0 - 0.125)

    def test_rescale_inverts_level(self):
        norm = proof_normalizers(G1, 50)
        ys = np.array([-1.0, 0.0, 2.0])
        levels = np.array([norm.level(y) for y in ys])
        assert norm.rescale(levels) == pytest.approx(ys)

    def test_block_length_must_be_positive(self):
        with pytest.raises(DomainError):
            proof_normalizers(G1, 0)


class TestSupport:
    def test_power_shape_rejects_nonpositive_y(self):
        assert degenerate_probability(G2, 0.0) == 0.0
        assert degenerate_probability(G2, -3.0) == 0.0
        assert degenerate_probability(G2, 1.0) is None

    def test_bounded_shape_rejects_nonnegative_y(self):
        assert degenerate_probability(G3, 0.0) == 1.0
        assert degenerate_probability(G3, 2.0) == 1.0
        assert degenerate_probability(G3, -1.0) is None

    def test_log_shape_supports_all_y(self):
        assert degenerate_probability(G1, -100.0) is None


class TestGammaLevel:
    """The bisected quantile must reproduce the closed forms of the smooth
    tails: tail e^-u gives log n, tail u^-alpha gives n^(1/alpha), tail
    (top - u)^alpha gives top - n^(-1/alpha)."""

    NS = [10, 100, 1000, 10**4, 10**5, 10**6]

    def test_log_shape_quantile(self):
        for n in self.NS:
            assert gamma_level(G1, n) == pytest.approx(math.log(n), rel=1e-9)

    def test_power_shape_quantile(self):
        for n in self.NS:
            assert gamma_level(G2, n) == pytest.approx(float(n), rel=1e-9)
        half = GShape(GKind.G2, alpha=0.5)
        assert gamma_level(half, 100) == pytest.approx(1e4, rel=1e-9)

    def test_bounded_shape_quantile(self):
        quad = GShape(GKind.G3, alpha=2.0, top=1.0)
        for n in self.NS:
            assert gamma_level(quad, n) == pytest.approx(
                1.0 - n ** -0.5, rel=1e-9
            )

    def test_smallest_block(self):
        # n = 1: every level exceeds with probability <= 1, so gamma is the
        # bottom of the range.
        assert gamma_level(G1, 1) == 0.0

    def test_cylinder_ladder_quantile(self):
        # Step tail of the dyadic ladder: solvable exactly when 1/n is a
        # ladder mass, refused otherwise.
        obs = tent_cylinder_obs(G2)

        def tail(u):
            return obs.ladder_mass(obs.exceedance_depth(u))

        assert gamma_level(G2, 8, tail=tail) == 4.0
        with pytest.raises(DegenerateTail):
            gamma_level(G2, 3, tail=tail)

    def test_block_length_validation(self):
        with pytest.raises(DomainError):
            gamma_level(G1, 0)


class TestQuantileNormalizers:
    def test_matches_proof_route(self):
        for g, n in [(G1, 1000), (G2, 512), (GShape(GKind.G2, alpha=2.0), 81),
                     (GShape(GKind.G3, alpha=2.0, top=1.5), 400)]:
            got = quantile_normalizers(g, n)
            want = proof_normalizers(g, n)
            assert got.a == pytest.approx(want.a, rel=1e-9)
            assert got.b == pytest.approx(want.b, rel=1e-9, abs=1e-9)


class TestGForwardArray:
    def test_matches_scalar(self):
        masses = np.array([1.0, 0.5, 0.125, 1e-6])
        for g in (G1, G2, GShape(GKind.G2, alpha=2.0),
                  GShape(GKind.G3, alpha=2.0, top=1.5)):
            want = [g.forward(float(m)) for m in masses]
            assert g_forward_array(g, masses) == pytest.approx(want, rel=1e-14)

    def test_zero_mass(self):
        assert g_forward_array(G1, np.array([0.0]))[0] == math.inf
        assert g_forward_array(G2, np.array([0.0]))[0] == math.inf
        assert g_forward_array(G3, np.array([0.0]))[0] == 1.0


class TestCylinderSchedule:
    def test_dyadic_anchor(self):
        obs = tent_cylinder_obs(G2)
        s = cylinder_schedule(obs, depth=12, tau=1.0)
        assert s.level == 2048.0
        assert s.event_depth == 12
        assert s.event_mass == 2.0 ** -12
        assert s.window == 4096
        assert cylinder_word(obs.ctx, obs.zeta, s.event_depth) == \
            (1,) + (0,) * 11

    def test_window_scales_with_tau(self):
        obs = tent_cylinder_obs(G2)
        assert cylinder_schedule(obs, depth=12, tau=0.5).window == 2048
        assert cylinder_schedule(obs, depth=12, tau=2.0).window == 8192

    def test_deep_convention(self):
        obs = tent_cylinder_obs(G2)
        s = cylinder_schedule(obs, depth=12, tau=1.0, convention="deep")
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
        assert cylinder_word(ctx, 0.0, s.event_depth) == (0, 0, 0)

    @pytest.mark.parametrize("convention, offset", [("step", 0), ("deep", 1)])
    @pytest.mark.parametrize("system, measure", [
        (full_tent(), Lebesgue1D(Metric.INTERVAL)),
        (doubling(), BernoulliDoubling(0.3)),
    ], ids=["tent-lebesgue", "doubling-bernoulli"])
    @pytest.mark.parametrize("g", [G1, G2, G3], ids=["g1", "g2", "g3"])
    def test_event_is_the_cell_the_convention_names(self, g, system, measure,
                                                    convention, offset):
        # g(ladder mass) and back may round above the mass; the event cell
        # must still be the one below the anchor, never the anchor itself
        ctx = PartitionContext(system, measure)
        misses = []
        for zeta in (0.1, 0.3, 0.7, 0.77, 1 / 3):
            obs = CylinderObservable(g, ctx, zeta)
            for depth in range(2, 40):
                s = cylinder_schedule(obs, depth=depth, tau=1.0,
                                      convention=convention)
                if s.event_depth != depth + offset:
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
        with pytest.raises(DomainError):
            cylinder_schedule(obs, depth=5, tau=1.0, convention="sideways")


class TestPackWord:
    def test_values(self):
        assert pack_word((1, 0, 1)) == 5
        assert pack_word((0, 0, 1)) == 1
        assert pack_word(()) == 0


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
        assert iid_no_entry(sched) == pytest.approx(want, rel=1e-12)

    def test_dynamical_route_matches_exact_word_avoidance(self):
        obs = tent_cylinder_obs(G2)
        sched = cylinder_schedule(obs, depth=8, tau=1.0)
        flags = sample_cylinder_no_entry(obs, sched, n_samples=10_000, seed=5)
        word = cylinder_word(obs.ctx, obs.zeta, sched.event_depth)
        want = avoid_probability(word, sched.window)
        assert want == pytest.approx(0.3569, abs=1e-4)  # pins the oracle
        assert flags.mean() == pytest.approx(want, abs=0.02)

    def test_threads_do_not_change_the_sample(self):
        obs = tent_cylinder_obs(G2)
        sched = cylinder_schedule(obs, depth=6, tau=1.0)
        one = sample_cylinder_no_entry(obs, sched, n_samples=5000, seed=9)
        eight = sample_cylinder_no_entry(
            obs, sched, n_samples=5000, seed=9, threads=8
        )
        assert np.array_equal(one, eight)

    def test_rotation_context_rejected(self):
        ctx = PartitionContext(rotation("golden"), Lebesgue1D(Metric.CIRCLE))
        obs = CylinderObservable(G2, ctx, 0.0)
        sched_src = tent_cylinder_obs(G2)
        sched = cylinder_schedule(sched_src, depth=4, tau=1.0)
        with pytest.raises(UnsupportedCombination):
            sample_cylinder_no_entry(obs, sched, n_samples=10, seed=1)


class TestBallSampling:
    def test_iid_route_matches_closed_form(self):
        # iid uniform circle points: P(min distance >= eta) = (1 - 2 eta)^n.
        measure = Lebesgue1D(Metric.CIRCLE)
        obs = BallObservable(G1, measure, 0.25)
        u = -math.log(0.02)  # tail mass 0.02, radius 0.01
        want = (1.0 - 0.02) ** 20
        assert iid_prob_max_below(obs, u, 20) == pytest.approx(want, abs=1e-8)

    def test_dynamical_route_at_the_standard_level(self):
        # Level with tail 1/n: the no-exceedance probability approaches
        # e^-1 (the exceedance set is a ball, visits decorrelate fast).
        n = 4096
        measure = Lebesgue1D(Metric.CIRCLE)
        obs = BallObservable(G1, measure, 0.3)
        u = proof_normalizers(G1, n).level(0.0)
        d = sample_ball_min_distances(
            obs, doubling(), n_steps=n, n_samples=4000, seed=11
        )
        assert prob_max_below(d, obs, u) == pytest.approx(
            math.exp(-1.0), abs=0.03
        )

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
        from evlhts.engine import rotation_min_distance, run_blocked

        system = rotation("golden")
        obs = BallObservable(G1, Lebesgue1D(Metric.CIRCLE), 0.0)
        got = sample_ball_min_distances(
            obs, system, n_steps=100, n_samples=500, seed=4,
            labels=("x",),
        )

        def kernel(gen, count):
            return rotation_min_distance(
                gen, count, step_fixed=system.fixed_angle, zeta_fixed=0,
                n_steps=100,
            )

        want = run_blocked(500, 4, ("x", "dyn"), kernel)[0]
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


class TestExactIidLaw:
    """The closed forms (1 - m)^n are the laws the iid draws they replace
    sample: each agrees with a Monte Carlo of n independent draws from the
    measure at |z| <= 4."""

    LANES = 20_000
    N = 50
    U = -math.log(0.02)  # a g1 level with exceedance mass 0.02

    def check(self, obs, min_distances):
        exact = iid_prob_max_below(obs, self.U, self.N)
        assert 0.2 < exact < 0.5
        share = prob_max_below(min_distances, obs, self.U)
        z = (share - exact) / math.sqrt(exact * (1.0 - exact) / self.LANES)
        assert abs(z) <= 4.0

    @pytest.mark.parametrize("metric, zeta", [
        (Metric.CIRCLE, 0.25),
        (Metric.INTERVAL, 0.3),
        (Metric.INTERVAL, 0.004),  # the ball is clipped at 0
    ])
    def test_lebesgue_balls(self, metric, zeta):
        obs = BallObservable(G1, Lebesgue1D(metric), zeta)
        d, = iid_min_distance_uniform(
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
        exact = iid_no_entry(sched)
        gen = substream(3, "exact-iid", "binomial")
        share = np.mean(
            gen.binomial(sched.window, sched.event_mass, self.LANES) == 0)
        z = (share - exact) / math.sqrt(exact * (1.0 - exact) / self.LANES)
        assert abs(z) <= 4.0

    def test_window_of_2_to_62_steps(self):
        # 1 - 2^-62 rounds to 1.0, so the naive power loses the event
        mass, window = 2.0 ** -62, 2 ** 62
        assert (1.0 - mass) ** window == 1.0
        sched = CylinderSchedule(depth=62, tau=1.0, level=62.0,
                                 event_depth=62, event_mass=mass,
                                 window=window)
        assert iid_no_entry(sched) == pytest.approx(math.exp(-1.0),
                                                    rel=1e-15)
