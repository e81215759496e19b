import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evlhts.cylinders import PartitionContext
from evlhts.errors import DomainError, OutOfRange
from evlhts.measures import BernoulliDoubling, Lebesgue1D
from evlhts.observables import BallObservable, CylinderObservable, GKind, GShape
from evlhts.systems import Metric, doubling, full_tent
from reference import ball_evaluate, cylinder_evaluate, cylinder_evaluate_ex

# Levels with 1e-6 <= |y| <= 50, and both zeros: for alpha in [0.1, 10]
# every finite nonzero tau(y) is then a normal float.  At a smaller |y|,
# (-y)^alpha can underflow to 0 inside the support of the law, which is
# rounding, not the edge of the support.
LEVELS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(math.copysign, st.floats(1e-6, 50.0),
              st.sampled_from([1.0, -1.0])),
)

ALL_SHAPES = [
    GShape(GKind.G1),
    GShape(GKind.G2, alpha=0.5),
    GShape(GKind.G2, alpha=1.0),
    GShape(GKind.G2, alpha=2.3),
    GShape(GKind.G3, alpha=0.5),
    GShape(GKind.G3, alpha=1.0),
    GShape(GKind.G3, alpha=2.3),
]


class TestGShape:
    @pytest.mark.parametrize("g", ALL_SHAPES)
    def test_round_trip(self, g):
        # tail_fraction is g^-1 on the range of g.  Type 3 levels near the
        # top lose relative precision to float cancellation in 1 - u, so
        # tiny masses are only tested for the unbounded shapes
        vs = [0.01, 0.3, 0.999, 1.0]
        if g.kind is not GKind.G3:
            vs = [1e-12, 1e-6] + vs
        for v in vs:
            assert g.tail_fraction(g.forward(v)) == pytest.approx(v, rel=1e-12)
        for v in [0.02, 0.5, 0.97]:
            u = g.forward(v)
            assert g.forward(g.tail_fraction(u)) == pytest.approx(u, rel=1e-12)

    def test_values_at_zero_mass(self):
        assert GShape(GKind.G1).forward(0.0) == math.inf
        assert GShape(GKind.G2).forward(0.0) == math.inf
        assert GShape(GKind.G3).forward(0.0) == 1.0
        assert GShape(GKind.G3).value_at_zero == 1.0

    def test_hand_values(self):
        assert GShape(GKind.G1).forward(0.125) == pytest.approx(3 * math.log(2))
        assert GShape(GKind.G2, alpha=1.0).forward(0.1) == pytest.approx(10.0)
        assert GShape(GKind.G2, alpha=2.0).forward(0.25) == pytest.approx(2.0)
        assert GShape(GKind.G3, alpha=1.0).forward(0.3) == pytest.approx(0.7)
        assert GShape(GKind.G3, alpha=2.0).forward(0.25) == \
            pytest.approx(0.5)

    def test_domain_errors(self):
        g1, g2, g3 = GShape(GKind.G1), GShape(GKind.G2), GShape(GKind.G3)
        with pytest.raises(OutOfRange):
            g1.forward(-0.1)
        with pytest.raises(OutOfRange):
            g1.forward(1.1)
        with pytest.raises(OutOfRange):  # (2^-11)^-100 = 2^1100
            GShape(GKind.G2, alpha=0.01).forward(2.0 ** -11)
        with pytest.raises(DomainError):
            GShape(GKind.G2, alpha=0.0)
        with pytest.raises(DomainError):
            GShape(GKind.G3, alpha=-1.0)

    def test_tail_fraction_clips(self):
        g2 = GShape(GKind.G2, alpha=1.0)
        assert g2.tail_fraction(0.5) == 1.0  # below g(1): exceeded everywhere
        assert g2.tail_fraction(10.0) == pytest.approx(0.1)
        assert g2.tail_fraction(math.inf) == 0.0
        g3 = GShape(GKind.G3, alpha=1.0)
        assert g3.tail_fraction(-0.5) == 1.0
        assert g3.tail_fraction(0.9) == pytest.approx(0.1)
        assert g3.tail_fraction(1.0) == 0.0
        assert g3.tail_fraction(2.0) == 0.0

    def test_tau_maps(self):
        assert GShape(GKind.G1).tau(0.0) == 1.0
        assert GShape(GKind.G1).tau(2.0) == pytest.approx(math.exp(-2.0))
        g2 = GShape(GKind.G2, alpha=1.0)
        assert g2.tau(2.0) == pytest.approx(0.5)
        assert g2.tau(0.0) == math.inf and g2.tau(-1.0) == math.inf
        g3 = GShape(GKind.G3, alpha=2.0)
        assert g3.tau(-2.0) == pytest.approx(4.0)
        assert g3.tau(0.0) == 0.0 and g3.tau(0.5) == 0.0

    @settings(max_examples=500, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(list(GKind)), alpha=st.floats(0.1, 10.0),
           y=LEVELS)
    def test_limit_law_is_exp_of_minus_tau(self, kind, alpha, y):
        # numpy's exp and power may differ from math's in the last bit, so
        # neither side is written through the other
        g = GShape(kind, alpha=alpha)
        tau = g.tau(y)
        if 0.0 < tau < math.inf:
            assert g.limit_cdf(y) == pytest.approx(math.exp(-tau), rel=1e-12,
                                                   abs=1e-300)
        pinned = g.pinned(y)
        if tau == math.inf:
            assert pinned is not None and pinned == 0.0
        elif tau == 0.0:
            assert pinned is not None and pinned == 1.0
        else:
            assert pinned is None

    @pytest.mark.parametrize("g, y", [
        (GShape(GKind.G1), -800.0),  # exp(800)
        (GShape(GKind.G2, alpha=200.0), 0.001),  # 0.001^-200
        (GShape(GKind.G3, alpha=2.0), -1e200),  # (1e200)^2
    ])
    def test_tau_overflow_is_out_of_range(self, g, y):
        with pytest.raises(OutOfRange, match="overflows"):
            g.tau(y)


class TestBallObservable:
    def test_tent_reciprocal_distance(self):
        # at zeta = 1 the interval ball of radius d has mass d, so phi = 1/d
        phi = BallObservable(
            GShape(GKind.G2, alpha=1.0), Lebesgue1D(Metric.INTERVAL), 1.0
        )
        assert ball_evaluate(phi, 0.9) == pytest.approx(10.0, rel=1e-12)
        assert ball_evaluate(phi, 1.0) == math.inf

    def test_circle_ball_counts_both_sides(self):
        phi = BallObservable(
            GShape(GKind.G2, alpha=1.0), Lebesgue1D(Metric.CIRCLE), 0.0
        )
        # B_0.1(0) on the circle is (0.9, 1) u [0, 0.1): mass 0.2
        assert ball_evaluate(phi, 0.9) == pytest.approx(5.0, rel=1e-12)

    def test_log_shape(self):
        phi = BallObservable(
            GShape(GKind.G1), Lebesgue1D(Metric.INTERVAL), 0.5
        )
        assert ball_evaluate(phi, 0.6) == pytest.approx(-math.log(0.2))

    def test_monotone_in_distance(self):
        phi = BallObservable(
            GShape(GKind.G3, alpha=1.0), Lebesgue1D(Metric.CIRCLE), 0.3
        )
        xs = [0.31, 0.34, 0.45, 0.7, 0.8]  # increasing circle distance from 0.3
        vals = [ball_evaluate(phi, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bernoulli_ball(self):
        phi = BallObservable(
            GShape(GKind.G1), BernoulliDoubling(0.3), 0.0
        )
        # B_0.25(0) = [0, 0.25) u (0.75, 1): mass F(1/4) + (1 - F(3/4))
        # = 0.09 + 0.49 = 0.58
        assert ball_evaluate(phi, 0.25) == pytest.approx(-math.log(0.58))


class TestCylinderObservable:
    def make(self, g=None, zeta=1.0, measure=None, system=None, **kw):
        ctx = PartitionContext(
            system or full_tent(),
            measure or Lebesgue1D(Metric.INTERVAL),
            **kw,
        )
        return CylinderObservable(g or GShape(GKind.G2, alpha=1.0), ctx,
                                  zeta)

    def test_tent_hand_example(self):
        phi = self.make()
        # 0.9 sits in Z_3[1] = (7/8, 1] but not Z_4: phi = 1/(2^-3) = 8
        assert cylinder_evaluate(phi, 0.9) == pytest.approx(8.0)
        assert cylinder_evaluate(phi, 0.95) == pytest.approx(16.0)
        assert cylinder_evaluate(phi, 0.3) == 1.0  # depth 0: g(1)

    def test_overflow_at_target(self):
        phi = self.make(max_depth=40)
        val, overflow = cylinder_evaluate_ex(phi, 1.0)
        assert val == math.inf and overflow
        val, overflow = cylinder_evaluate_ex(phi, 0.9)
        assert val == 8.0 and not overflow

    def test_ladder(self):
        phi = self.make()
        assert [phi.ladder_mass(k) for k in range(4)] == [1.0, 0.5, 0.25, 0.125]

    def test_exceedance_set_is_next_cylinder_at_ladder_levels(self):
        phi = self.make()
        # u = g(mass of Z_{n-1}) makes {phi > u} exactly Z_n
        for n in range(1, 13):
            u = phi.g.forward(phi.ladder_mass(n - 1))
            assert phi.exceedance_depth(u) == n
            assert phi.ladder_mass(phi.exceedance_depth(u)) == \
                phi.ladder_mass(n)

    def test_exceedance_between_levels(self):
        phi = self.make()
        assert phi.exceedance_depth(7.9) == 3  # 1/7.9 > 2^-3
        assert phi.ladder_mass(phi.exceedance_depth(7.9)) == 0.125
        assert phi.exceedance_depth(0.5) == 0
        assert phi.ladder_mass(phi.exceedance_depth(0.5)) == 1.0
        with pytest.raises(OutOfRange):
            phi.exceedance_depth(math.inf)

    def test_bernoulli_cylinder_value(self):
        phi = self.make(
            g=GShape(GKind.G1),
            zeta=0.25,
            measure=BernoulliDoubling(0.3),
            system=doubling(),
        )
        # digits of 0.3 match 0.25 = .0100... for 4 letters; the depth-4
        # cylinder around 0.25 has mass 0.3 * 0.7 * 0.3 * 0.3
        expected = -math.log(0.3 * 0.7 * 0.3 * 0.3)
        assert cylinder_evaluate(phi, 0.3) == pytest.approx(expected, rel=1e-12)

    def test_depth_cap_respected_in_exceedance(self):
        phi = self.make(max_depth=8)
        with pytest.raises(OutOfRange):
            phi.exceedance_depth(phi.g.forward(phi.ladder_mass(8)))
