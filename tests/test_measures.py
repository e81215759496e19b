"""Exact masses, quantile inversion, and invariance of the measure layer."""

import math
from fractions import Fraction

import numpy as np
import pytest

from evlhts.errors import DomainError, NotAttained, UnsupportedCombination
from evlhts.measures import (
    BernoulliDoubling,
    EmpiricalOrbit,
    Lebesgue1D,
    MeasureModel,
    _FIXED_UNIT,
    _radius_to_fixed,
    _unit_to_fixed,
)
from evlhts.rng import substream
from evlhts.systems import (
    Metric,
    doubling,
    full_tent,
    manneville_pomeau,
    rotation,
)
from reference import BitStreamPoint, exact_ball_pieces


def test_lebesgue_interval_ball_clipping():
    m = Lebesgue1D(Metric.INTERVAL)
    assert m.ball_mass(0.5, 0.1) == pytest.approx(0.2, abs=1e-15)
    assert m.ball_mass(1.0, 0.1) == pytest.approx(0.1, abs=1e-15)  # clipped at 1
    assert m.ball_mass(0.02, 0.1) == pytest.approx(0.12, abs=1e-15)
    assert m.ball_mass(0.5, 0.0) == 0.0


def test_lebesgue_circle_ball_wraps_and_saturates():
    m = Lebesgue1D(Metric.CIRCLE)
    assert m.ball_mass(0.0, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert m.ball_mass(0.98, 0.05) == pytest.approx(0.1, abs=1e-15)
    assert m.ball_mass(0.3, 0.6) == 1.0  # radius past half the circle


def test_bernoulli_cdf_hand_values():
    # F(1/4) = p^2, F(1/2) = p, F(3/4) = p + (1-p) p for digit mass P(0) = p.
    # Cross-checked by direct Monte Carlo (1e6 digit streams, Philox key
    # 20260814): F(3/4) ~ 0.510123 +- 0.0005.
    m = BernoulliDoubling(0.3)
    quarter = _FIXED_UNIT // 4
    assert m.cdf_fixed(quarter) == pytest.approx(0.09, abs=1e-15)
    assert m.cdf_fixed(2 * quarter) == pytest.approx(0.3, abs=1e-15)
    assert m.cdf_fixed(3 * quarter) == pytest.approx(0.51, abs=1e-15)
    assert m.cdf_fixed(0) == 0.0 and m.cdf_fixed(_FIXED_UNIT) == 1.0


def test_bernoulli_ball_at_zero():
    # mass of B_{1/4}(0) = mu([0,1/4)) + mu((3/4,1)) = 0.09 + 0.49 = 0.58.
    # Monte Carlo oracle (1e6 samples, Philox key 20260814): 0.579995 +- 0.0005.
    m = BernoulliDoubling(0.3)
    assert m.ball_mass(0.0, 0.25) == pytest.approx(0.58, abs=1e-12)
    assert abs(0.579995 - 0.58) <= 3 * 0.0005  # frozen oracle vs closed form


def test_bernoulli_half_is_lebesgue():
    b = BernoulliDoubling(0.5)
    l = Lebesgue1D(Metric.CIRCLE)
    for z in np.linspace(0.001, 0.999, 100):
        assert abs(b.ball_mass(z, 0.17) - l.ball_mass(z, 0.17)) <= 1e-12


def test_radius_to_fixed_is_the_exact_floor():
    gen = substream(4, "radius-floor")
    radii = np.concatenate([
        [2.0 ** -1074, 2.0 ** -1022, 2.0 ** -129, 2.0 ** -128, 2.0 ** -75,
         0.5, 1.0, 3.0],
        10.0 ** -gen.uniform(0.0, 320.0, 2000), gen.random(500)])
    for eta in radii.tolist():
        assert _radius_to_fixed(eta) == math.floor(Fraction(eta) * _FIXED_UNIT)


@pytest.mark.parametrize("eta", [1e-50, 2.0 ** -129, 5e-324])
def test_circle_ball_below_the_fixed_grid_is_empty(eta):
    # floor(eta * 2^128) = 0: the ball holds no fixed-point cell, as on
    # the interval, rather than the whole circle
    assert _radius_to_fixed(eta) == 0
    bern = BernoulliDoubling(0.3)
    assert bern.ball_mass(0.5, eta) == 0.0
    assert Lebesgue1D(Metric.CIRCLE).ball_mass(0.5, eta) == 0.0
    assert Lebesgue1D(Metric.INTERVAL).ball_mass(0.5, eta) == 0.0
    assert bern.ball_masses(0.5, np.array([eta, eta])).tolist() == [0.0, 0.0]


# One small orbit serves every centre: its masses are orbit frequencies.
_ORBIT = EmpiricalOrbit(manneville_pomeau(0.5), orbit_len=2000, burn_in=10)
_CENTRES = [0.0, 0.3, 0.5, 1.0 - 2.0 ** -40, 2.0 ** -60, 2.0 ** -100, 1.0]


def _assert_ball_masses_exact(measure, zeta):
    """Every measure's ``ball_masses`` is its ``ball_mass``, bit for bit."""
    # radius 0 and below, the smallest radii, radii at the 64-bit halves'
    # seams and the grid's last cell, one whose low half carries into the
    # high half at zeta = 2^-100, radii of 1/2 and beyond (the whole
    # circle), and radii whose ball wraps past 0 or 1, or is clipped at the
    # interval's ends; centres at 2^-60 and 2^-100, on either side of the
    # halves' seam, and 1.0, which is 0 on the circle; the distances to 0
    # and 1 themselves, and the floats beside them
    gen = substream(3, "ball-masses", measure.p_zero, zeta)
    ends = np.abs(zeta - np.array([0.0, 1.0]))
    radii = np.concatenate([
        [0.0, 2.0 ** -1074, 2.0 ** -60, 2.0 ** -53, 0.5, 0.5 - 2.0 ** -54,
         0.75, 1.0, 2.0 ** -128, 2.0 ** -76, 2.0 ** -75, 2.0 ** -64,
         2.0 ** -63, -1.0, 2.0 ** -64 - 2.0 ** -100],
        gen.random(400) * 0.5,
        10.0 ** -gen.uniform(0.0, 15.0, 400),
        (ends + gen.uniform(0.0, 0.2, (100, 2))).ravel(),
        gen.uniform(0.5, 1.0, 100),
        ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0),
    ])
    assert radii.size >= 1000
    got = measure.ball_masses(zeta, radii)
    want = [measure.ball_mass(zeta, float(r)) for r in radii]
    assert got.dtype == np.float64 and got.shape == radii.shape
    assert got.tolist() == want  # bit for bit, not approximately


@pytest.mark.parametrize("p", [0.3, 0.01, 0.99])
@pytest.mark.parametrize("zeta", _CENTRES)
def test_bernoulli_ball_masses_equal_scalar_ball_mass(p, zeta):
    _assert_ball_masses_exact(BernoulliDoubling(p), zeta)


@pytest.mark.parametrize("measure", [
    Lebesgue1D(Metric.INTERVAL), Lebesgue1D(Metric.CIRCLE), _ORBIT,
], ids=["lebesgue-interval", "lebesgue-circle", "orbit"])
@pytest.mark.parametrize("zeta", _CENTRES)
def test_ball_masses_equal_scalar_ball_mass(measure, zeta):
    _assert_ball_masses_exact(measure, zeta)


@pytest.mark.parametrize(
    "measure,centers",
    [
        (Lebesgue1D(Metric.CIRCLE), [0.0, 0.25, 0.7]),
        (Lebesgue1D(Metric.INTERVAL), [0.0, 0.3, 1.0]),
        (BernoulliDoubling(0.3), [0.0, 0.3, 0.6180339887498949]),
    ],
)
def test_quantile_round_trip(measure, centers):
    # |ball_mass(zeta, quantile_radius(zeta, g)) - g| <= 1e-9 on the whole
    # percent grid; observed worst cases are ~1e-10 (Bernoulli) and ~1e-14
    # (Lebesgue).
    for zeta in centers:
        for k in range(1, 100):
            gamma = k / 100
            r = measure.quantile_radius(zeta, gamma)
            assert abs(measure.ball_mass(zeta, r) - gamma) <= 1e-9


def test_quantile_monotone_in_gamma():
    m = BernoulliDoubling(0.3)
    radii = [m.quantile_radius(0.3, g) for g in (0.1, 0.2, 0.4, 0.8)]
    assert radii == sorted(radii)


class _AtomicMeasure(MeasureModel):
    """Synthetic measure: uniform mass 1/2 plus an atom of weight 0.3 at 0.7.

    The radius -> ball-mass profile around 0.5 jumps by 0.3 at radius 0.2,
    so levels inside the jump are unattainable.
    """

    metric = Metric.INTERVAL

    def interval_mass(self, a, b):
        lo, hi = a / _FIXED_UNIT, b / _FIXED_UNIT

        def cdf(x):  # mass of [0, x)
            return 0.5 * x + (0.3 if x > 0.7 else 0.0)

        return cdf(hi) - cdf(lo)


def test_quantile_jump_raises_not_attained():
    m = _AtomicMeasure()
    with pytest.raises(NotAttained):
        m.quantile_radius(0.5, 0.35)  # inside the jump (0.2, 0.5]
    r = m.quantile_radius(0.5, 0.55)  # past the atom: r + 0.3 = 0.55
    assert r == pytest.approx(0.25, abs=1e-9)


def test_pushforward_invariance_two_preimage_exact():
    # doubling map: f^{-1}[a,b) = [a/2,b/2) u [1/2+a/2, 1/2+b/2); Bernoulli
    # self-similarity makes the identity exact up to float rounding.  The
    # preimages are exact on the fixed-point grid.
    m = BernoulliDoubling(0.3)
    F, half = m.cdf_fixed, _FIXED_UNIT // 2
    for a, b in [(0.0, 0.25), (0.125, 0.625), (0.3, 0.9)]:
        a, b = _unit_to_fixed(a), _unit_to_fixed(b)
        direct = F(b) - F(a)
        pull = (F(b // 2) - F(a // 2)) + (F(half + b // 2) - F(half + a // 2))
        assert abs(direct - pull) <= 1e-14

    # tent map: f^{-1}[a,b] = [a/2,b/2] u [1-b/2, 1-a/2] under Lebesgue.
    l = Lebesgue1D(Metric.INTERVAL)
    for a, b in [(0.0, 0.5), (0.2, 0.7)]:
        direct = b - a
        pull = (b / 2 - a / 2) + ((1 - a / 2) - (1 - b / 2))
        assert abs(direct - pull) <= 1e-14


@pytest.mark.parametrize("measure,zeta,n_pieces", [
    (Lebesgue1D(Metric.INTERVAL), 0.0, 1),  # clipped at 0
    (Lebesgue1D(Metric.INTERVAL), 0.3, 1),
    (Lebesgue1D(Metric.INTERVAL), 1.0, 1),  # clipped at 1
    (Lebesgue1D(Metric.CIRCLE), 0.002, 2),  # across the seam at 0
    (Lebesgue1D(Metric.CIRCLE), 0.3, 1),
    (Lebesgue1D(Metric.CIRCLE), 0.999, 2),  # across the seam at 1
    (BernoulliDoubling(0.3), 0.002, 2),
    (BernoulliDoubling(0.3), 0.3, 1),
    (BernoulliDoubling(0.3), 0.999, 1),
], ids=["interval-0", "interval-0.3", "interval-1", "circle-0.002",
        "circle-0.3", "circle-0.999", "bernoulli-0.002", "bernoulli-0.3",
        "bernoulli-0.999"])
def test_ball_cdfs_read_the_ball_arcs(measure, zeta, n_pieces):
    # each fixed-point endpoint is exactly zeta -+ eta (eta >= 2^-76), its
    # CDF is interval_mass(0, .), and the pieces' widths sum to ball_mass
    eta = measure.quantile_radius(zeta, 0.01)
    arcs = measure.ball_arcs(zeta, eta)
    assert [(Fraction(a, _FIXED_UNIT), Fraction(b, _FIXED_UNIT))
            for a, b in arcs] == exact_ball_pieces(measure.metric, zeta, eta)
    assert len(arcs) == n_pieces
    lo, hi = measure.ball_cdfs(arcs)
    assert lo == tuple(measure.interval_mass(0, a) for a, _ in arcs)
    assert hi == tuple(measure.interval_mass(0, b) for _, b in arcs)
    if isinstance(measure, Lebesgue1D):  # the correctly rounded endpoints
        assert lo == tuple(float(Fraction(a, _FIXED_UNIT)) for a, _ in arcs)
    widths = [b - a for a, b in zip(lo, hi)]
    assert abs(math.fsum(widths) - measure.ball_mass(zeta, eta)) <= 1e-15


def test_orbit_points_in_arcs_are_the_points_interval_mass_counts():
    # pieces that start and end on orbit points: [a, b) takes in the point
    # at a and leaves out the one at b, in orbit order
    x = np.sort(_ORBIT.orbit)
    ends = [_unit_to_fixed(v) for v in (x[100], x[700], x[1200], x[1900])]
    arcs = [(ends[0], ends[1]), (ends[2], ends[3])]
    points = _ORBIT.points_in(arcs)
    assert points.size == 1300 == round(_ORBIT.orbit_len * math.fsum(
        _ORBIT.interval_mass(a, b) for a, b in arcs))
    assert np.isin(x[[100, 1200]], points).all()
    assert not np.isin(x[[700, 1900]], points).any()
    assert np.array_equal(points, _ORBIT.orbit[np.isin(_ORBIT.orbit, points)])


def test_p_zero_of_each_measure():
    assert Lebesgue1D(Metric.CIRCLE).p_zero == 0.5
    assert Lebesgue1D(Metric.INTERVAL).p_zero == 0.5
    assert BernoulliDoubling(0.3).p_zero == 0.3
    assert _ORBIT.p_zero is None  # orbit digits are not iid


@pytest.mark.parametrize("system", [full_tent(), doubling(), rotation()],
                         ids=["tent", "doubling", "rotation"])
def test_empirical_orbit_serves_the_intermittent_map_only(system):
    # float orbits of the tent and doubling maps collapse, and the rotation
    # preserves Lebesgue exactly
    with pytest.raises(UnsupportedCombination, match="intermittent"):
        EmpiricalOrbit(system, orbit_len=100, burn_in=10)


@pytest.mark.parametrize("burn_in", [0, 37])
def test_empirical_orbit_is_the_scalar_orbit(burn_in):
    # x -> x + x^(1+s) mod 1 with Python's float pow, one point at a time,
    # from the seeded start; the first burn_in points are dropped
    s, n = 0.5, 500
    x = float(substream(4, "empirical-orbit", "start").random())
    want = []
    for j in range(burn_in + n):
        if j >= burn_in:
            want.append(x)
        x = x + x ** (1.0 + s)
        if x >= 1.0:
            x -= 1.0
    got = EmpiricalOrbit(manneville_pomeau(s), master_seed=4, orbit_len=n,
                         burn_in=burn_in).orbit
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == np.array(want).tobytes()


def test_empirical_orbit_seed_consistency():
    # ball masses from two independent orbits agree within Monte Carlo
    # scatter (observed gaps ~3e-4 at 2e5 points; bound leaves headroom
    # for the orbit autocorrelation of the intermittent map).
    m1 = EmpiricalOrbit(manneville_pomeau(0.5), master_seed=1, orbit_len=200_000, burn_in=5_000)
    m2 = EmpiricalOrbit(manneville_pomeau(0.5), master_seed=2, orbit_len=200_000, burn_in=5_000)
    for zeta, eta in [(0.5, 0.1), (0.2, 0.05), (0.8, 0.2)]:
        assert abs(m1.ball_mass(zeta, eta) - m2.ball_mass(zeta, eta)) < 0.01


def test_empirical_orbit_invariance():
    m = EmpiricalOrbit(manneville_pomeau(0.5), master_seed=1, orbit_len=200_000, burn_in=5_000)
    orb = m.orbit
    in_a = (orb >= 0.3) & (orb < 0.6)
    fx = orb + orb**1.5
    fx = np.where(fx >= 1.0, fx - 1.0, fx)
    pre_a = (fx >= 0.3) & (fx < 0.6)
    # mu(f^{-1}A) vs mu(A): one-step shift of a single orbit, so the gap is
    # at most a boundary term plus MC noise.
    assert abs(in_a.mean() - pre_a.mean()) < 3e-3


def test_empirical_orbit_quantile_resolves_to_atom_size():
    m = EmpiricalOrbit(manneville_pomeau(0.5), master_seed=5, orbit_len=50_000,
                       burn_in=100)
    r = m.quantile_radius(0.5, 0.2)
    assert abs(m.ball_mass(0.5, r) - 0.2) <= 1.5 / 50_000


def test_sampling_kinds():
    p = BitStreamPoint.from_generator(substream(9, "sampling"), p_zero=0.3)
    # digit frequencies: P(digit=0) = 0.3
    zeros = sum(1 for d in p.digits(4000) if d == 0) / 4000
    assert abs(zeros - 0.3) < 4 * np.sqrt(0.21 / 4000)


def test_bad_args():
    with pytest.raises(DomainError):
        BernoulliDoubling(1.0)
    with pytest.raises(DomainError):
        Lebesgue1D(Metric.CIRCLE).quantile_radius(0.5, 1.5)
