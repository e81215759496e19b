"""Exactness and point-representation contracts of the map layer."""

import math
from fractions import Fraction

import numpy as np
import pytest

from evlhts.errors import DomainError
from evlhts.rng import substream
from evlhts.systems import (
    GOLDEN_DECIMAL,
    MapKind,
    MapSystem,
    Metric,
    doubling,
    full_tent,
    golden_convergents,
    manneville_pomeau,
    rotation,
)
from reference import (
    BackendUnsupported,
    BitStreamPoint,
    FloatPoint,
    distance,
    iterate,
)


def test_iterate_zero_is_identity():
    p = FloatPoint(0.37)
    assert iterate(full_tent(), p, 0) is p


def test_tent_orbit_of_one_hits_zero_exactly():
    p = BitStreamPoint.ones()
    assert iterate(full_tent(), p, 1).value(20) == 0.0
    assert iterate(full_tent(), p, 7).value(20) == 0.0


def test_tent_float_matches_stream_on_dyadic():
    # 0.3125 = 0.0101b: orbit 0.3125 -> 0.625 -> 0.75 -> 0.5 -> 1 -> 0
    expected = [0.3125, 0.625, 0.75, 0.5, 1.0, 0.0, 0.0]
    fp = FloatPoint(0.3125)
    sp = BitStreamPoint.from_float(0.3125)
    for n, want in enumerate(expected):
        assert iterate(full_tent(), fp, n).value() == want
        # stream truncations may sit one ulp-of-window below a dyadic value
        assert abs(iterate(full_tent(), sp, n).value(40) - want) <= 2.0**-40


def test_mp_two_steps_by_hand():
    # s = 1: 0.5 -> 0.75 -> 1.3125 mod 1 = 0.3125
    sys = manneville_pomeau(1.0)
    assert iterate(sys, FloatPoint(0.5), 1).value() == 0.75
    assert iterate(sys, FloatPoint(0.5), 2).value() == pytest.approx(0.3125, abs=1e-15)


def test_doubling_float_truncation_agrees_40_iterates():
    # doubling a 53-bit float is exact bit-shifting, so the float orbit of
    # the truncation must equal the stream window (zero-padded) for as long
    # as information remains; checked through iterate 40.
    gen = substream(7, "trunc-test")
    stream = BitStreamPoint.from_generator(gen)
    digits = stream.digits(53)
    x0 = sum(d * 2.0 ** -(i + 1) for i, d in enumerate(digits))
    sys = doubling()
    for j in range(41):
        got = iterate(sys, FloatPoint(x0), j).value()
        want = sum(d * 2.0 ** -(i + 1) for i, d in enumerate(digits[j:53]))
        assert got == want


def test_doubling_stream_is_digit_shift():
    p = BitStreamPoint.from_digits([1, 0, 1, 1, 0, 1, 0, 0], fill=lambda b, k: b.extend(b"\x00" * (k - len(b))))
    q = iterate(doubling(), p, 3)
    assert q.digits(5) == [1, 0, 1, 0, 0]


def test_tent_doubling_conjugacy_itineraries():
    # A doubling-map point's itinerary is its digit string.  Build the tent
    # point whose itinerary letters match that digit string symbolically
    # (letters l_k = c_{k+1} xor c_k determine the digits c) and check the
    # itineraries agree for 1000 steps.
    gen = substream(11, "conjugacy")
    word = list((gen.random(1001) < 0.5).astype(int))
    c = []
    prev = 0
    for l in word:
        prev ^= l
        c.append(prev)
    y = BitStreamPoint.from_digits(c)
    sys = full_tent()
    for j in range(1000):
        # letter at step j = first digit of the j-th tent iterate
        assert iterate(sys, y, j).digit(1) == word[j]


@pytest.mark.parametrize("n", [1, 10, 1000, 10**6])
def test_rotation_additivity(n):
    alpha = Fraction(GOLDEN_DECIMAL)
    sys = rotation()
    x = 0.271828182845904
    got = iterate(sys, FloatPoint(x), n).value()
    exact = Fraction(x) + n * alpha
    exact -= math.floor(exact)
    assert abs(got - float(exact)) <= 1e-12


def test_rotation_orbit_stays_exact_under_composition():
    sys = rotation()
    a = iterate(sys, iterate(sys, FloatPoint(0.1), 500), 500).value()
    b = iterate(sys, FloatPoint(0.1), 1000).value()
    assert abs(a - b) <= 1e-15


def test_rotation_rejects_rational_angle():
    with pytest.raises(DomainError):
        rotation(0.5)
    with pytest.raises(DomainError):
        MapSystem(MapKind.ROTATION, alpha=Fraction(2, 7))


def test_backend_unsupported():
    with pytest.raises(BackendUnsupported):
        iterate(rotation(), BitStreamPoint.ones(), 1)


def test_mp_requires_positive_s():
    with pytest.raises(DomainError):
        manneville_pomeau(0.0)


def test_domain_error_on_bad_point():
    with pytest.raises(DomainError):
        FloatPoint(1.5)
    with pytest.raises(DomainError):
        FloatPoint(float("nan"))


def test_golden_convergents_are_fibonacci_ratios():
    pairs = golden_convergents(30)
    assert pairs[0] == (1, 1) and pairs[1] == (1, 2) and pairs[5] == (8, 13)
    a, b = pairs[-1]
    assert abs(a / b - float(GOLDEN_DECIMAL)) < 1.0 / b**2


def test_metric_defaults_and_distance():
    assert full_tent().metric is Metric.INTERVAL
    assert doubling().metric is Metric.CIRCLE
    assert distance(Metric.CIRCLE, 0.05, 0.95) == pytest.approx(0.1)
    assert distance(Metric.INTERVAL, 0.05, 0.95) == pytest.approx(0.9)
