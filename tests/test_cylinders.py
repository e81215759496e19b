import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evlhts.cylinders import (
    PartitionContext,
    cylinder_at,
    cylinder_word,
    gibbs_envelope,
    smb_estimate,
    word_log_mass,
)
from evlhts.errors import DomainError, UnsupportedCombination
from evlhts.measures import BernoulliDoubling, Lebesgue1D
from evlhts.systems import (
    FIXED_ONE,
    Metric,
    doubling,
    full_tent,
    manneville_pomeau,
    rotation,
)
from reference import (
    BitStreamPoint,
    itinerary,
    max_depth_in,
    stream_word,
    tent_interval,
    unpack_word,
)

LN2 = math.log(2)


def tent_ctx(**kw):
    return PartitionContext(full_tent(), Lebesgue1D(Metric.INTERVAL), **kw)


def doubling_ctx(measure=None, **kw):
    return PartitionContext(doubling(), measure or Lebesgue1D(Metric.CIRCLE), **kw)


def rotation_ctx(**kw):
    return PartitionContext(rotation("golden"), Lebesgue1D(Metric.CIRCLE), **kw)


def cell_interval(cyl, depth):
    """Exact endpoints of a depth-``depth`` tent cell's closure, read off
    its word."""
    return tent_interval(unpack_word(cyl.word, depth))


# points whose words the exact itinerary reads: floats, dyadics k / 2^j
# (j <= 12, so boundary orbits reach 1/2, 1 and 0), thirds, and 0 and 1
POINTS = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(0, 12).flatmap(
        lambda j: st.integers(0, 2 ** j).map(lambda k: Fraction(k, 2 ** j))),
    st.sampled_from([Fraction(1, 3), Fraction(2, 3), 1 / 3, 2 / 3,
                     0, 1, 0.0, 1.0]),
)


class TestWords:
    def test_tent_word_of_one(self):
        ctx = tent_ctx()
        assert cylinder_word(ctx, 1.0, 5) == 0b10000

    def test_tent_word_of_half(self):
        # 1/2 -> 1 -> 0 -> 0 ...
        ctx = tent_ctx()
        assert cylinder_word(ctx, 0.5, 5) == 0b01000

    def test_tent_word_is_not_the_gray_code_on_boundaries(self):
        # 3/4 -> 1/2 -> 1 -> 0: the cell index of the right-closed dyadic
        # cell (22/32, 24/32] would give the Gray code 11100, but the cell
        # around 3/4 switches closedness with its orientation
        assert cylinder_word(tent_ctx(), 0.75, 5) == 0b10100

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(tent=st.booleans(), x=POINTS,
           n=st.one_of(st.integers(1, 80), st.just(2000)))
    def test_packed_word_is_the_itinerary(self, tent, x, n):
        ctx = tent_ctx() if tent else doubling_ctx()
        word = cylinder_word(ctx, x, n)
        assert 0 <= word < 1 << n
        assert unpack_word(word, n) == itinerary(ctx, x, n)

    @pytest.mark.parametrize("x", [1.5, -0.25, 1 + 2.0 ** -52, -2.0 ** -60,
                                   Fraction(4, 3)])
    @pytest.mark.parametrize("ctx", [tent_ctx(), doubling_ctx()],
                             ids=["tent", "doubling"])
    def test_point_outside_unit_interval_rejected(self, ctx, x):
        with pytest.raises(DomainError):
            cylinder_word(ctx, x, 5)

    def test_tent_stream_word_matches_float_word(self):
        # agreement holds until the orbit hits the cell boundary 1/2, which
        # for a 53-bit dyadic cannot happen before ~ step 50
        ctx = tent_ctx()
        for v in [1.0, 0.3, 0.7, 0.123456789]:
            ws = stream_word(BitStreamPoint.from_float(v), 40, tent=True)
            wf = unpack_word(cylinder_word(ctx, v, 40), 40)
            assert ws == wf, v

    def test_tent_stream_word_at_boundary_orbit(self):
        # 0.8125 reaches 1/2 at step 3; the interval rule reads letter 0
        # there, the digit rule letter 1, and the two agree again after
        ws = stream_word(BitStreamPoint.from_float(0.8125), 8, tent=True)
        wf = cylinder_word(tent_ctx(), 0.8125, 8)
        assert wf == 0b10101000
        assert ws == (1, 0, 1, 1, 1, 0, 0, 0)

    def test_doubling_word_is_digit_string(self):
        ctx = doubling_ctx()
        assert cylinder_word(ctx, 0.3, 5) == 0b01001
        assert stream_word(BitStreamPoint.from_float(0.3), 5, tent=False) == \
            (0, 1, 0, 0, 1)

    def test_rotation_word_tracks_base_arc(self):
        # the depth-8 arc around x is the set of fixed-point points whose
        # first 8 rotation steps visit the same base arcs as x
        ctx = rotation_ctx()
        a = ctx.system.fixed_angle

        def letters(xi):
            out = []
            for _ in range(8):
                out.append(0 if xi < FIXED_ONE - a else 1)
                xi = (xi + a) % FIXED_ONE
            return out

        lo, hi = cylinder_at(ctx, 0.2, 8).arc
        expect = letters(round(0.2 * FIXED_ONE))
        assert letters(lo) == letters(hi - 1) == expect
        assert letters((lo - 1) % FIXED_ONE) != expect
        assert letters(hi % FIXED_ONE) != expect

    def test_rotation_has_no_letter_word(self):
        with pytest.raises(UnsupportedCombination):
            cylinder_word(rotation_ctx(), 0.2, 8)


class TestCylinderAt:
    def test_tent_cylinder_around_one(self):
        cyl = cylinder_at(tent_ctx(), 1.0, 3)
        assert cyl.word == 0b100
        assert cell_interval(cyl, 3) == (Fraction(7, 8), Fraction(1))
        assert cyl.mass == 0.125 and cyl.log2_mass == -3

    def test_tent_cylinder_around_half(self):
        cyl = cylinder_at(tent_ctx(), 0.5, 3)
        assert cyl.word == 0b010
        assert cell_interval(cyl, 3) == (Fraction(3, 8), Fraction(1, 2))
        assert cyl.mass == 0.125

    def test_tent_interior_word_cell(self):
        # {x <= 1/2, Tx > 1/2} = (1/4, 1/2]
        cyl = cylinder_at(tent_ctx(), 0.3, 2)
        assert cyl.word == 0b01
        assert cell_interval(cyl, 2) == (Fraction(1, 4), Fraction(1, 2))

    def test_doubling_bernoulli_mass_is_digit_product(self):
        ctx = doubling_ctx(BernoulliDoubling(0.3))
        cyl = cylinder_at(ctx, 0.25, 3)  # digits 0,1,0
        assert cyl.word == 0b010  # the cell [2/8, 3/8)
        assert cyl.mass == pytest.approx(0.3 * 0.7 * 0.3, rel=1e-12)

    def test_depth_zero_is_everything(self):
        cyl = cylinder_at(tent_ctx(), 0.77, 0)
        assert cyl.mass == 1.0 and cyl.word == 0 and cyl.log2_mass == 0

    def test_nesting(self):
        for ctx, z in [
            (tent_ctx(), 0.61803),
            (doubling_ctx(), 0.61803),
            (doubling_ctx(BernoulliDoubling(0.3)), 0.61803),
            (rotation_ctx(), 0.2),
        ]:
            prev = cylinder_at(ctx, z, 0)
            for n in range(1, 13):
                cyl = cylinder_at(ctx, z, n)
                if cyl.arc is None:  # a word extends its parent's word
                    assert cyl.word >> 1 == prev.word
                else:
                    assert prev.arc[0] <= cyl.arc[0] < cyl.arc[1] <= prev.arc[1]
                assert cyl.mass <= prev.mass
                prev = cyl

    def test_deep_tent_mass_never_underflows_in_log(self):
        cyl = cylinder_at(tent_ctx(), 1.0, 5000)
        assert cyl.mass == 0.0  # the float underflowed ...
        assert cyl.log2_mass == -5000  # ... but the exact log did not


def rotation_arcs(ctx, depth):
    """Fixed-point lengths of the arcs cut by the depth-``depth`` bounds."""
    bounds = ctx.rotation_bounds(depth)
    return [hi - lo for lo, hi in zip(bounds, bounds[1:] + [FIXED_ONE])]


class TestRotationPartition:
    def test_masses_sum_to_one(self):
        ctx = rotation_ctx()
        for depth in [0, 1, 5, 21, 50]:
            arcs = rotation_arcs(ctx, depth)
            assert len(arcs) == depth + 1 and min(arcs) > 0
            assert math.fsum(a / FIXED_ONE for a in arcs) == \
                pytest.approx(1.0, abs=1e-15)

    def test_three_distance_structure(self):
        # the backward orbit of 0 cuts the circle into arcs of <= 3 lengths
        ctx = rotation_ctx()
        for depth in [7, 20, 33, 54]:
            assert len(set(rotation_arcs(ctx, depth))) <= 3

    def test_word_prefix_matches_arc_membership(self):
        ctx = rotation_ctx()
        x, z = 0.331, 0.337
        for n in range(1, 25):
            same_arc = cylinder_at(ctx, x, n).arc == cylinder_at(ctx, z, n).arc
            same_word = itinerary(ctx, x, n) == itinerary(ctx, z, n)
            assert same_arc == same_word, n


class TestMaxDepthIn:
    def test_tent_hand_example(self):
        # 0.9 shares the cells (1/2,1], (3/4,1], (7/8,1] with 1 but not (15/16,1]
        assert max_depth_in(tent_ctx(), 0.9, 1.0) == 3

    def test_outside_first_cell_is_zero(self):
        assert max_depth_in(tent_ctx(), 0.3, 1.0) == 0

    def test_same_point_hits_cap(self):
        ctx = tent_ctx(max_depth=40)
        assert max_depth_in(ctx, 0.7, 0.7) == 40

    def test_doubling_is_common_digit_prefix(self):
        ctx = doubling_ctx()
        x = 0.3  # digits 01001...
        z = 0.25  # digits 01000...
        assert max_depth_in(ctx, x, z) == 4


class TestInformationRates:
    def test_tent_rate_is_exactly_log2_at_every_depth(self):
        ctx = tent_ctx()
        for n in [1, 2, 7, 100, 999, 5000]:
            assert smb_estimate(ctx, 0.437, n) == LN2

    def test_doubling_lebesgue_rate_exact(self):
        ctx = doubling_ctx()
        for n in [1, 64, 1000]:
            assert smb_estimate(ctx, 0.3, n) == LN2

    def test_bernoulli_rate_approaches_entropy(self):
        p = 0.3
        ctx = doubling_ctx(BernoulliDoubling(p))
        gen = np.random.default_rng(20260814)
        digits = BitStreamPoint.from_generator(gen, p_zero=p).digits(2000)
        idx = int("".join(map(str, digits)), 2)
        zeta = Fraction(2 * idx + 1, 1 << 2001)  # midpoint of the digits' cell
        h = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert abs(smb_estimate(ctx, zeta, 2000) - h) < 0.05

    def test_bernoulli_rate_matches_direct_digit_sum(self):
        p = 0.3
        ctx = doubling_ctx(BernoulliDoubling(p))
        z = 0.415
        word = itinerary(ctx, z, 300)
        direct = -math.fsum(
            math.log(p) if w == 0 else math.log(1 - p) for w in word
        ) / 300
        assert smb_estimate(ctx, z, 300) == pytest.approx(direct, rel=1e-14)


class TestWordLogMass:
    """``word_log_mass`` sums exactly as a rational and rounds once; the
    ``math.fsum`` of the word's letter log masses, correctly rounded too,
    is its reference, bit for bit."""

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.7, 0.999])
    def test_equals_the_fsum_of_the_letters(self, p):
        ctx = doubling_ctx(BernoulliDoubling(p))
        log0, log1 = math.log(p), math.log(1.0 - p)
        gen = np.random.default_rng(int(1000 * p))
        for depth in [*range(1, 301), 2000, 10**5]:
            counts = gen.integers(0, depth + 1, size=3).tolist()
            for ones in {0, depth, *counts}:
                want = math.fsum([log1] * ones + [log0] * (depth - ones))
                assert word_log_mass(ctx, ones, depth) == want


class TestGibbsEnvelope:
    def test_exact_one_for_matching_potential(self):
        pot = (math.log(0.5), math.log(0.5))
        ctx = tent_ctx()
        for n in [1, 10, 1000]:
            assert gibbs_envelope(ctx, 0.813, n, pot) == 1.0

    def test_exact_one_for_bernoulli_potential(self):
        p = 0.3
        ctx = doubling_ctx(BernoulliDoubling(p))
        pot = (math.log(p), math.log(1 - p))
        for n in [1, 17, 500]:
            assert gibbs_envelope(ctx, 0.415, n, pot) == 1.0

    def test_mismatched_potential_drifts(self):
        ctx = tent_ctx()
        pot = (math.log(0.3), math.log(0.7))  # wrong letter masses for Lebesgue
        assert gibbs_envelope(ctx, 0.813, 50, pot) > 10.0

    def test_rotation_rejected(self):
        # a rotation cell is an arc: it has no letter word to sum over
        with pytest.raises(UnsupportedCombination):
            gibbs_envelope(rotation_ctx(), 0.2, 5, (0.0, 0.0))


class TestContextValidation:
    def test_no_partition_for_intermittent_map(self):
        with pytest.raises(UnsupportedCombination):
            PartitionContext(manneville_pomeau(0.5), Lebesgue1D(Metric.INTERVAL))

    def test_bernoulli_needs_doubling(self):
        with pytest.raises(UnsupportedCombination):
            PartitionContext(full_tent(), BernoulliDoubling(0.3))

    def test_rotation_needs_lebesgue(self):
        with pytest.raises(UnsupportedCombination):
            PartitionContext(rotation("golden"), BernoulliDoubling(0.3))

    def test_negative_depth_rejected(self):
        with pytest.raises(DomainError):
            cylinder_word(tent_ctx(), 0.3, -1)


class TestCellEnumeration:
    def test_tent_cells_cover_unit_interval(self):
        # probe the midpoint of every dyadic interval of length 1/8
        ctx = tent_ctx()
        cells = [cylinder_at(ctx, (2 * k + 1) / 16, 3)
                 for k in range(8)]
        assert len({c.word for c in cells}) == 8
        assert sorted(cell_interval(c, 3)[0] for c in cells) == \
            [Fraction(k, 8) for k in range(8)]
        assert all(c.mass == 0.125 for c in cells)
