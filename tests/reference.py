"""Independent scalar references that the kernel tests compare against.

The engine follows whole blocks of orbits at once through a 53-digit float
window, fixed-point integers and chunked numpy scans.  The definitions here
do the same things one point at a time, the plain way, so a test can check
a kernel against a second implementation that shares none of its tricks:

* ``BitStreamPoint`` holds a point as a lazily extendable binary digit
  stream.  Iteration is then a digit shift (doubling) or a shift with
  conditional complement (tent), exact at every depth: if the stream
  digits are b_1 b_2 ..., the j-th tent iterate has digits b_{j+i} XOR b_j
  (with b_0 = 0).  ``FloatPoint`` holds a float, which the tent and
  doubling maps drain by one digit per step, so it serves short orbits.
* ``iterate`` applies a map to either kind of point.
* ``itinerary`` is a point's cylinder letters, one exact step at a time,
  and ``tent_interval`` the endpoints of a tent cell; ``cylinder_word``
  packs the same letters without either.
* ``ball_evaluate`` and ``cylinder_evaluate`` are the observable phi(x)
  itself; the samplers never evaluate it, because block maxima reduce to
  minimum distances and first cylinder entries.
* ``reference_digits`` is the engine's digit draw rule, bit by bit, and
  ``pack_digits`` and ``unpack_digits`` convert between digit tables and
  the engine's packed words; ``window_from_digits`` reads the float
  window 0.b1...b53 off packed words.  ``byte_cdf`` is the exact CDF of
  a byte of 8 Bernoulli digits in Fractions, ``inverted_byte`` the byte
  that an interval of uniforms decides, and ``lane_bytes`` that of every
  16-bit lane.
* ``no_entry_probability`` is the exact law of a first cylinder entry
  under iid letters, which Monte Carlo runs of the word kernels must
  reproduce up to sampling noise.
* ``iid_digit_min_distances`` samples the minimum distance of n iid draws
  from a digit-product measure, the law ``evl.iid_no_exceedance`` gives
  in closed form.
* ``uniform_cdf`` is the U[0, 1] CDF, a reference for the KS machinery:
  any CDF callable serves.
* ``fraction_smb_rates`` are the ``smb`` experiment's sampled information
  rates, read back from exact Fraction points of the sampled cells.
* ``per_block_orbit_hits`` and ``per_block_orbit_min_distances`` run the
  rotation and intermittent kernels block by block, each block on its own
  starts, as the samplers did before they stepped a whole run in one scan.
  ``per_block_digit_hits`` runs the tent and doubling first-hit kernels
  block by block, each block alone on its own generator, as the samplers
  did before one scan stepped every block of a run.
* ``RecordingGen`` wraps a generator and records the shape of every draw,
  so a test can compare two kernels draw for draw.

``src/`` must not import this module: it is test code.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from evlhts.cylinders import PartitionContext, smb_estimate
from evlhts.engine import (
    _Scratch,
    ball_first_hit_digits,
    draw_digits,
    mp_first_hit,
    mp_min_distance,
    rotation_first_hit,
    rotation_min_distance,
    run_blocked,
    word_first_hit,
)
from evlhts.errors import DomainError, EvlhtsError
from evlhts.hts import word_scan
from evlhts.observables import BallObservable, CylinderObservable
from evlhts.rng import block_slices, substream
from evlhts.systems import FIXED_ONE, WINDOW_BITS, MapKind, MapSystem, Metric


class BackendUnsupported(EvlhtsError):
    """A point representation is not defined for this map."""


def distance(metric: Metric, x: float, y: float):
    """Distance between two points under the interval or circle metric."""
    d = abs(x - y)
    if metric is Metric.CIRCLE:
        return min(d, 1.0 - d) if np.isscalar(d) else np.minimum(d, 1.0 - d)
    return d


def exact_ball_pieces(metric: Metric, zeta, eta):
    """The ball's pieces in exact rationals: [zeta - eta, zeta + eta)
    clipped to [0, 1] on the interval, split at 0 on the circle, where
    2 eta >= 1 is the whole circle."""
    z, e = Fraction(zeta), Fraction(eta)
    if metric is Metric.INTERVAL:
        return [(max(z - e, 0), min(z + e, 1))]
    if 2 * e >= 1:
        return [(Fraction(0), Fraction(1))]
    lo, hi = (z - e) % 1, (z + e) % 1
    return [(lo, hi)] if lo < hi else [(lo, Fraction(1)), (Fraction(0), hi)]


def in_exact_ball(windows, metric: Metric, zeta, eta):
    """Whether the point w 2^-53 of each integer window w lies in a piece
    [a, b) of ``exact_ball_pieces``: for an integer w, w 2^-53 >= a exactly
    when w >= ceil(a 2^53), and w 2^-53 < b when w < ceil(b 2^53)."""
    windows = np.asarray(windows, dtype=np.int64)
    inside = np.zeros(windows.shape, dtype=bool)
    for a, b in exact_ball_pieces(metric, zeta, eta):
        lo, hi = (math.ceil(x * 2 ** WINDOW_BITS) for x in (a, b))
        inside |= (windows >= lo) & (windows < hi)
    return inside


class PointRep:
    """Common interface of both point backends."""

    def value(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class FloatPoint(PointRep):
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and 0.0 <= self.x <= 1.0):
            raise DomainError(f"point {self.x!r} outside [0, 1]")

    def value(self) -> float:
        return self.x


class BitStreamPoint(PointRep):
    """A point of [0, 1] as a lazily extendable binary digit stream.

    The instance views a base stream at a digit ``offset`` with all digits
    complemented when ``comp_bit`` is 1: digit(i) = base[offset+i] XOR
    comp_bit.  A doubling step shifts the offset; a tent step shifts and
    sets comp_bit to the base digit it consumed.  Derived views share the
    base storage, so extending any view extends them all.  The digit filler
    may draw from a random generator (stationary sampling) or repeat a
    fixed pattern (deterministic reference points such as 1 = 0.111...).
    """

    __slots__ = ("_digits", "_fill", "offset", "comp_bit")

    def __init__(
        self,
        digits,
        fill: Callable[[bytearray, int], None] | None = None,
        offset: int = 0,
        comp_bit: int = 0,
    ):
        if isinstance(digits, BitStreamPoint):
            raise TypeError("wrap raw digits, not another point")
        self._digits = digits if isinstance(digits, bytearray) else bytearray(digits)
        self._fill = fill
        self.offset = offset
        self.comp_bit = comp_bit

    @classmethod
    def from_digits(cls, digits, fill=None) -> "BitStreamPoint":
        return cls(bytearray(int(d) for d in digits), fill)

    @classmethod
    def from_float(cls, x: float) -> "BitStreamPoint":
        """Exact digits of a float (dyadic rational); zero digits beyond."""
        if not (math.isfinite(x) and 0.0 <= x <= 1.0):
            raise DomainError(f"point {x!r} outside [0, 1]")
        if x == 1.0:
            return cls.ones()
        frac = Fraction(x)
        k = frac.denominator.bit_length() - 1  # denominator is 2**k
        digits = bytearray()
        num = frac.numerator
        for i in range(k):
            digits.append((num >> (k - 1 - i)) & 1)
        return cls(digits, _zero_fill)

    @classmethod
    def from_generator(cls, gen: np.random.Generator, p_zero: float = 0.5) -> "BitStreamPoint":
        """Stream with independent digits, P(digit = 0) = ``p_zero``."""

        def fill(buf: bytearray, upto: int):
            need = upto - len(buf)
            if need > 0:
                draw = (gen.random(max(need, 64)) >= p_zero).astype(np.uint8)
                buf.extend(draw.tobytes())

        return cls(bytearray(), fill)

    @classmethod
    def ones(cls) -> "BitStreamPoint":
        return cls(bytearray(), _one_fill)

    @classmethod
    def zeros(cls) -> "BitStreamPoint":
        return cls(bytearray(), _zero_fill)

    def _ensure(self, upto: int):
        if len(self._digits) < upto:
            if self._fill is None:
                raise DomainError("digit stream exhausted and no filler given")
            self._fill(self._digits, upto)
            if len(self._digits) < upto:
                raise DomainError("digit filler failed to extend the stream")

    def digit(self, i: int) -> int:
        """The i-th binary digit (1-indexed) of this point."""
        if i < 1:
            raise DomainError("digits are 1-indexed")
        self._ensure(self.offset + i)
        return self._digits[self.offset + i - 1] ^ self.comp_bit

    def digits(self, n: int) -> list[int]:
        return [self.digit(i) for i in range(1, n + 1)]

    def value(self, bits: int = WINDOW_BITS) -> float:
        """Float value of the leading ``bits`` digits (a truncation)."""
        self._ensure(self.offset + bits)
        acc = 0
        for i in range(1, bits + 1):
            acc = (acc << 1) | (self._digits[self.offset + i - 1] ^ self.comp_bit)
        return acc / float(1 << bits)

    def shifted(self, n: int, tent: bool) -> "BitStreamPoint":
        """View after n doubling shifts, or n tent steps when ``tent``."""
        view = BitStreamPoint.__new__(BitStreamPoint)
        view._digits = self._digits
        view._fill = self._fill
        view.offset = self.offset + n
        if tent:
            self._ensure(self.offset + n)
            view.comp_bit = self._digits[self.offset + n - 1]
        else:
            view.comp_bit = self.comp_bit
        return view


def _zero_fill(buf: bytearray, upto: int):
    buf.extend(b"\x00" * (upto - len(buf)))


def _one_fill(buf: bytearray, upto: int):
    buf.extend(b"\x01" * (upto - len(buf)))


def _as_unit_float(x: float) -> float:
    if not (math.isfinite(x) and 0.0 <= x <= 1.0):
        raise DomainError(f"point {x!r} left [0, 1]")
    return x


def iterate(system: MapSystem, point: PointRep, n: int) -> PointRep:
    """Apply the map ``n`` times to ``point``.

    Float iteration of the tent and doubling maps is supported for short
    exact computations but loses one digit per step; long orbits of these
    maps must use ``BitStreamPoint``.
    """
    if n < 0:
        raise DomainError("cannot iterate backwards")
    if n == 0:
        return point
    kind = system.kind
    if isinstance(point, BitStreamPoint):
        if kind is MapKind.DOUBLING:
            return point.shifted(n, tent=False)
        if kind is MapKind.FULL_TENT:
            return point.shifted(n, tent=True)
        raise BackendUnsupported(f"bitstream points undefined for {kind.value}")
    x = _as_unit_float(point.value())
    if kind is MapKind.FULL_TENT:
        for _ in range(n):
            x = 1.0 - abs(2.0 * x - 1.0)
        return FloatPoint(x)
    if kind is MapKind.DOUBLING:
        for _ in range(n):
            x = (2.0 * x) % 1.0
        return FloatPoint(x)
    if kind is MapKind.ROTATION:
        xi = round(x * FIXED_ONE)  # exact: x carries <= 53 bits
        xi = (xi + n * system.fixed_angle) % FIXED_ONE
        return FloatPoint(xi / FIXED_ONE)
    if kind is MapKind.MANNEVILLE_POMEAU:
        e = 1.0 + system.s
        for _ in range(n):
            x = x + x**e
            if x >= 1.0:
                x -= 1.0
        return FloatPoint(x)
    raise DomainError(f"unknown map kind {kind!r}")


def itinerary(ctx: PartitionContext, x, n: int) -> tuple[int, ...]:
    """Itinerary of ``x`` through the base partition for ``n`` steps, one
    letter at a time: 0 for the left base cell, 1 for the right one.

    Tent and doubling points are followed in exact rational arithmetic
    (the doubling map reads the circle's 1 as 0), rotation points on the
    2^63 fixed-point grid.  ``cylinder_word`` packs the same tent and
    doubling letters into an int.
    """
    if not 0 <= x <= 1:
        raise DomainError("point outside [0, 1]")
    kind = ctx.system.kind
    letters = []
    if kind is MapKind.ROTATION:
        xi = round(float(x) * FIXED_ONE) % FIXED_ONE
        a = ctx.system.fixed_angle
        for _ in range(n):
            letters.append(0 if xi < FIXED_ONE - a else 1)
            xi = (xi + a) % FIXED_ONE
        return tuple(letters)
    v = Fraction(x)
    if kind is MapKind.DOUBLING and v == 1:
        v = Fraction(0)
    for _ in range(n):
        if kind is MapKind.FULL_TENT:
            letters.append(0 if v <= Fraction(1, 2) else 1)
            v = 2 * v if letters[-1] == 0 else 2 - 2 * v
        else:
            v = 2 * v
            letters.append(1 if v >= 1 else 0)
            v -= letters[-1]
    return tuple(letters)


def tent_interval(word) -> tuple[Fraction, Fraction]:
    """Exact endpoints of the closure of the tent cell with the given
    letters; which endpoints the cell itself holds depends on its
    orientation, so the endpoints alone do not give a boundary point's
    word."""
    lo, hi = Fraction(0), Fraction(1)
    orient = 1
    for w in word:
        mid = (lo + hi) / 2
        if (w == 0) == (orient > 0):
            hi = mid
        else:
            lo = mid
        if w == 1:
            orient = -orient
    return lo, hi


def unpack_word(word: int, n: int) -> tuple[int, ...]:
    """The letters of an ``n``-letter packed word, first letter first."""
    return tuple((word >> (n - 1 - i)) & 1 for i in range(n))


def max_depth_in(ctx: PartitionContext, x, zeta) -> int:
    """Largest n <= max_depth with x in the depth-n cylinder around zeta.

    Returns 0 when x already falls outside the depth-1 cell.  The value
    ``ctx.max_depth`` means the match reached the depth cap and is an
    overflow marker: the true depth is only known to be >= max_depth.
    """
    cap = ctx.max_depth
    wx = itinerary(ctx, x, cap)
    wz = itinerary(ctx, zeta, cap)
    depth = 0
    while depth < cap and wx[depth] == wz[depth]:
        depth += 1
    return depth


def ball_evaluate(obs: BallObservable, x) -> float:
    """phi(x) = g(ball mass at radius dist(x, zeta))."""
    d = distance(obs.measure.metric, float(x), obs.zeta)
    return obs.g.forward(obs.measure.ball_mass(obs.zeta, d))


def cylinder_evaluate_ex(obs: CylinderObservable, x) -> tuple[float, bool]:
    """(phi(x), overflow).  overflow means the itinerary of x agreed
    with the target's past the depth cap, so phi is reported as the
    supremum and the caller should treat the sample as censored."""
    n = max_depth_in(obs.ctx, x, obs.zeta)
    if n >= obs.ctx.max_depth:
        return obs.g.value_at_zero, True
    return obs.g.forward(obs.ladder_mass(n)), False


def cylinder_evaluate(obs: CylinderObservable, x) -> float:
    return cylinder_evaluate_ex(obs, x)[0]


def stream_word(point: BitStreamPoint, n: int, tent: bool) -> tuple[int, ...]:
    """Itinerary of a digit-stream point for ``n`` steps.

    The doubling letters are the digits; the tent letter at step j is the
    leading digit of the j-th iterate.  This matches the interval rule of
    ``itinerary`` everywhere except possibly on the measure-zero set of
    dyadic cell boundaries.
    """
    if not tent:
        return tuple(point.digits(n))
    letters = []
    cur = point
    for _ in range(n):
        letters.append(cur.digit(1))
        cur = cur.shifted(1, tent=True)
    return tuple(letters)


#: the eight digits of a byte, most significant bit first
_BYTE_DIGITS = [[(b >> (7 - i)) & 1 for i in range(8)] for b in range(256)]


def pack_digits(digits):
    """Pack a (rows, cols) 0/1 digit table the engine's way: digit c of a
    row becomes bit 63 - (c mod 64) of its word c // 64, and the bits past
    ``cols`` are 0."""
    table = np.asarray(digits, dtype=bool)
    rows, cols = table.shape
    n_words = math.ceil(cols / 64)
    bits = np.zeros((rows, 64 * n_words), dtype=np.uint64)
    bits[:, :cols] = table
    weights = np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64)
    return (bits.reshape(rows, n_words, 64) * weights).sum(
        axis=2, dtype=np.uint64)


def unpack_digits(words, cols):
    """The (rows, cols) boolean digit table of a packed digit matrix."""
    c = np.arange(cols)
    shifts = (63 - c % 64).astype(np.uint64)
    return ((words[:, c // 64] >> shifts) & np.uint64(1)).astype(bool)


def reference_digits(gen, rows, cols, p_zero):
    """The packed digit matrix that ``engine.draw_digits`` returns.

    Fair digits come 64 to a raw word: byte k of a word is its bits
    8k .. 8k + 7 (little-endian), each byte gives its digits most
    significant bit first, and the row's words follow one another.  Any
    other p_zero reads a row's raw words as 16-bit lanes in the same
    order, lane i giving the byte of digits 8i .. 8i + 7 by inverting the
    exact CDF of 8 digits (``inverted_byte``).  The lanes whose cell holds
    a CDF boundary strictly inside, taken row by row and left to right,
    then read one raw word each, and those still undecided read further
    words one at a time, in the same order.
    """
    if p_zero != 0.5:
        return _reference_byte_digits(gen, rows, cols, p_zero)
    words = gen.bit_generator.random_raw((rows, math.ceil(cols / 64)))
    out = np.zeros((rows, cols), dtype=bool)
    for i, row in enumerate(words.tolist()):
        digits = []
        for w in row:
            for k in range(8):
                digits += _BYTE_DIGITS[(w >> (8 * k)) & 0xFF]
        out[i] = digits[:cols]
    return pack_digits(out)


@functools.lru_cache(maxsize=None)
def byte_cdf(p_zero):
    """B_0 = 0 <= B_1 <= ... <= B_256 = 1, the CDF of a byte of 8 digits
    in byte-value order, each digit 0 with mass q = ceil(p_zero 2^53) /
    2^53 and independent, exactly."""
    q = Fraction(math.ceil(Fraction(p_zero) * 2 ** 53), 2 ** 53)
    bounds = [Fraction(0)]
    for b in range(256):
        a = bin(b).count("1")
        bounds.append(bounds[-1] + q ** (8 - a) * (1 - q) ** a)
    assert bounds[-1] == 1
    return tuple(bounds)


def inverted_byte(bounds, lo, width):
    """The byte of every uniform in [lo, lo + width), or None when a
    boundary lies strictly inside, so that the interval does not decide."""
    first = bisect.bisect_right(bounds, lo)
    if first < len(bounds) and bounds[first] < lo + width:
        return None
    return first - 1


@functools.lru_cache(maxsize=None)
def lane_bytes(p_zero):
    """``inverted_byte`` of each 16-bit lane's cell, in integers over
    2^424, where every boundary is one."""
    bounds = [int(b * 2 ** 424) for b in byte_cdf(p_zero)]
    return tuple(inverted_byte(bounds, v << 408, 1 << 408)
                 for v in range(2 ** 16))


def _reference_byte_digits(gen, rows, cols, p_zero):
    """``reference_digits`` for p_zero != 1/2, one lane at a time."""
    bounds = byte_cdf(p_zero)
    n_lanes = math.ceil(cols / 8)
    words = gen.bit_generator.random_raw((rows, math.ceil(n_lanes / 4)))
    table = np.zeros((rows, 8 * n_lanes), dtype=bool)
    ties = []
    for i, row in enumerate(words.tolist()):
        for lane in range(n_lanes):
            v = (row[lane // 4] >> (16 * (lane % 4))) & 0xFFFF
            byte = lane_bytes(p_zero)[v]
            if byte is None:
                ties.append((i, lane, Fraction(v, 2 ** 16)))
            else:
                table[i, 8 * lane:8 * lane + 8] = _BYTE_DIGITS[byte]
    width = Fraction(1, 2 ** 80)
    if ties:
        tie_words = gen.bit_generator.random_raw(len(ties)).tolist()
        ties = [(i, lane, lo + w * width)
                for (i, lane, lo), w in zip(ties, tie_words)]
    for i, lane, lo in ties:
        byte, step = inverted_byte(bounds, lo, width), width
        while byte is None:
            step /= 2 ** 64
            lo += gen.bit_generator.random_raw(1).tolist()[0] * step
            byte = inverted_byte(bounds, lo, step)
        table[i, 8 * lane:8 * lane + 8] = _BYTE_DIGITS[byte]
    return pack_digits(table[:, :cols])


def window_from_digits(packed):
    """The float windows 0.b1...b53 of a (rows, 1) packed digit matrix;
    scaling the integer window by 2^-53 is exact."""
    return (packed[:, 0] >> np.uint64(64 - WINDOW_BITS)) * 2.0 ** -WINDOW_BITS


def iid_digit_min_distances(gen, count, *, n_draws, p_zero, zeta, metric):
    """Minimum distance to zeta over ``n_draws`` independent points of the
    digit-product measure, per lane; each point is 53 drawn digits."""
    best = np.full(count, np.inf)
    scratch = _Scratch()
    for _ in range(n_draws):
        x = window_from_digits(
            draw_digits(gen, count, WINDOW_BITS, p_zero, scratch))
        np.minimum(best, distance(metric, x, zeta), out=best)
    return best


def no_entry_probability(word_bits, p_one, n_letters):
    """P(the word is not among n_letters iid letters), exactly.

    ``word_bits`` lists the word's letters, first letter first, and each
    letter is 1 with probability ``p_one``.  The scan is the KMP automaton
    (Knuth, Morris and Pratt, 1977): its transient states are the lengths
    0 .. depth - 1 of the longest prefix of the word that ends the letters
    read so far, and reading the whole word absorbs.  The answer is the
    mass still transient after n_letters steps of the sub-stochastic
    transfer matrix.
    """
    word = [int(b) for b in word_bits]
    depth = len(word)
    step = np.zeros((depth, depth))
    for state in range(depth):
        for letter, mass in ((0, 1.0 - p_one), (1, p_one)):
            seen = word[:state] + [letter]
            k = len(seen)
            while seen[len(seen) - k:] != word[:k]:
                k -= 1
            if k < depth:
                step[state, k] += mass
    start = np.zeros(depth)
    start[0] = 1.0
    return float(start @ np.linalg.matrix_power(step, n_letters).sum(axis=1))


def fraction_smb_rates(ctx: PartitionContext, seed: int, depth: int,
                       samples: int) -> np.ndarray:
    """-log mu(Z_depth) / depth for the cells ``smb`` samples at ``depth``.

    Each cell's letters, the digits of one row of ``reference_digits``,
    become the exact Fraction midpoint of its doubling cell, and
    ``smb_estimate`` follows that point back through the partition to the
    cell and its mass.
    """
    gen = substream(seed, "smb", f"depth={depth}")
    letters = unpack_digits(
        reference_digits(gen, samples, depth, ctx.measure.p_zero),
        depth)
    rates = []
    for row in letters.tolist():
        idx = 0
        for letter in row:
            idx = (idx << 1) | letter
        point = Fraction(2 * idx + 1, 1 << (depth + 1))
        rates.append(smb_estimate(ctx, point, depth))
    return np.asarray(rates)


def per_block_orbit_hits(system, target, *, cap, n_samples, seed, labels,
                         conditional, start_j=1, measure=None, threads=1):
    """``hts.first_hits`` on the rotation or the intermittent map, with the
    first-hit kernel run once per block on that block's starts."""
    # the target's pieces as exact rationals
    pieces = [(Fraction(a, 2 ** 128), Fraction(b, 2 ** 128))
              for a, b in target.arcs]
    if system.kind is MapKind.ROTATION:
        # the grid points k 2^-63 in a piece [a, b): ceil(a 2^63) <= k and
        # k < ceil(b 2^63); a ball shifts to [0, their count)
        ends = [(math.ceil(a * FIXED_ONE), math.ceil(b * FIXED_ONE))
                for a, b in pieces]
        if target.kind == "cylinder":
            (lo, hi), = ends
        else:
            lo, hi = 0, sum(b - a for a, b in ends)

        def kernel(gen, count):
            starts = (gen.integers(lo, hi, size=count, dtype=np.uint64)
                      if conditional else
                      gen.integers(0, FIXED_ONE, size=count, dtype=np.uint64))
            return rotation_first_hit(
                count, step_fixed=system.fixed_angle, lo=lo, hi=hi, cap=cap,
                start_j=start_j, starts=starts)
    else:
        # the ball's ends, each rounded to a float once
        (lo, hi), = pieces
        lo, hi, orbit = float(lo), float(hi), measure.orbit
        inside = (np.flatnonzero((orbit >= lo) & (orbit < hi))
                  if conditional else np.arange(orbit.size))

        def kernel(gen, count):
            starts = orbit[inside[gen.integers(0, inside.size, size=count)]]
            return mp_first_hit(
                count, s_exp=system.s, lo=lo, hi=hi, cap=cap,
                start_j=start_j, starts=starts)
    return run_blocked(n_samples, seed, labels, kernel, threads=threads)


def per_block_digit_hits(system, target, gens, *, cap, n_samples,
                         conditional, start_j=1, measure):
    """``hts.first_hits`` on the tent or doubling map, with the first-hit
    kernel run once per block, alone, on that block's generator from
    ``gens``: a ball block draws its conditional starts first."""
    parts = []
    slices = block_slices(n_samples)
    for gen, (_, _, count) in zip(gens, slices, strict=True):
        if target.kind == "cylinder":
            parts.append(word_first_hit(
                [gen], count, **word_scan(system, measure, target), cap=cap,
                start_j=start_j, preload=conditional))
            continue
        parts.append(ball_first_hit_digits(
            [gen], count, arcs=target.arcs, zeta=target.zeta_value,
            tent=system.kind is MapKind.FULL_TENT,
            p_zero=measure.p_zero, cap=cap, start_j=start_j,
            cdfs=measure.ball_cdfs(target.arcs) if conditional else None))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def per_block_orbit_min_distances(obs: BallObservable, system, *, n_steps,
                                  n_samples, seed, labels):
    """``evl.sample_ball_min_distances`` on the rotation or the intermittent
    map, with the kernel run once per block on that block's starts."""
    zeta = obs.zeta
    parts = []
    for index, _, count in block_slices(n_samples):
        gen = substream(seed, *labels, "dyn", index)
        if system.kind is MapKind.ROTATION:
            parts.append(rotation_min_distance(
                step_fixed=system.fixed_angle,
                zeta_fixed=round(zeta * FIXED_ONE), n_steps=n_steps,
                starts=gen.integers(0, FIXED_ONE, size=count,
                                    dtype=np.uint64)))
        else:
            orbit = obs.measure.orbit
            parts.append(mp_min_distance(
                s_exp=system.s, zeta=zeta, n_steps=n_steps,
                starts=orbit[gen.integers(0, orbit.size, size=count)]))
    return np.concatenate(parts)


def uniform_cdf(y):
    return np.clip(y, 0.0, 1.0)


class RecordingGen:
    """A Generator that records the shape of every digit draw: a tuple
    for a digit matrix, an int for the tie and further words after a
    Bernoulli draw."""

    def __init__(self, gen):
        self.gen = gen
        self.bit_generator = self
        self.shapes = []

    def random(self, shape):
        self.shapes.append(shape)
        return self.gen.random(shape)

    def random_raw(self, shape):
        self.shapes.append(shape)
        return self.gen.bit_generator.random_raw(shape)
