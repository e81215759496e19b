"""Stationary measures paired with the maps.

Three kinds are provided, keyed by their ``measure.kind`` in ``MEASURES``:

* ``Lebesgue1D`` -- the acip of the tent, doubling and rotation maps.
* ``BernoulliDoubling(p)`` -- the (p, 1-p) Bernoulli measure on binary
  digits, invariant and ergodic for the doubling map and mutually singular
  with Lebesgue for p != 1/2.  Its CDF is computed exactly from the digit
  expansion of the argument: F(0.b1 b2 ...) sums, over every digit b_i = 1,
  the mass of the prefix b_1 .. b_{i-1} times p.  All endpoint arithmetic
  is done in 128-bit fixed point, so the digit expansion never truncates
  before the certified remainder is below ~1e-19.
* ``EmpiricalOrbit`` -- a long-orbit surrogate for the one map without a
  closed form invariant density (Manneville-Pomeau); one orbit is
  generated once, after a burn-in, and all masses are orbit frequencies.

Each measure states the maps it is invariant for, which
``require_invariant`` checks, and its ``p_zero``: the mass of the digit 0,
all the tent and doubling systems read off it (None if digits are not iid).

A metric ball is laid out once, by ``MeasureModel.ball_arcs``: the (at
most two) arcs or segments it induces on [0, 1], with exact 2^-128
fixed-point endpoints.  Those arcs give the ball's mass (``ball_mass``,
the sum of the pieces' ``interval_mass``) and its quantile radius
(``quantile_radius``, which inverts ``ball_mass`` by bisection, certifies
|mass - gamma| <= 1e-10 and raises ``NotAttained`` on flat spots of the
mass profile).  ``hts.ball_target`` stores them in the target, which
every sampler then reads in place of a radius; ``ball_cdfs`` gives the
CDFs at their ends, and ``fixed_to_float`` is the one rounding of an end
to a float.
"""

import math

import numpy as np

from .errors import DomainError, NotAttained, UnsupportedCombination
from .rng import substream
from .systems import MapKind, MapSystem, Metric

QUANTILE_MASS_TOL = 1e-10
QUANTILE_BRACKET_MIN = 1e-14
FLAT_SPOT_GAP = 1e-8

#: Working depth (binary digits) of exact endpoint arithmetic.
FIXED_DEPTH = 128
_FIXED_UNIT = 1 << FIXED_DEPTH


def _unit_to_fixed(x) -> int:
    """Exact 128-bit fixed-point representation of a point of [0, 1]."""
    v = float(x)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"point {v!r} outside [0, 1]")
    scaled = math.ldexp(v, FIXED_DEPTH)  # exact: v is a 53-bit float
    if not scaled.is_integer():
        raise DomainError("point finer than the fixed-point working depth")
    return int(scaled)


def fixed_to_float(a: int) -> float:
    """The arc end a 2^-128, rounded to the nearest float."""
    return a / _FIXED_UNIT


def _radius_to_fixed(eta: float) -> int:
    """floor(eta * 2^128), exactly, for a float 0 < eta < 2^896: scaling
    by 2^128 is exact, and ``int`` takes the floor."""
    return int(math.ldexp(eta, FIXED_DEPTH))


class MeasureModel:
    """Common ball-mass / quantile machinery over an interval CDF."""

    # What the package reads off a measure: a name for messages, the maps
    # it is invariant for, the mass of the digit 0 if digits are iid, and
    # its metric (each measure's own: a class states none).
    name: str = "unnamed"
    maps: tuple[MapKind, ...] = ()
    p_zero: float | None = None
    metric: Metric | None = None

    def __eq__(self, other):
        # one class on the same parameters lays out the same balls
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self):
        return hash(type(self))

    # -- kind-specific primitives -------------------------------------
    def interval_mass(self, a: int, b: int) -> float:
        """Mass of [a, b) with fixed-point endpoints 0 <= a <= b <= 1."""
        raise NotImplementedError

    # -- shared operations ---------------------------------------------
    @property
    def diameter(self) -> float:
        return 0.5 if self.metric is Metric.CIRCLE else 1.0

    def ball_arcs(self, zeta, eta: float) -> list[tuple[int, int]]:
        """Fixed-point [lo, hi) pieces of the ball of radius eta: the points
        of [zeta - e, zeta + e), e = floor(eta 2^128) 2^-128, clipped to
        [0, 1] on the interval and split at 0 on the circle, where e >= 1/2
        is the whole circle."""
        zeta_fixed = _unit_to_fixed(zeta)
        eta_fixed = _radius_to_fixed(max(eta, 0.0))
        if eta_fixed == 0:  # no radius, or one below the fixed-point grid
            return []
        if self.metric is Metric.CIRCLE:
            if 2 * eta_fixed >= _FIXED_UNIT:
                return [(0, _FIXED_UNIT)]
            lo = (zeta_fixed - eta_fixed) % _FIXED_UNIT
            hi = (zeta_fixed + eta_fixed) % _FIXED_UNIT
            if lo < hi:
                return [(lo, hi)]
            return [(lo, _FIXED_UNIT), (0, hi)]
        lo = max(zeta_fixed - eta_fixed, 0)
        hi = min(zeta_fixed + eta_fixed, _FIXED_UNIT)
        return [(lo, hi)] if lo < hi else []

    def ball_mass(self, zeta, eta: float) -> float:
        """Mass of the open metric ball of radius ``eta`` around ``zeta``.

        The measures here are non-atomic, so open/closed balls carry the
        same mass and the result is a CDF difference per arc piece.
        """
        return math.fsum(self.interval_mass(a, b)
                         for a, b in self.ball_arcs(zeta, eta))

    def ball_cdfs(self, arcs) -> tuple[tuple, tuple]:
        """(F(lo)..., F(hi)...) over the pieces [lo, hi) of ``arcs``,
        F(x) = ``interval_mass(0, x)``: the CDF table that
        ``engine.conditional_digit_starts`` inverts."""
        return (tuple(self.interval_mass(0, a) for a, _ in arcs),
                tuple(self.interval_mass(0, b) for _, b in arcs))

    def ball_masses(self, zeta, radii: np.ndarray) -> np.ndarray:
        """Vector of ``ball_mass`` over ``radii`` (subclasses may vectorize)."""
        return np.array([self.ball_mass(zeta, float(r)) for r in radii], dtype=np.float64)

    def quantile_radius(self, zeta, gamma: float) -> float:
        """Smallest radius whose ball around ``zeta`` has mass ``gamma``.

        Bisects the monotone radius -> mass profile until the bracket is
        below 1e-14 and certifies |mass - gamma| <= 1e-10.  A larger
        residual means the profile jumps across ``gamma`` (flat spot of
        the CDF / atom of the mass profile) and raises ``NotAttained``.
        """
        if not 0.0 <= gamma <= 1.0:
            raise DomainError(f"mass {gamma!r} outside [0, 1]")
        if gamma == 0.0:
            return 0.0
        def mass(r: float) -> float:
            return self.ball_mass(zeta, r)

        lo, hi = 0.0, self.diameter
        if mass(hi) < gamma - QUANTILE_MASS_TOL:
            raise NotAttained(f"total mass below requested level {gamma}")
        while True:
            if hi - lo < QUANTILE_BRACKET_MIN and abs(mass(hi) - gamma) <= QUANTILE_MASS_TOL:
                break
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # bracket is two adjacent floats
                break
            if mass(mid) >= gamma:
                hi = mid
            else:
                lo = mid
        achieved = mass(hi)
        if abs(achieved - gamma) > self._quantile_tol():
            raise NotAttained(
                f"mass profile jumps past {gamma}: nearest attainable {achieved} "
                f"(gap {abs(achieved - gamma):.3g})"
            )
        return hi

    def _quantile_tol(self) -> float:
        return FLAT_SPOT_GAP


class Lebesgue1D(MeasureModel):
    """Normalized length on [0, 1], as interval or circle."""

    name = "Lebesgue"
    maps = (MapKind.FULL_TENT, MapKind.DOUBLING, MapKind.ROTATION)
    p_zero = 0.5

    def __init__(self, metric: Metric = Metric.INTERVAL):
        self.metric = metric

    def interval_mass(self, a: int, b: int) -> float:
        return (b - a) / _FIXED_UNIT

    def ball_masses(self, zeta, radii: np.ndarray) -> np.ndarray:
        """``ball_mass`` over ``radii``, bit for bit: e = floor(r 2^128)
        2^-128 is an exact float, each piece is rounded once (clipped at 1,
        z > 1/2 makes 1 - z exact), and a circle ball that wraps is the
        IEEE sum of its two pieces, as ``math.fsum`` of two floats is."""
        z = _unit_to_fixed(zeta) / _FIXED_UNIT
        r = np.asarray(radii, dtype=np.float64)
        e = np.ldexp(np.floor(np.ldexp(np.maximum(r, 0.0), FIXED_DEPTH)),
                     -FIXED_DEPTH)
        if self.metric is Metric.CIRCLE:
            z %= 1.0
            return np.select(
                [e >= 0.5, e > z, e > 1.0 - z],
                [1.0, (e - z) + (z + e), ((1.0 - z) + e) + ((z - 1.0) + e)],
                e + e)
        return np.select([e > z, e > 1.0 - z],
                         [np.minimum(z + e, 1.0), (1.0 - z) + e], e + e)


class BernoulliDoubling(MeasureModel):
    """(p, 1-p) Bernoulli measure on binary digits; digit 0 has mass p.

    Invariant for the doubling map.  Non-atomic and fully supported for
    p in (0, 1), so the CDF is continuous and strictly increasing, but it
    is singular with respect to Lebesgue whenever p != 1/2.
    """

    name = "Bernoulli digit"
    maps = (MapKind.DOUBLING,)

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise DomainError(f"digit mass p={p!r} outside (0, 1)")
        self.p_zero = float(p)
        self.metric = Metric.CIRCLE

    def cdf_fixed(self, x: int) -> float:
        """F(x) = mass of [0, x) for fixed-point x in [0, 2^128]."""
        if x <= 0:
            return 0.0
        if x >= _FIXED_UNIT:
            return 1.0
        p, q = self.p_zero, 1.0 - self.p_zero
        total = 0.0
        prefix = 1.0
        for i in range(FIXED_DEPTH):
            bit = (x >> (FIXED_DEPTH - 1 - i)) & 1
            if bit:
                total += prefix * p
                prefix *= q
            else:
                prefix *= p
            if prefix == 0.0:
                break
        return total

    def interval_mass(self, a: int, b: int) -> float:
        return max(self.cdf_fixed(b) - self.cdf_fixed(a), 0.0)

    def ball_masses(self, zeta, radii: np.ndarray) -> np.ndarray:
        """``ball_mass`` over ``radii``, equal to it bit for bit.

        floor(r 2^128) = h 2^64 + l, with h = floor(r 2^64) and
        l = floor(frac(r 2^64) 2^64), each an exact float.  zeta -+ it mod
        2^128 carry and borrow across uint64 (high, low) halves, in the
        cases of ``ball_arcs``: r <= 0 or below 2^-128 is empty, r >= 1/2
        the whole circle, and hi <= lo the pieces [lo, 2^128) and [0, hi).
        ``cdf_fixed``'s recursion then runs on all endpoints at once, with
        its operations in its order, and stops after the lowest digit 1 of
        any endpoint: a later digit 0 adds an exact +0.0.  A piece has mass
        max(F(b) - F(a), 0), and the fsum of two pieces is their IEEE sum.
        """
        zh, zl = map(np.uint64, divmod(_unit_to_fixed(zeta) % _FIXED_UNIT,
                                       1 << 64))
        r = np.asarray(radii, dtype=np.float64)
        whole = r >= 0.5
        frac, eh = np.modf(np.ldexp(np.where((r > 0.0) & ~whole, r, 0.0), 64))
        eh, el = eh.astype(np.uint64), np.ldexp(frac, 64).astype(np.uint64)
        lo_l, hi_l = zl - el, zl + el
        lo_h, hi_h = zh - eh - (zl < el), zh + eh + (hi_l < zl)
        # the endpoints lo then hi: digit i is bit 63 - i mod 64 of half
        # i // 64, read through int64 views by an arithmetic shift and & 1
        halves = np.concatenate([lo_h, hi_h]), np.concatenate([lo_l, hi_l])
        seen = (int(np.bitwise_or.reduce(halves[0])) << 64
                | int(np.bitwise_or.reduce(halves[1])))
        halves = [half.view(np.int64) for half in halves]
        p, q = self.p_zero, 1.0 - self.p_zero
        factors = np.array([p, q])
        total, prefix = np.zeros(2 * r.size), np.ones(2 * r.size)
        step, bit = np.empty(2 * r.size), np.empty(2 * r.size)
        digit = np.empty(2 * r.size, dtype=np.intp)
        for i in range(FIXED_DEPTH + 1 - (seen & -seen).bit_length()
                       if seen else 0):
            np.right_shift(halves[i // 64], 63 - i % 64, out=digit)
            digit &= 1
            np.multiply(prefix, p, out=step)
            np.copyto(bit, digit)
            total += np.multiply(step, bit, out=bit)  # prefix p at a 1
            prefix *= np.take(factors, digit, out=step, mode="clip")
        f_lo, f_hi = total.reshape(2, -1)
        wrap = (lo_h > hi_h) | ((lo_h == hi_h) & (lo_l >= hi_l))
        return np.select([whole, (eh | el) == 0, wrap],
                         [1.0, 0.0, np.maximum(1.0 - f_lo, 0.0) + f_hi],
                         np.maximum(f_hi - f_lo, 0.0))


class EmpiricalOrbit(MeasureModel):
    """Long-orbit surrogate measure for the intermittent map.

    One orbit of length ``orbit_len`` is generated once from a seeded
    start after ``burn_in`` discarded steps; every mass is the frequency
    of orbit points in the queried set.  Quantiles are resolved only to
    the atom size 1.5 / orbit_len of the empirical CDF.
    """

    name = "intermittent-map orbit"
    maps = (MapKind.MANNEVILLE_POMEAU,)
    # its masses count its own points: an orbit measure is only itself
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self,
        system: MapSystem,
        master_seed: int = 0,
        orbit_len: int = 10**6,
        burn_in: int = 10**4,
    ):
        self.metric = system.metric
        require_invariant(self, system)  # before the orbit runs
        self.system = system
        self.orbit_len = int(orbit_len)
        self.burn_in = int(burn_in)
        x0 = float(substream(master_seed, "empirical-orbit", "start").random())
        self.orbit = self._run_orbit(x0)
        self._sorted = np.sort(self.orbit)

    def _run_orbit(self, x0: float) -> np.ndarray:
        """The orbit after the burn-in, stepped with Python's float pow and
        stored through a memoryview, which costs less per point than a
        numpy scalar store."""
        x = x0
        e = 1.0 + self.system.s
        for _ in range(self.burn_in):
            x = x + x**e
            if x >= 1.0:
                x -= 1.0
        out = np.empty(self.orbit_len)
        points = memoryview(out)
        for j in range(self.orbit_len):
            points[j] = x
            x = x + x**e
            if x >= 1.0:
                x -= 1.0
        return out

    def interval_mass(self, a: int, b: int) -> float:
        i, j = np.searchsorted(self._sorted, [fixed_to_float(a),
                                              fixed_to_float(b)])
        return (j - i) / self.orbit_len

    def points_in(self, arcs) -> np.ndarray:
        """The orbit points, in orbit order, that ``interval_mass`` counts
        in the pieces [a, b) of ``arcs``."""
        x, inside = self.orbit, np.zeros(self.orbit_len, dtype=bool)
        for a, b in arcs:
            inside |= (x >= fixed_to_float(a)) & (x < fixed_to_float(b))
        return x[inside]

    def _quantile_tol(self) -> float:
        return 1.5 / self.orbit_len


#: The measures by their ``measure.kind``.
MEASURES = {"lebesgue": Lebesgue1D, "bernoulli": BernoulliDoubling,
            "orbit": EmpiricalOrbit}


def require_invariant(measure, system: MapSystem) -> None:
    """Raise ``UnsupportedCombination`` unless ``measure`` (or its class) is
    invariant for the map of ``system`` and measures balls in the map's
    metric.  A rotation, whose starts are uniform and which reads no mass,
    may run with no measure."""
    kind = system.kind
    if kind not in ((MapKind.ROTATION,) if measure is None else measure.maps):
        takes = " or ".join(m.name for m in MEASURES.values() if kind in m.maps)
        got = "no measure" if measure is None else f"the {measure.name} measure"
        raise UnsupportedCombination(
            f"the {kind.value} map takes the {takes} measure; got {got}")
    if measure is not None and measure.metric not in (None, system.metric):
        raise UnsupportedCombination(
            f"the {kind.value} map measures balls on the "
            f"{system.metric.value}; the {measure.name} measure is on the "
            f"{measure.metric.value}")
