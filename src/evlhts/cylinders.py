"""Dynamically defined cylinders over the natural Markov partitions.

The depth-n partition is the join of the first n pullbacks of a base
partition P0:

* full tent map: P0 = {[0, 1/2], (1/2, 1]}; the depth-n cells are the
  dyadic intervals of length 2^-n,
* doubling map: P0 = {[0, 1/2), [1/2, 1)}; depth-n cells are the binary
  digit cylinders [k 2^-n, (k+1) 2^-n),
* rotation: P0 = {[0, 1-alpha), [1-alpha, 1)}; the depth-n cells are the
  n+1 arcs cut by the backward orbit of 0 (the classical three-distance
  structure), computed here in exact 63-bit fixed point.

Membership is decided by the itinerary (the exact letter sequence of the
orbit through P0), which is self-consistent at every point.  Interval
endpoints are reported with the uniform half-open convention of each map
(right-closed for the tent cells, left-closed otherwise); the two views
can disagree only on the measure-zero set of cell boundaries.

Masses are exact: on the tent/doubling cells they are products of the
letter masses of ``measures.digit_p_zero`` -- powers of 2 at p = 1/2
(carried as an integer base-2 log so deep cylinders never underflow) --
and arc lengths for the rotation.  Off p = 1/2 one rule gives a word's
log mass, ``word_log_mass``: the correctly rounded sum of its letter log
masses, which depends only on how many letters are 1.
"""

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, UnsupportedCombination, ZeroMassCylinder
from .measures import BernoulliDoubling, Lebesgue1D, MeasureModel, digit_p_zero
from .systems import DIGIT_KINDS, FIXED_ONE, MapKind, MapSystem

LN2 = math.log(2)

#: Default number of recorded partition levels.
DEFAULT_MAX_DEPTH = 60


@dataclass(frozen=True)
class Cylinder:
    """One partition cell: exact endpoints and mass."""

    depth: int
    lo: Fraction
    hi: Fraction
    mass: float
    log_mass: float
    log2_mass: int | None = None  # exact when the mass is a power of 2


@dataclass
class PartitionContext:
    """A map, a compatible measure, and a depth cap for cylinder queries."""

    system: MapSystem
    measure: MeasureModel
    max_depth: int = DEFAULT_MAX_DEPTH
    _rotation_bounds: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        kind = self.system.kind
        if kind is MapKind.MANNEVILLE_POMEAU:
            raise UnsupportedCombination(
                "no Markov partition is provided for the intermittent map"
            )
        if kind is MapKind.ROTATION and not isinstance(self.measure, Lebesgue1D):
            raise UnsupportedCombination("rotation cylinders require Lebesgue")
        if isinstance(self.measure, BernoulliDoubling) and kind is not MapKind.DOUBLING:
            raise UnsupportedCombination(
                "the Bernoulli digit measure is invariant only for the doubling map"
            )

    def rotation_bounds(self, depth: int) -> list[int]:
        """Sorted fixed-point boundary set {-k alpha mod 1 : k <= depth}."""
        got = self._rotation_bounds.get(depth)
        if got is None:
            a = self.system.fixed_angle
            got = sorted(((-k * a) % FIXED_ONE) for k in range(depth + 1))
            self._rotation_bounds[depth] = got
        return got


def letter_log_masses(ctx: PartitionContext) -> tuple[float, float] | None:
    """(log p, log(1 - p)) of the letters 0 and 1 on the digit systems;
    None for the rotation, whose cylinder masses are arc lengths."""
    if ctx.system.kind not in DIGIT_KINDS:
        return None
    p = digit_p_zero(ctx.measure)
    return (math.log(p), math.log(1.0 - p))


def word_log_mass(ctx: PartitionContext, letters) -> float:
    """log mu of the digit cell with the given letters (0/1 or bools): the
    ``math.fsum`` of the letter log masses.  The sum is correctly rounded,
    so it depends only on the count of ones, not on their order."""
    log0, log1 = letter_log_masses(ctx)
    ones = int(np.count_nonzero(letters))
    return math.fsum([log1] * ones + [log0] * (len(letters) - ones))


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(float(x))
    raise DomainError(f"cannot take exact value of {type(x).__name__}")


HALF = Fraction(1, 2)


def cylinder_word(ctx: PartitionContext, x, n: int) -> tuple[int, ...]:
    """Itinerary of ``x`` through the base partition for ``n`` steps.

    Letters are 0 for the left base cell and 1 for the right one.  Points
    are followed in exact rational arithmetic.
    """
    if n < 0:
        raise DomainError("word length must be >= 0")
    kind = ctx.system.kind
    if kind is MapKind.FULL_TENT:
        v = _to_fraction(x)
        if not 0 <= v <= 1:
            raise DomainError("point outside [0, 1]")
        letters = []
        for _ in range(n):
            if v <= HALF:
                letters.append(0)
                v = 2 * v
            else:
                letters.append(1)
                v = 2 - 2 * v
        return tuple(letters)
    if kind is MapKind.DOUBLING:
        v = _to_fraction(x)
        if v == 1:
            v = Fraction(0)
        letters = []
        for _ in range(n):
            v = 2 * v
            if v >= 1:
                letters.append(1)
                v -= 1
            else:
                letters.append(0)
        return tuple(letters)
    if kind is MapKind.ROTATION:
        xi = _rotation_fixed(x)
        a = ctx.system.fixed_angle
        thr = FIXED_ONE - a
        letters = []
        for _ in range(n):
            letters.append(0 if xi < thr else 1)
            xi = (xi + a) % FIXED_ONE
        return tuple(letters)
    raise UnsupportedCombination(kind)


def _rotation_fixed(x) -> int:
    v = float(x)
    if not 0.0 <= v <= 1.0:
        raise DomainError("point outside [0, 1]")
    return round(v * FIXED_ONE) % FIXED_ONE


def _tent_interval(word) -> tuple[Fraction, Fraction]:
    """Exact endpoints of the tent cell with the given itinerary."""
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


def cylinder_at(ctx: PartitionContext, zeta, n: int) -> Cylinder:
    """The depth-``n`` cylinder around ``zeta`` with its exact mass."""
    if not 0 <= n:
        raise DomainError("depth must be >= 0")
    kind = ctx.system.kind
    if n == 0:
        return Cylinder(0, Fraction(0), Fraction(1), 1.0, 0.0, 0)
    if kind is MapKind.ROTATION:
        bounds = ctx.rotation_bounds(n)
        zi = _rotation_fixed(zeta)
        i = bisect.bisect_right(bounds, zi) - 1
        lo_i = bounds[i]
        hi_i = bounds[i + 1] if i + 1 < len(bounds) else FIXED_ONE
        mass = (hi_i - lo_i) / FIXED_ONE
        if mass <= 0.0:
            raise ZeroMassCylinder(f"empty rotation arc at depth {n}")
        return Cylinder(
            n, Fraction(lo_i, FIXED_ONE), Fraction(hi_i, FIXED_ONE),
            mass, math.log(mass),
        )
    word = cylinder_word(ctx, zeta, n)
    if kind is MapKind.FULL_TENT:
        lo, hi = _tent_interval(word)
    else:
        idx = 0
        for w in word:
            idx = (idx << 1) | w
        lo = Fraction(idx, 1 << n)
        hi = Fraction(idx + 1, 1 << n)
    if digit_p_zero(ctx.measure) == 0.5:
        return Cylinder(n, lo, hi, math.ldexp(1.0, -n), -n * LN2, -n)
    log_mass = word_log_mass(ctx, word)
    return Cylinder(n, lo, hi, math.exp(log_mass), log_mass)


def smb_estimate(ctx: PartitionContext, zeta, n: int) -> float:
    """Depth-normalized information -log mu(Z_n[zeta]) / n.

    Uses the exact integer base-2 log when the mass is a dyadic power, so
    the tent/Lebesgue estimate is exactly log 2 at every depth and never
    underflows; otherwise works from the accumulated log mass.
    """
    if n < 1:
        raise DomainError("depth must be >= 1")
    cyl = cylinder_at(ctx, zeta, n)
    if cyl.log2_mass is not None:
        return LN2 * (-cyl.log2_mass / n)
    if not math.isfinite(cyl.log_mass):
        raise ZeroMassCylinder(f"zero-mass cylinder at depth {n}")
    return -cyl.log_mass / n


def gibbs_envelope(
    ctx: PartitionContext,
    zeta,
    n: int,
    potential: tuple[float, float],
    pressure: float = 0.0,
) -> float:
    """Ratio mu(Z_n[zeta]) / exp(S_n phi(zeta) - n P) for a potential that
    is constant on each base cell.

    The cylinder log mass and the Birkhoff sum are both correctly rounded
    sums of per-letter values (at p = 1/2, ``-n * LN2`` is the correctly
    rounded n copies of log 1/2), so when the potential values equal the
    letter log masses (and P = 0) the ratio is exactly 1.0.
    """
    if n < 1:
        raise DomainError("depth must be >= 1")
    word = cylinder_word(ctx, zeta, n)
    log_mass = cylinder_at(ctx, zeta, n).log_mass
    if not math.isfinite(log_mass):
        raise ZeroMassCylinder(f"zero-mass cylinder at depth {n}")
    s_n = math.fsum(potential[w] for w in word)
    return math.exp(log_mass - (s_n - n * pressure))

