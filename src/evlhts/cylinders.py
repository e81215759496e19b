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

A tent or doubling cell is its word: the itinerary of a point (the exact
letter sequence of its orbit through P0), packed into an int with the
first letter in the highest bit, as the engine's word kernels scan it.
The doubling word has the closed form floor(x 2^n) mod 2^n; the tent word
follows x in exact rational arithmetic.  Cells carry no endpoints.  A
rotation cell is its arc, two ints on the 2^63 grid.

Masses are exact: on the tent/doubling cells they are products of the
letter masses of the measure's ``p_zero`` -- powers of 2 at p = 1/2
(carried as an integer base-2 log so deep cylinders never underflow) --
and arc lengths for the rotation.  Off p = 1/2 one rule gives a word's
log mass, ``word_log_mass``: its letter log masses summed exactly as a
rational and rounded once, which depends only on how many letters are 1.
"""

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, UnsupportedCombination, ZeroMassCylinder
from .measures import MeasureModel, require_invariant
from .systems import DIGIT_KINDS, FIXED_ONE, MapKind, MapSystem

LN2 = math.log(2)

#: Default number of recorded partition levels.
DEFAULT_MAX_DEPTH = 60


@dataclass(frozen=True)
class Cylinder:
    """One partition cell and its exact mass.  A tent or doubling cell is
    its packed word (``cylinder_word``); a rotation cell is its fixed-point
    arc [lo, hi) on the 2^63 grid."""

    mass: float
    log_mass: float
    log2_mass: int | None = None  # exact when the mass is a power of 2
    word: int | None = None
    arc: tuple[int, int] | None = None


@dataclass
class PartitionContext:
    """A map, a compatible measure, and a depth cap for cylinder queries."""

    system: MapSystem
    measure: MeasureModel
    max_depth: int = DEFAULT_MAX_DEPTH
    _rotation_bounds: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.system.kind is MapKind.MANNEVILLE_POMEAU:
            raise UnsupportedCombination(
                "no Markov partition is provided for the intermittent map"
            )
        require_invariant(self.measure, self.system)

    def rotation_bounds(self, depth: int) -> list[int]:
        """Sorted fixed-point boundary set {-k alpha mod 1 : k <= depth}."""
        got = self._rotation_bounds.get(depth)
        if got is None:
            a = self.system.fixed_angle
            got = sorted(((-k * a) % FIXED_ONE) for k in range(depth + 1))
            self._rotation_bounds[depth] = got
        return got


def letter_log_masses(ctx: PartitionContext) -> tuple[float, float]:
    """(log p, log(1 - p)) of the letters 0 and 1 on the digit systems."""
    p = ctx.measure.p_zero
    return (math.log(p), math.log(1.0 - p))


def word_log_mass(ctx: PartitionContext, ones: int, depth: int) -> float:
    """log mu of a depth-``depth`` digit cell whose word has ``ones`` letters
    1: the sum of the letter log masses, taken exactly as a rational and
    rounded once, so the count of ones is all it reads of the word.  That
    is the correctly rounded sum, as ``math.fsum`` of the ``depth`` letter
    log masses gives it, at a cost that does not grow with the depth."""
    log0, log1 = letter_log_masses(ctx)
    return float(Fraction(log1) * ones + Fraction(log0) * (depth - ones))


def cylinder_word(ctx: PartitionContext, x, n: int) -> int:
    """Itinerary of ``x`` through the base partition for ``n`` steps, packed
    into an int with the first letter in the highest of its ``n`` bits.

    Letters are 0 for the left base cell and 1 for the right one.  The
    doubling word is floor(x 2^n) mod 2^n, which reads the circle's 1 as
    0; the tent follows x in exact rational arithmetic.
    """
    if n < 0:
        raise DomainError("word length must be >= 0")
    if ctx.system.kind not in DIGIT_KINDS:
        raise UnsupportedCombination(ctx.system.kind)
    if not isinstance(x, (int, float, Fraction)):
        raise DomainError(f"cannot take exact value of {type(x).__name__}")
    num, den = x.as_integer_ratio()
    if not 0 <= num <= den:
        raise DomainError("point outside [0, 1]")
    if ctx.system.kind is MapKind.DOUBLING:
        return ((num << n) // den) % (1 << n)
    word = 0
    for _ in range(n):  # x = num / den; 2x > 1 is letter 1, x -> 2 - 2x
        num *= 2
        word <<= 1
        if num > den:
            word |= 1
            num = 2 * den - num
    return word


def _rotation_fixed(x) -> int:
    v = float(x)
    if not 0.0 <= v <= 1.0:
        raise DomainError("point outside [0, 1]")
    return round(v * FIXED_ONE) % FIXED_ONE


def cylinder_at(ctx: PartitionContext, zeta, n: int) -> Cylinder:
    """The depth-``n`` cylinder around ``zeta`` with its exact mass."""
    if not 0 <= n:
        raise DomainError("depth must be >= 0")
    if ctx.system.kind is MapKind.ROTATION:
        bounds = ctx.rotation_bounds(n)
        zi = _rotation_fixed(zeta)
        i = bisect.bisect_right(bounds, zi) - 1
        lo = bounds[i]
        hi = bounds[i + 1] if i + 1 < len(bounds) else FIXED_ONE
        mass = (hi - lo) / FIXED_ONE
        if mass <= 0.0:
            raise ZeroMassCylinder(f"empty rotation arc at depth {n}")
        return Cylinder(mass, math.log(mass), arc=(lo, hi))
    word = cylinder_word(ctx, zeta, n)
    if ctx.measure.p_zero == 0.5:
        return Cylinder(math.ldexp(1.0, -n), -n * LN2, -n, word=word)
    log_mass = word_log_mass(ctx, word.bit_count(), n)
    return Cylinder(math.exp(log_mass), log_mass, word=word)


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
) -> float:
    """Ratio mu(Z_n[zeta]) / exp(S_n phi(zeta)) for a potential of pressure
    0 that is constant on each base cell.

    The cylinder log mass and the Birkhoff sum are both correctly rounded
    sums of per-letter values, so both follow from the count of ones in
    the word (at p = 1/2, ``-n * LN2`` is the correctly rounded n copies of
    log 1/2); when the potential values equal the letter log masses, whose
    pressure is 0, the ratio is exactly 1.0.
    """
    if n < 1:
        raise DomainError("depth must be >= 1")
    cyl = cylinder_at(ctx, zeta, n)
    if cyl.word is None:
        raise UnsupportedCombination("Gibbs envelopes read tent or doubling words")
    if not math.isfinite(cyl.log_mass):
        raise ZeroMassCylinder(f"zero-mass cylinder at depth {n}")
    ones = cyl.word.bit_count()
    s_n = math.fsum([potential[1]] * ones + [potential[0]] * (n - ones))
    return math.exp(cyl.log_mass - s_n)

