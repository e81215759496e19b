"""Concrete 1-D maps.

Four maps are provided: the full tent map x -> 1 - |2x - 1| on [0, 1], the
angle-doubling map x -> 2x mod 1 on the circle, the rigid rotation
x -> x + alpha mod 1, and the Manneville-Pomeau intermittent family
x -> x + x^(1+s) mod 1.

Rotations are iterated in 63-bit fixed-point integers: the angle is
quantized once to A = round(alpha * 2^63) and the map implemented is
exactly x -> x + A/2^63 mod 1, so n-step additivity holds to n * 2^-64
relative to the ideal angle and the arithmetic itself never drifts.
"""

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .errors import DomainError

#: (sqrt(5) - 1) / 2 to 50 places; default rotation angle.
GOLDEN_DECIMAL = Decimal("0.61803398874989484820458683436563811772030917980576")

FIXED_BITS = 63
FIXED_ONE = 1 << FIXED_BITS
#: Digits of significand carried by the float window of a digit stream.
WINDOW_BITS = 53


class MapKind(str, Enum):
    FULL_TENT = "full_tent"
    DOUBLING = "doubling"
    ROTATION = "rotation"
    MANNEVILLE_POMEAU = "manneville_pomeau"


class Metric(str, Enum):
    INTERVAL = "interval"
    CIRCLE = "circle"


#: The maps whose cylinders are read off iid binary letters (digits, or
#: XORs of adjacent digits for the tent) under a digit-product measure.
DIGIT_KINDS = (MapKind.FULL_TENT, MapKind.DOUBLING)

_METRIC = {
    MapKind.FULL_TENT: Metric.INTERVAL,
    MapKind.DOUBLING: Metric.CIRCLE,
    MapKind.ROTATION: Metric.CIRCLE,
    MapKind.MANNEVILLE_POMEAU: Metric.INTERVAL,
}


@dataclass(frozen=True)
class MapSystem:
    """A concrete map together with its native metric."""

    kind: MapKind
    alpha: Fraction | None = None  # rotation angle, exact rational
    s: float | None = None  # intermittency exponent

    def __post_init__(self):
        if self.kind is MapKind.ROTATION:
            if self.alpha is None:
                raise DomainError("rotation requires an angle")
            if not 0 < self.alpha < 1:
                raise DomainError("rotation angle must lie in (0, 1)")
            # A genuinely irrational angle cannot be stored; reject inputs
            # that are exactly a low-order rational, where the rotation is
            # periodic and none of the limit laws make sense.
            if self.alpha.denominator <= 1000:
                raise DomainError(
                    "rotation angle must be irrational; "
                    f"got {self.alpha} with denominator <= 1000"
                )
        if self.kind is MapKind.MANNEVILLE_POMEAU:
            if self.s is None or not self.s > 0:
                raise DomainError("Manneville-Pomeau exponent s must be > 0")

    @property
    def metric(self) -> Metric:
        return _METRIC[self.kind]

    @property
    def fixed_angle(self) -> int:
        """Rotation angle quantized to 63-bit fixed point."""
        if self.kind is not MapKind.ROTATION:
            raise DomainError("fixed_angle is defined only for rotations")
        return round(self.alpha * FIXED_ONE)


def full_tent() -> MapSystem:
    return MapSystem(MapKind.FULL_TENT)


def doubling() -> MapSystem:
    return MapSystem(MapKind.DOUBLING)


def rotation(alpha: Fraction | str | float = "golden") -> MapSystem:
    if isinstance(alpha, str):
        if alpha != "golden":
            raise DomainError(f"unknown named rotation angle {alpha!r}")
        alpha = Fraction(GOLDEN_DECIMAL)
    elif isinstance(alpha, float):
        alpha = Fraction(alpha)
    return MapSystem(MapKind.ROTATION, alpha=alpha)


def manneville_pomeau(s: float) -> MapSystem:
    return MapSystem(MapKind.MANNEVILLE_POMEAU, s=float(s))


def golden_convergents(depth: int = 30) -> list[tuple[int, int]]:
    """Continued-fraction convergents F_k / F_{k+1} of the golden angle."""
    pairs = []
    a, b = 1, 1
    for _ in range(depth):
        pairs.append((a, b))
        a, b = b, a + b
    return pairs
