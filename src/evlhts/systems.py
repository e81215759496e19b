"""Concrete 1-D maps and exact point representations.

Four maps are provided: the full tent map x -> 1 - |2x - 1| on [0, 1], the
angle-doubling map x -> 2x mod 1 on the circle, the rigid rotation
x -> x + alpha mod 1, and the Manneville-Pomeau intermittent family
x -> x + x^(1+s) mod 1.

Two point backends exist because the piecewise expanding maps destroy float
state: doubling a float64 drains one significand bit per step, and every
float orbit of the tent map collapses onto the fixed point 0 within about
53 steps.  ``BitStreamPoint`` therefore represents a point as a lazily
extendable binary digit stream.  Iteration is then a digit shift (doubling)
or a shift with conditional complement (tent), exact at every depth: if the
stream digits are b_1 b_2 ..., the j-th tent iterate has digits
b_{j+i} XOR b_j (with b_0 = 0).

Rotations are iterated in 63-bit fixed-point integers: the angle is
quantized once to A = round(alpha * 2^63) and the map implemented is
exactly x -> x + A/2^63 mod 1, so n-step additivity holds to n * 2^-64
relative to the ideal angle and the arithmetic itself never drifts.
"""

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import BackendUnsupported, DomainError

#: (sqrt(5) - 1) / 2 to 50 places; default rotation angle.
GOLDEN_DECIMAL = Decimal("0.61803398874989484820458683436563811772030917980576")
GOLDEN = float(GOLDEN_DECIMAL)

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


_METRIC = {
    MapKind.FULL_TENT: Metric.INTERVAL,
    MapKind.DOUBLING: Metric.CIRCLE,
    MapKind.ROTATION: Metric.CIRCLE,
    MapKind.MANNEVILLE_POMEAU: Metric.INTERVAL,
}


def distance(metric: Metric, x: float, y: float):
    """Distance between two points under the interval or circle metric."""
    d = abs(x - y)
    if metric is Metric.CIRCLE:
        return min(d, 1.0 - d) if np.isscalar(d) else np.minimum(d, 1.0 - d)
    return d


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

