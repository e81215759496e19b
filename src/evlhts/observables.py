"""Observables maximized at a target point, built from a shape function.

phi(x) = g(v(x)) where v(x) is a small-mass coordinate around the target
zeta and g: (0, 1] -> R is strictly decreasing:

* ball mode: v(x) = mu(B_d(zeta)) with d = dist(x, zeta) — the mass of
  the ball that just reaches x,
* cylinder mode: v(x) = mu(Z_n[zeta]) at the deepest partition level n
  whose cell around zeta still contains x.

Because g is strictly decreasing, {phi > u} is a ball (resp. cylinder)
around zeta.  In ball mode its mass is g^{-1}(u) exactly, by construction,
for every non-atomic measure, so levels, the quantiles g(1/n) and the
exceedance masses are read off g with no quantile bisection.

Three shape families are provided, one per classical extreme value type:

  type 1: g(v) = -log v               range [0, inf)
  type 2: g(v) = v^(-1/alpha)         range [1, inf),   alpha > 0
  type 3: g(v) = 1 - v^(1/alpha)      range [0, 1],      alpha > 0

``tau`` maps a rescaled level y to the time-scaling constant used when
comparing maxima with hitting times: exp(-y), y^(-alpha) (infinite for
y <= 0), and (-y)^alpha (zero for y > 0) respectively.  Each shape owns
its limit law G = exp(-tau) (``limit_cdf``) and G's exact value outside
its open support (``pinned``).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cylinders import PartitionContext, cylinder_at
from .errors import DomainError, OutOfRange
from .measures import MeasureModel


class GKind(str, Enum):
    G1 = "g1"
    G2 = "g2"
    G3 = "g3"


@dataclass(frozen=True)
class GShape:
    """A strictly decreasing shape g on (0, 1] with its clipped inverse
    (``tail_fraction``), tau and its limit law."""

    kind: GKind
    alpha: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive, got {self.alpha}")

    @property
    def value_at_zero(self) -> float:
        """sup phi: the value assigned to x = zeta (v = 0)."""
        return 1.0 if self.kind is GKind.G3 else math.inf

    def forward(self, v: float) -> float:
        """g(v) for v in [0, 1]; v = 0 gives the supremum."""
        if not 0.0 <= v <= 1.0:
            raise OutOfRange(f"mass argument {v} outside [0, 1]")
        if v == 0.0:
            return self.value_at_zero
        if self.kind is GKind.G1:
            return -math.log(v)
        if self.kind is GKind.G2:
            try:
                return v ** (-1.0 / self.alpha)
            except OverflowError:
                raise OutOfRange(
                    f"g({v!r}) = {v!r}^(-1/{self.alpha!r}) overflows a float"
                ) from None
        return 1.0 - v ** (1.0 / self.alpha)

    def forward_array(self, masses: np.ndarray) -> np.ndarray:
        """Vectorized g(mass); zero masses map to the supremum (+inf for
        unbounded shapes)."""
        m = np.asarray(masses, dtype=np.float64)
        with np.errstate(divide="ignore"):
            if self.kind is GKind.G1:
                return -np.log(m)
            if self.kind is GKind.G2:
                return m ** (-1.0 / self.alpha)
            return 1.0 - m ** (1.0 / self.alpha)

    def tail_fraction(self, u: float) -> float:
        """mu(g(v) > u) as a function of the v-mass: the clipped inverse."""
        if self.kind is GKind.G1:
            return 1.0 if u < 0.0 else math.exp(-u)
        if self.kind is GKind.G2:
            return 1.0 if u < 1.0 else u ** (-self.alpha)
        if u >= 1.0:
            return 0.0
        if u <= 0.0:
            return 1.0
        return (1.0 - u) ** self.alpha

    def tau(self, y: float) -> float:
        """Level-to-rate map; +inf / 0 outside the support of the law."""
        try:
            if self.kind is GKind.G1:
                return math.exp(-y)
            if self.kind is GKind.G2:
                return math.inf if y <= 0.0 else y ** (-self.alpha)
            return 0.0 if y > 0.0 else (-y) ** self.alpha
        except OverflowError:
            raise OutOfRange(f"tau({y!r}) overflows a float") from None

    def limit_cdf(self, y):
        """G(y) = exp(-tau(y)) elementwise, a float for scalar y: Gumbel,
        Frechet (0 for y <= 0) or Weibull (1 for y > 0)."""
        y = np.asarray(y, dtype=np.float64)
        if self.kind is GKind.G1:
            out = np.exp(-np.exp(-y))
        elif self.kind is GKind.G2:
            with np.errstate(divide="ignore"):
                out = np.where(y > 0, np.exp(-np.power(np.maximum(y, 1e-300),
                                                       -self.alpha)), 0.0)
        else:
            out = np.where(y <= 0, np.exp(-np.power(np.abs(np.minimum(y, 0.0)),
                                                    self.alpha)), 1.0)
        return out if out.ndim else float(out)

    def pinned(self, y: float):
        """The exact limit value at y outside the open support, else None."""
        if self.kind is GKind.G2 and y <= 0.0:
            return 0.0
        if self.kind is GKind.G3 and y >= 0.0:
            return 1.0
        return None


@dataclass
class BallObservable:
    """phi(x) = g(ball mass at radius dist(x, zeta))."""

    g: GShape
    measure: MeasureModel
    zeta: float

    @property
    def zeta_value(self) -> float:
        return self.zeta


@dataclass
class CylinderObservable:
    """phi(x) = g(mass of the deepest cylinder around zeta containing x)."""

    g: GShape
    ctx: PartitionContext
    zeta: float

    def __post_init__(self):
        self._ladder: list[float] = [1.0]  # mass of Z_k[zeta], k = 0, 1, ...

    @property
    def measure(self) -> MeasureModel:
        return self.ctx.measure

    @property
    def zeta_value(self) -> float:
        return float(self.zeta)

    def ladder_mass(self, k: int) -> float:
        """mu(Z_k[zeta]), cached per depth."""
        if k < 0 or k > self.ctx.max_depth:
            raise DomainError(f"depth {k} outside [0, {self.ctx.max_depth}]")
        while len(self._ladder) <= k:
            self._ladder.append(
                cylinder_at(self.ctx, self.zeta, len(self._ladder)).mass
            )
        return self._ladder[k]

    def exceedance_depth(self, u: float) -> int:
        """Depth k such that {phi > u} = Z_k[zeta], exactly as sets.

        phi(x) > u iff g of the ladder mass at the depth of x exceeds u,
        and the ladder is nested, so the exceedance set is the first
        cylinder whose g-value exceeds u.  The comparison stays on the
        level side: g^{-1}(g(m)) may round above m, which would pass the
        cell of mass m off as the exceedance set of the level g(m).
        Levels below g(1) are exceeded everywhere (k = 0); levels at or
        above sup phi have no exceedance cylinder and raise OutOfRange."""
        if u >= self.g.value_at_zero:
            raise OutOfRange(f"level {u} is not below sup phi")
        if u < self.g.forward(1.0):
            return 0
        k = 1
        while self.g.forward(self.ladder_mass(k)) <= u:
            k += 1
            if k > self.ctx.max_depth:
                raise OutOfRange(
                    f"level {u} needs cylinders deeper than {self.ctx.max_depth}"
                )
        return k
