"""Block maxima of observables: normalizing levels and Monte Carlo runs.

The observables are tailored to the measure, so {phi > u} has mass
g^{-1}(u) by construction and nothing here inverts a tail numerically.
The level for a target y is u_n = b_n + y / a_n, built from the
(1 - 1/n) quantile gamma_n = g(1/n): log-shaped observables shift by
gamma_n, power-shaped ones scale by it, and bounded ones by 1 - gamma_n.
So P(M_n <= u_n) plotted in y can be compared directly against the three
extreme-value shapes, each the shape's own ``GShape.limit_cdf``.  Outside
the support of the limit law the probability is pinned exactly at 0 or 1
(``GShape.pinned``) instead of read off a meaningless level.

Sampling reduces ball maxima to the minimum orbit distance (a sufficient
statistic for every monotone observable of the distance), whose ball
mass gives the maximum itself (``ball_maxima_values``).  Cylinder maxima
are first entry into the exceedance cylinder: M_w <= u_n exactly when the
orbit stays out of the event cell for w steps.  At one anchor depth every
tau shares the event cell and only the window tau / mass changes, so one
``hts.first_hits`` scan per depth gives the maxima law at every tau.  The
independent baseline is not sampled: the exceedance set of a level is a
ball or cylinder of exact mass m, so n independent draws from the same
marginal all stay below the level with probability (1 - m)^n
(``iid_no_exceedance``).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import engine, hts
from .errors import (
    DomainError,
    OutOfRange,
    ZeroMassCylinder,
)
from .measures import require_invariant
from .observables import BallObservable, CylinderObservable, GKind, GShape
from .systems import DIGIT_KINDS, FIXED_ONE, MapKind, Metric


class Normalizers(NamedTuple):
    """Affine rescaling u = b + y / a of levels; y = a * (u - b)."""

    a: float
    b: float

    def level(self, y: float) -> float:
        return self.b + y / self.a

    def rescale(self, values: np.ndarray) -> np.ndarray:
        return self.a * (np.asarray(values, dtype=np.float64) - self.b)


def quantile_normalizers(g: GShape, n: int) -> Normalizers:
    """Normalizers built from the (1 - 1/n) quantile gamma_n = g(1/n).

    These are the closed forms up to rounding: (1, log n) for g1,
    (n^(-1/alpha), 0) for g2 and (n^(1/alpha), 1) for g3.
    """
    if n < 1:
        raise DomainError("block length must be >= 1")
    gamma = g.forward(1.0 / n)
    if g.kind is GKind.G1:
        return Normalizers(1.0, gamma)
    if g.kind is GKind.G2:
        return Normalizers(1.0 / gamma, 0.0)
    spread = 1.0 - gamma
    if spread <= 0.0:
        raise OutOfRange("quantile reached the supremum of the observable")
    return Normalizers(1.0 / spread, 1.0)


# ------------------------------------------------------------ ball maxima

def sample_ball_min_distances(
    obs: BallObservable,
    system,
    *,
    n_steps: int,
    n_samples: int,
    seed: int,
    labels: tuple = ("ball-maxima",),
    threads: int = 1,
) -> np.ndarray:
    """Minimum orbit distance to the target point, one value per sample.

    Every run starts from the stationary measure and iterates the map.
    The output is the sufficient statistic for the block maximum of any
    ball observable at the same center: M_n <= u iff the minimum distance
    clears the exceedance radius of u.
    """
    if n_steps < 1:
        raise DomainError("need at least one orbit point")
    measure, zeta = obs.measure, obs.zeta
    require_invariant(measure, system)
    labels = (*labels, "dyn")
    if system.kind in DIGIT_KINDS:
        return engine.digit_window_min_distance(
            engine.block_substreams(n_samples, seed, labels), n_samples,
            n_steps=n_steps, p_zero=measure.p_zero,
            tent=system.kind is MapKind.FULL_TENT, zeta=zeta,
            circle=system.metric is Metric.CIRCLE)
    # The orbit maps draw only their starts, block by block; one scan then
    # steps every lane.
    starts = hts.orbit_starts(system, measure, n_samples, seed, labels,
                              threads)
    if system.kind is MapKind.ROTATION:
        return engine.rotation_min_distance(
            step_fixed=system.fixed_angle, zeta_fixed=round(zeta * FIXED_ONE),
            n_steps=n_steps, starts=starts)
    return engine.mp_min_distance(s_exp=system.s, zeta=zeta, n_steps=n_steps,
                                  starts=starts)


def ball_maxima_values(min_distances: np.ndarray,
                       obs: BallObservable) -> np.ndarray:
    """Observable values of the block maxima (g of the closest ball mass)."""
    masses = obs.measure.ball_masses(obs.zeta, np.asarray(min_distances))
    return obs.g.forward_array(masses)


# -------------------------------------------------------- cylinder maxima

@dataclass(frozen=True)
class CylinderSchedule:
    """One row of the cylinder-level construction.

    At anchor depth n the level is g of a ladder mass; the exceedance set
    is then itself a cylinder (``event_depth``, ``event_mass``) and the
    block length is ``window`` = floor(tau / event_mass) orbit steps, so
    the expected number of entries per block is tau + O(event_mass).
    """

    depth: int
    tau: float
    level: float
    event_depth: int
    event_mass: float
    window: int


def cylinder_schedule(obs: CylinderObservable, *, depth: int,
                      tau: float) -> CylinderSchedule:
    """Level/window schedule for cylinder maxima at one anchor depth.

    u_n = g(mass of the depth n-1 cell), one cell above the event: the
    exceedance set is exactly the depth-n cell, and the window divides
    tau by that cell's mass.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise DomainError("tau must be finite and positive")
    if depth < 1:
        raise DomainError("anchor depth must be >= 1")
    level = obs.g.forward(obs.ladder_mass(depth - 1))
    event_depth = obs.exceedance_depth(level)
    event_mass = obs.ladder_mass(event_depth)
    if event_mass <= 0.0:
        raise ZeroMassCylinder(f"event cell at depth {event_depth} has mass 0")
    window = int(tau / event_mass)
    if window < 1:
        raise DomainError(
            f"window floor(tau / {event_mass}) is empty at tau = {tau}"
        )
    return CylinderSchedule(
        depth=depth,
        tau=tau,
        level=level,
        event_depth=event_depth,
        event_mass=event_mass,
        window=window,
    )


def sample_cylinder_no_entry(
    obs: CylinderObservable,
    schedules: list[CylinderSchedule],
    *,
    n_samples: int,
    seed: int,
    labels: tuple = ("cylinder-maxima",),
) -> np.ndarray:
    """Indicators of {M_window <= level}, one column per schedule.

    The schedules must share one event cell, as every tau at one anchor
    depth does.  Then M_w <= level exactly when the orbit stays out of
    that cell for w steps, so one first-entry run into the cell, capped at
    the longest window, gives every column: times[:, None] >= windows.
    First-hit kernels draw whole chunks whatever the cap, so this scan
    matches a scan capped at any shorter window bit for bit up to it.

    The columns share one sample, so they are correlated.  Each column
    keeps its own binomial standard error, and a verdict that takes the
    worst error over the columns is not biased by the correlation.
    """
    cells = {s.event_depth for s in schedules}
    if len(cells) != 1:
        raise DomainError(
            f"schedules must share one event cell; got depths {sorted(cells)}")
    system, measure = obs.ctx.system, obs.ctx.measure
    target = hts.cylinder_target(obs.ctx, obs.zeta, cells.pop())
    hts.word_scan(system, measure, target)  # tent and doubling cells only
    windows = np.array([s.window for s in schedules], dtype=np.int64)
    times = hts.first_hits(
        system, target, cap=int(windows.max()), n_samples=n_samples,
        seed=seed, labels=(*labels, "dyn"), conditional=False, start_j=0,
        measure=measure)[0]
    return times[:, None] >= windows


# ------------------------------------------------------------ iid maxima

def iid_no_exceedance(mass: float, steps: int) -> float:
    """P(M <= u) for ``steps`` independent draws from the measure when
    {phi > u} has mass ``mass``: (1 - mass)^steps, exactly.  Windows reach
    2^62 steps, so 1 - mass must not round to 1.0; at mass 1 every draw
    exceeds."""
    if mass >= 1.0:
        return 0.0
    return math.exp(steps * math.log1p(-mass))
