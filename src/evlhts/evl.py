"""Block maxima of observables: normalizing levels and Monte Carlo runs.

Two routes produce the level u_n for a target y:

* closed-form normalizers read off the shape g (log-shaped observables
  shift by log n, power-shaped ones scale by n^(1/alpha));
* the quantile route bisects the exceedance tail for the (1 - 1/n)
  quantile gamma_n and builds the same affine level from it.

Both express u_n = b_n + y / a_n, so P(M_n <= u_n) plotted in y can be
compared directly against the three extreme-value shapes.  Outside the
support of the limit shape the probability is pinned exactly at 0 or 1
(``degenerate_probability``) instead of read off a meaningless level.

Sampling reduces ball maxima to the minimum orbit distance (a sufficient
statistic for every monotone observable of the distance) and cylinder
maxima to first entry into the event cell, a no-entry run that
``hts.first_hits`` samples.  The independent baseline is not sampled:
the exceedance set of a level is a ball or cylinder of exact mass m, so
n independent draws from the same marginal all stay below the level with
probability (1 - m)^n (``iid_prob_max_below``, ``iid_no_entry``).
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import engine, hts
from .errors import (
    DegenerateTail,
    DomainError,
    UnsupportedCombination,
    ZeroMassCylinder,
)
from .measures import EmpiricalOrbit, Lebesgue1D, digit_p_zero
from .observables import BallObservable, CylinderObservable, GKind, GShape
from .systems import DIGIT_KINDS, FIXED_ONE, MapKind, Metric

GAMMA_CERT_TOL = 1e-6


class Normalizers(NamedTuple):
    """Affine rescaling u = b + y / a of levels; y = a * (u - b)."""

    a: float
    b: float

    def level(self, y: float) -> float:
        return self.b + y / self.a

    def rescale(self, values: np.ndarray) -> np.ndarray:
        return self.a * (np.asarray(values, dtype=np.float64) - self.b)


def degenerate_probability(g: GShape, y: float):
    """Exact limit value at y outside the open support, else None."""
    if g.kind is GKind.G2 and y <= 0.0:
        return 0.0
    if g.kind is GKind.G3 and y >= 0.0:
        return 1.0
    return None


def proof_normalizers(g: GShape, n: int) -> Normalizers:
    """Closed-form (a_n, b_n) for blocks of length n."""
    if n < 1:
        raise DomainError("block length must be >= 1")
    if g.kind is GKind.G1:
        return Normalizers(1.0, math.log(n))
    if g.kind is GKind.G2:
        return Normalizers(n ** (-1.0 / g.alpha), 0.0)
    return Normalizers(n ** (1.0 / g.alpha), g.top)


def gamma_level(
    g: GShape,
    n: int,
    tail: Callable[[float], float] | None = None,
    tol: float = GAMMA_CERT_TOL,
) -> float:
    """(1 - 1/n)-quantile of the observable: inf{u : tail(u) <= 1/n}.

    ``tail`` defaults to the exact exceedance fraction of g; any
    nonincreasing tail function works.  Bisects to float adjacency, then
    certifies n * tail(gamma_n) = 1 within ``tol``: a larger residual
    means the tail jumps across 1/n (step ladders hit this at block
    lengths that are not reciprocal step masses) and raises
    ``DegenerateTail``.
    """
    if n < 1:
        raise DomainError("block length must be >= 1")
    if tail is None:
        tail = g.tail_fraction
    target = 1.0 / n
    lo = g.forward(1.0)
    if tail(lo) <= target:
        gamma = lo
    else:
        if g.kind is GKind.G3:
            hi = g.top
        else:
            hi = max(abs(lo), 1.0)
            while tail(hi) > target:
                hi *= 2.0
                if not math.isfinite(hi):
                    raise DegenerateTail("tail never reaches 1/n")
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # bracket is two adjacent floats
                break
            if tail(mid) <= target:
                hi = mid
            else:
                lo = mid
        gamma = hi
    residual = abs(n * tail(gamma) - 1.0)
    if residual > tol:
        raise DegenerateTail(
            f"tail jumps across 1/n at the quantile: n*tail = "
            f"{n * tail(gamma):.6g} at gamma = {gamma!r}"
        )
    return gamma


def quantile_normalizers(
    g: GShape,
    n: int,
    tail: Callable[[float], float] | None = None,
) -> Normalizers:
    """Normalizers built from the sampled quantile instead of closed forms.

    Same affine shape as ``proof_normalizers`` with gamma_n in place of
    its closed-form value, so the two routes agree to bisection accuracy
    on exact tails.
    """
    gamma = gamma_level(g, n, tail)
    if g.kind is GKind.G1:
        return Normalizers(1.0, gamma)
    if g.kind is GKind.G2:
        if gamma <= 0.0:
            raise DomainError("power-law quantile must be positive")
        return Normalizers(1.0 / gamma, 0.0)
    spread = g.top - gamma
    if spread <= 0.0:
        raise DegenerateTail("quantile reached the supremum of the observable")
    return Normalizers(1.0 / spread, g.top)


def g_forward_array(g: GShape, masses: np.ndarray) -> np.ndarray:
    """Vectorized g(mass); zero masses map to the supremum (+inf for
    unbounded shapes)."""
    m = np.asarray(masses, dtype=np.float64)
    with np.errstate(divide="ignore"):
        if g.kind is GKind.G1:
            return -np.log(m)
        if g.kind is GKind.G2:
            return m ** (-1.0 / g.alpha)
        return g.top - m ** (1.0 / g.alpha)


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
    measure = obs.measure
    zeta = obs.zeta_value
    circle = measure.metric is Metric.CIRCLE

    if system.kind in DIGIT_KINDS:
        p_zero = digit_p_zero(measure)
        tent = system.kind is MapKind.FULL_TENT

        def kernel(gen, count):
            return engine.digit_window_min_distance(
                gen, count, n_steps=n_steps, p_zero=p_zero, tent=tent,
                zeta=zeta, circle=circle,
            )
    elif system.kind is MapKind.ROTATION:
        if not isinstance(measure, (Lebesgue1D, EmpiricalOrbit)):
            raise UnsupportedCombination(
                "rotations preserve length; use a Lebesgue or empirical measure"
            )
        zeta_fixed = round(zeta * FIXED_ONE)

        def kernel(gen, count):
            return engine.rotation_min_distance(
                gen, count, step_fixed=system.fixed_angle,
                zeta_fixed=zeta_fixed, n_steps=n_steps,
            )
    elif system.kind is MapKind.MANNEVILLE_POMEAU:
        if not isinstance(measure, EmpiricalOrbit):
            raise UnsupportedCombination(
                "intermittent maps need the empirical orbit measure"
            )
        orbit = measure.orbit

        def kernel(gen, count):
            starts = orbit[gen.integers(0, orbit.size, size=count)]
            return engine.mp_min_distance(
                gen, count, s_exp=system.s, zeta=zeta, n_steps=n_steps,
                starts=starts,
            )
    else:  # pragma: no cover - enum is exhaustive
        raise UnsupportedCombination(system.kind)

    return engine.run_blocked(
        n_samples, seed, (*labels, "dyn"), kernel, threads=threads
    )[0]


def prob_max_below(min_distances: np.ndarray, obs: BallObservable,
                   u: float) -> float:
    """P(M_n <= u) from sampled minimum distances: the exceedance set of u
    is the open ball whose radius carries the tail mass of u."""
    eta = obs.threshold_radius(u)
    return float(np.mean(np.asarray(min_distances) >= eta))


def iid_prob_max_below(obs: BallObservable, u: float, n: int) -> float:
    """P(M_n <= u) for n independent draws from the measure: none lands in
    the ball that ``prob_max_below`` counts, exactly."""
    m = obs.measure.ball_mass(obs.zeta, obs.threshold_radius(u))
    return math.exp(n * math.log1p(-m))  # 1 - m rounds to 1.0 for tiny m


def ball_maxima_values(min_distances: np.ndarray,
                       obs: BallObservable) -> np.ndarray:
    """Observable values of the block maxima (g of the closest ball mass)."""
    masses = obs.measure.ball_masses(obs.zeta_value, np.asarray(min_distances))
    return g_forward_array(obs.g, masses)


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


def cylinder_schedule(
    obs: CylinderObservable,
    *,
    depth: int,
    tau: float,
    convention: str = "step",
) -> CylinderSchedule:
    """Level/window schedule for cylinder maxima at one anchor depth.

    ``step`` (default) sets u_n = g(mass of the depth n-1 cell), making
    the exceedance set exactly the depth-n cell; ``deep`` sets
    u_n = g(mass of the depth-n cell) so the event is the next deeper
    cell.  Both windows divide tau by the event's own mass.
    """
    if convention not in ("step", "deep"):
        raise DomainError(f"unknown schedule convention {convention!r}")
    if not (math.isfinite(tau) and tau > 0.0):
        raise DomainError("tau must be finite and positive")
    if depth < 1:
        raise DomainError("anchor depth must be >= 1")
    anchor = depth - 1 if convention == "step" else depth
    if anchor == 0:
        level = obs.g.forward(1.0)
    else:
        level = obs.g.forward(obs.ladder_mass(anchor))
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
    schedule: CylinderSchedule,
    *,
    n_samples: int,
    seed: int,
    labels: tuple = ("cylinder-maxima",),
    threads: int = 1,
) -> np.ndarray:
    """Indicator of {M_window <= level} per sample (no orbit point in the
    event cell before the window ends): a first-entry run into the event
    cell over the window."""
    system, measure = obs.ctx.system, obs.ctx.measure
    target = hts.cylinder_target(obs.ctx, obs.zeta, schedule.event_depth)
    hts.word_scan(system, measure, target)  # tent and doubling cells only
    return ~hts.first_hits(
        system, target, cap=schedule.window, n_samples=n_samples,
        seed=seed, labels=(*labels, "dyn"), threads=threads,
        conditional=False, start_j=0, measure=measure)[1]


def iid_no_entry(schedule: CylinderSchedule) -> float:
    """P(M_window <= level) for ``window`` independent draws from the
    measure: none lands in the event cell, exactly.  Windows reach 2^62
    steps, so 1 - event_mass must not round to 1.0."""
    return math.exp(schedule.window * math.log1p(-schedule.event_mass))
