"""Hitting and return times to small target sets.

A target is a positive-mass set around a center point: a cylinder of the
natural partition or a metric ball.  Hitting and return runs record the
first entry time r_U(x) = min{j >= 1 : f^j x in U} of each sampled orbit
within a step cap of 50 mean returns (``default_cap``); times are censored
at the cap, never discarded, and the normalized law multiplies the times
by the target mass, so a mass-tau target with a clean exponential limit
shows rate 1.

Every first-entry run samples here, in ``first_hits``: hitting, return,
cylinder no-entry (``evl``, from j = 0) and mixing-gap (``conditions``,
from j = gap) runs.
``word_scan`` is the one map from a tent or doubling cylinder to a word
scan.

Hitting runs start from the stationary measure; return runs condition
the start on the target itself (exact letter preload for cylinders,
digit-by-digit CDF inversion for balls under the digit-product measures,
uniform arc points for rotations, orbit points inside the set for the
intermittent map).  Kac's identity — mean return time times target mass
equals 1 — is checked from the same samples with a CLT band.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .cylinders import PartitionContext, cylinder_at
from .errors import (
    CapTooSmall,
    DomainError,
    UnsupportedCombination,
)
from .laws import EmpiricalLaw, survival_integral
from .measures import EmpiricalOrbit, MeasureModel, digit_p_zero
from .rng import block_slices
from .systems import DIGIT_KINDS, FIXED_ONE, MapKind, MapSystem, Metric

#: Default normalized horizon: caps at 50 expected return times.
DEFAULT_HORIZON = 50.0


@dataclass(frozen=True)
class TargetSet:
    """A positive-mass set together with what samplers need to hit it."""

    kind: str  # "cylinder" | "ball"
    mass: float
    zeta_value: float
    word: int | None = None  # packed cylinder letters (digit systems)
    depth: int = 0
    arc: tuple | None = None  # fixed-point [lo, hi) (rotation targets)
    eta: float = 0.0  # ball radius
    cdf_arcs: tuple | None = None  # ((cdf lo...), (cdf hi...)) of ball pieces


def cylinder_target(ctx: PartitionContext, zeta, depth: int) -> TargetSet:
    """The depth-``depth`` cylinder around zeta as a hit target."""
    cyl = cylinder_at(ctx, zeta, depth)
    if cyl.mass <= 0.0:
        raise DomainError(f"cylinder at depth {depth} has zero sampled mass")
    return TargetSet(
        kind="cylinder",
        mass=cyl.mass,
        zeta_value=float(zeta),
        word=cyl.word,
        depth=depth,
        arc=cyl.arc,
    )


def ball_target(measure: MeasureModel, zeta, mass: float) -> TargetSet:
    """The smallest ball around zeta that carries ``mass``."""
    eta = measure.quantile_radius(zeta, mass)
    z = float(zeta)
    mass = measure.ball_mass(zeta, eta)
    if mass <= 0.0:
        raise DomainError("ball carries no mass")
    if measure.metric is Metric.CIRCLE:
        lo, hi = (z - eta) % 1.0, (z + eta) % 1.0
        pieces = [(lo, hi)] if lo < hi else [(lo, 1.0), (0.0, hi)]
        if 2 * eta >= 1.0:
            pieces = [(0.0, 1.0)]
    else:
        pieces = [(max(z - eta, 0.0), min(z + eta, 1.0))]
    cdf_lo = tuple(measure.cdf(a) for a, _ in pieces)
    cdf_hi = tuple(measure.cdf(b) for _, b in pieces)
    return TargetSet(
        kind="ball",
        mass=mass,
        zeta_value=z,
        eta=eta,
        cdf_arcs=(cdf_lo, cdf_hi),
    )


def default_cap(mass: float) -> int:
    """Step cap covering ``DEFAULT_HORIZON`` expected return times."""
    if not 0.0 < mass <= 1.0:
        raise DomainError("target mass must lie in (0, 1]")
    return max(int(math.ceil(DEFAULT_HORIZON / mass)), 2)


@dataclass
class HitSample:
    """First-entry times of sampled orbits into one target."""

    times: np.ndarray
    hit: np.ndarray
    target: TargetSet
    cap: int
    conditional: bool

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    @property
    def n_censored(self) -> int:
        return int((~self.hit).sum())

    def law(self) -> EmpiricalLaw:
        """Normalized law: times scaled by the target mass."""
        return EmpiricalLaw.from_hit_times(
            self.times, self.hit, scale=self.target.mass,
            cap=self.cap * self.target.mass,
        )


def sample_hit_times(
    system: MapSystem,
    target: TargetSet,
    *,
    cap: int,
    n_samples: int,
    seed: int,
    labels: tuple = ("hit-times",),
    threads: int = 1,
    conditional: bool = False,
    measure: MeasureModel | None = None,
) -> HitSample:
    """First entry times r = min{j >= 1 : f^j x in U} for ``n_samples``
    orbits.

    ``conditional`` starts the orbit inside the target (return times);
    otherwise starts are stationary (hitting times).  ``measure`` is
    required for the digit systems (to read the digit frequency) and for
    the intermittent map (the empirical orbit to draw starts from).
    """
    times, hit = first_hits(
        system, target, cap=cap, n_samples=n_samples, seed=seed,
        labels=(*labels, "ret" if conditional else "hit"), threads=threads,
        conditional=conditional, measure=measure)
    return HitSample(times, hit, target, cap, conditional)


def first_hits(system, target, *, cap, n_samples, seed, labels, threads=1,
               conditional=False, start_j=1, measure=None):
    """(times, hit) of ``n_samples`` first-entry runs on exactly ``labels``;
    the first index eligible as an entry is ``start_j``.

    Every block of ``rng.block_slices(n_samples)`` draws from its own
    substream.  The digit maps draw as they scan: one kernel call takes
    every block's generator and scans all the blocks in one pass on the
    calling thread, whatever ``threads`` is.  The rotation and the
    intermittent map draw only their starts, block by block, and one scan
    then steps all ``n_samples`` lanes.
    """
    if system.kind in DIGIT_KINDS:
        gens = engine.block_substreams(n_samples, seed, labels)
        return _digit_first_hits(system, target, gens, n_samples, cap,
                                 start_j, conditional, measure)
    draw, scan = _orbit_hit_scan(system, target, conditional, measure)
    starts = engine.run_blocked(n_samples, seed, labels, draw,
                                threads=threads)[0]
    return scan(None, n_samples, cap=cap, start_j=start_j, starts=starts)


def word_scan(system: MapSystem, measure, target: TargetSet) -> dict:
    """The word-kernel arguments (word_int, depth, tent, p_zero) that scan
    the letter register for a tent or doubling cylinder target."""
    if system.kind not in DIGIT_KINDS or target.kind != "cylinder":
        raise UnsupportedCombination(
            "word scans run on tent and doubling cylinder targets")
    return {"word_int": target.word, "depth": target.depth,
            "tent": system.kind is MapKind.FULL_TENT,
            "p_zero": digit_p_zero(measure)}


def _digit_first_hits(system, target, gens, count, cap, start_j,
                      conditional, measure):
    """A tent or doubling first-hit run of ``count`` lanes on the block
    generators ``gens``."""
    if target.kind == "cylinder":
        return engine.word_first_hit(
            gens, count, **word_scan(system, measure, target), cap=cap,
            start_j=start_j, preload=conditional)
    p_zero = digit_p_zero(measure)
    initial = None
    if conditional:
        # each block draws its starts before its scan's digits
        initial = np.concatenate([
            engine.conditional_digit_starts(gen, size, arcs=target.cdf_arcs,
                                            p_zero=p_zero)
            for gen, (_, _, size) in zip(gens, block_slices(count))])
    return engine.ball_first_hit_digits(
        gens, count, eta=target.eta, zeta=target.zeta_value,
        tent=system.kind is MapKind.FULL_TENT, p_zero=p_zero,
        circle=measure.metric is Metric.CIRCLE, cap=cap, start_j=start_j,
        initial_digits=initial)


def _orbit_hit_scan(system, target, conditional, measure):
    """(draw, scan) of a rotation or intermittent first-hit run:
    ``draw(gen, count)`` gives one block's starts and ``scan`` is the
    first-hit kernel, bound to the target, that steps every lane at once."""
    if system.kind is MapKind.ROTATION:
        if target.kind == "cylinder":
            lo, hi = target.arc
        else:
            # Shift coordinates so the ball becomes the arc [0, width):
            # uniform starts are shift-invariant, so stationary sampling
            # is unchanged and conditional starts are uniform on the arc.
            width = min(round(2 * target.eta * FIXED_ONE), FIXED_ONE)
            lo, hi = 0, max(int(width), 1)

        def draw(gen, count):
            if conditional:
                return (gen.integers(lo, hi, size=count, dtype=np.uint64),)
            return (engine.rotation_starts(gen, count),)
        return draw, functools.partial(
            engine.rotation_first_hit, step_fixed=system.fixed_angle, lo=lo,
            hi=hi)

    if system.kind is MapKind.MANNEVILLE_POMEAU:
        if target.kind != "ball":
            raise UnsupportedCombination(
                "the intermittent map has no partition cylinders here"
            )
        if not isinstance(measure, EmpiricalOrbit):
            raise DomainError("intermittent runs need the empirical orbit")
        orbit = measure.orbit
        eta, zeta = target.eta, target.zeta_value
        if conditional:
            inside = np.flatnonzero(np.abs(orbit - zeta) < eta)
            if inside.size == 0:
                raise DomainError("no orbit point falls in the target ball")

            def draw(gen, count):
                return (orbit[inside[gen.integers(0, inside.size,
                                                  size=count)]],)
        else:
            def draw(gen, count):
                return (orbit[gen.integers(0, orbit.size, size=count)],)
        return draw, functools.partial(
            engine.mp_first_hit, s_exp=system.s, eta=eta, zeta=zeta)

    raise UnsupportedCombination(system.kind)  # pragma: no cover - exhaustive


# ------------------------------------------------------------------- Kac

@dataclass(frozen=True)
class KacReport:
    """Mean return time times target mass, with a 3-sigma CLT band."""

    product: float
    band: float

    @property
    def passed(self) -> bool:
        return abs(self.product - 1.0) <= self.band


def kac_check(sample: HitSample) -> KacReport:
    """Certify mean(return time) * mass = 1 on an uncensored return run."""
    if not sample.conditional:
        raise DomainError("Kac's identity concerns return times")
    if sample.n_censored:
        raise CapTooSmall(
            f"{sample.n_censored} returns censored at cap {sample.cap}; "
            "the mean needs every return time"
        )
    times = sample.times.astype(np.float64)
    mass = sample.target.mass
    product = float(times.mean() * mass)
    se = float(times.std(ddof=1) * mass / math.sqrt(times.size))
    return KacReport(product, 3.0 * se)


# ---------------------------------------------------- return-vs-hit bridge

def hts_curve_from_rts(rts_law: EmpiricalLaw, t_grid) -> np.ndarray:
    """Hitting-time CDF implied by a return-time law.

    In the normalized limit the two laws determine each other:
    F_hit(t) = integral_0^t (1 - F_ret(s)) ds, evaluated here exactly on
    the step ECDF of the return sample.
    """
    return np.array([survival_integral(rts_law, t) for t in t_grid])


def compare_hts_rts(hts_law: EmpiricalLaw, rts_law: EmpiricalLaw,
                    t_grid) -> float:
    """sup over the grid of |empirical hitting CDF - integrated return law|."""
    implied = hts_curve_from_rts(rts_law, t_grid)
    direct = np.array([hts_law.cdf(t) for t in t_grid])
    return float(np.max(np.abs(direct - implied)))
