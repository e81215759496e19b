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
from j = gap) runs; it refuses a measure that is not invariant for the
map (``measures.require_invariant``).  ``word_scan`` is the one map from a
tent or doubling cylinder to a word scan, reading the measure's
``p_zero``, and ``orbit_starts`` the one draw of rotation and
intermittent starts, which ``evl`` shares.

A ball target carries only its radius and mass.  The measure lays it out
once, as fixed-point arcs (``MeasureModel.ball_arcs``): the set whose mass
normalizes a run's times, whose windows the digit kernels count as hit,
and whose orbit points intermittent return runs start from.

Hitting runs start from the stationary measure; return runs condition
the start on the target itself.  The digit kernels draw these starts
themselves: an exact letter preload for cylinders, and digit-by-digit CDF
inversion for balls under the digit-product measures, on the CDFs at the
ends of the arcs (``MeasureModel.ball_cdfs``).  Kac's identity — mean
return time times target mass equals 1 — is checked from the same
samples with a CLT band.
"""

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
from .measures import MeasureModel, require_invariant
from .systems import DIGIT_KINDS, FIXED_ONE, MapKind, MapSystem

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
    """The smallest ball around zeta that carries ``mass``: its radius and
    its mass, both read off the measure's fixed-point arcs.  Return
    runs ask the measure for the arcs' CDFs (``MeasureModel.ball_cdfs``)."""
    eta = measure.quantile_radius(zeta, mass)
    mass = measure.ball_mass(zeta, eta)
    if mass <= 0.0:
        raise DomainError("ball carries no mass")
    return TargetSet(kind="ball", mass=mass, zeta_value=float(zeta), eta=eta)


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
    intermittent map draw only their starts, in ``orbit_starts``, and one
    scan then steps all ``n_samples`` lanes.
    """
    require_invariant(measure, system)
    if system.kind in DIGIT_KINDS:
        gens = engine.block_substreams(n_samples, seed, labels)
        return _digit_first_hits(system, target, gens, n_samples, cap,
                                 start_j, conditional, measure)
    if system.kind is MapKind.MANNEVILLE_POMEAU and target.kind != "ball":
        raise UnsupportedCombination(
            "the intermittent map has no partition cylinders here")
    starts = orbit_starts(system, measure, n_samples, seed, labels, threads,
                          inside=target if conditional else None)
    if system.kind is MapKind.ROTATION:
        lo, hi = _rotation_arc(target)
        return engine.rotation_first_hit(
            n_samples, step_fixed=system.fixed_angle, lo=lo, hi=hi, cap=cap,
            start_j=start_j, starts=starts)
    return engine.mp_first_hit(
        n_samples, s_exp=system.s, eta=target.eta, zeta=target.zeta_value,
        cap=cap, start_j=start_j, starts=starts)


def orbit_starts(system, measure, n_samples, seed, labels, threads,
                 inside=None):
    """The start of each of ``n_samples`` rotation or intermittent lanes,
    drawn block by block through ``engine.run_blocked``: stationary, or
    uniform on the target ``inside``.  Its callers check the pair of map
    and ``measure`` (``measures.require_invariant``).

    Rotation starts are uniform points of the 2^63 grid, on the circle or
    on the target's arc (``_rotation_arc``).  Intermittent starts are
    uniform picks from the empirical orbit, or from its points inside the
    target ball's arcs (``EmpiricalOrbit.points_in``).
    """
    if system.kind is MapKind.ROTATION:
        lo, hi = (0, FIXED_ONE) if inside is None else _rotation_arc(inside)

        def draw(gen, count):
            return (gen.integers(lo, hi, size=count, dtype=np.uint64),)
    else:  # the intermittent map
        points = measure.orbit
        if inside is not None:
            points = measure.points_in(
                measure.ball_arcs(inside.zeta_value, inside.eta))
            if points.size == 0:
                raise DomainError("no orbit point falls in the target ball")

        def draw(gen, count):
            return (points[gen.integers(0, points.size, size=count)],)
    return engine.run_blocked(n_samples, seed, labels, draw,
                              threads=threads)[0]


def _rotation_arc(target):
    """The fixed-point arc [lo, hi) of a rotation target.  A ball shifts to
    the arc [0, width): uniform starts are shift-invariant, so stationary
    sampling is unchanged and conditional starts are uniform on the arc."""
    if target.kind == "cylinder":
        return target.arc
    width = min(round(2 * target.eta * FIXED_ONE), FIXED_ONE)
    return 0, max(int(width), 1)


def word_scan(system: MapSystem, measure, target: TargetSet) -> dict:
    """The word-kernel arguments (word_int, depth, tent, p_zero) that scan
    the letter register for a tent or doubling cylinder target."""
    if system.kind not in DIGIT_KINDS or target.kind != "cylinder":
        raise UnsupportedCombination(
            "word scans run on tent and doubling cylinder targets")
    require_invariant(measure, system)
    return {"word_int": target.word, "depth": target.depth,
            "tent": system.kind is MapKind.FULL_TENT,
            "p_zero": measure.p_zero}


def _digit_first_hits(system, target, gens, count, cap, start_j,
                      conditional, measure):
    """A tent or doubling first-hit run of ``count`` lanes on the block
    generators ``gens``."""
    if target.kind == "cylinder":
        return engine.word_first_hit(
            gens, count, **word_scan(system, measure, target), cap=cap,
            start_j=start_j, preload=conditional)
    zeta, eta = target.zeta_value, target.eta
    return engine.ball_first_hit_digits(
        gens, count, arcs=measure.ball_arcs(zeta, eta), zeta=zeta,
        tent=system.kind is MapKind.FULL_TENT, p_zero=measure.p_zero,
        cap=cap, start_j=start_j,
        cdfs=measure.ball_cdfs(zeta, eta) if conditional else None)


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
