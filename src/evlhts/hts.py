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

A target carries its layout, ``arcs``: fixed-point [lo, hi) pieces of the
2^-128 grid, set once for a ball by ``ball_target`` from the measure
(``MeasureModel.ball_arcs``), with the metric ``first_hits`` requires to
be the map's and the measure it requires to be the run's, and for a
rotation cylinder from its 2^63 arc; a ball with no arc is refused.  That
one set has the mass that normalizes a run's times, and every sampler
counts its points as hit: the digit kernels' 53-bit windows, the rotation's
2^63 grid points (``engine._arc_windows``) and the intermittent map's floats.

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
from .errors import CapTooSmall, DomainError, UnsupportedCombination
from .laws import EmpiricalLaw, survival_integral
from .measures import (FIXED_DEPTH, MeasureModel, fixed_to_float,
                       require_invariant)
from .systems import (DIGIT_KINDS, FIXED_BITS, FIXED_ONE, MapKind, MapSystem,
                      Metric)

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
    arcs: tuple = ()  # fixed-point [lo, hi) pieces on the 2^-128 grid
    metric: Metric | None = None  # the metric the arcs are laid out on
    measure: MeasureModel | None = None  # the measure that laid a ball out


def cylinder_target(ctx: PartitionContext, zeta, depth: int) -> TargetSet:
    """The depth-``depth`` cylinder around zeta as a hit target."""
    cyl = cylinder_at(ctx, zeta, depth)
    if cyl.mass <= 0.0:
        raise DomainError(f"cylinder at depth {depth} has zero sampled mass")
    shift = FIXED_DEPTH - FIXED_BITS  # a rotation arc's 2^63 grid, exactly
    arcs = (tuple(end << shift for end in cyl.arc),) if cyl.arc else ()
    return TargetSet(kind="cylinder", mass=cyl.mass, zeta_value=float(zeta),
                     word=cyl.word, depth=depth, arcs=arcs,
                     metric=ctx.system.metric if arcs else None)


def ball_target(measure: MeasureModel, zeta, mass: float) -> TargetSet:
    """The smallest ball around zeta that carries ``mass``: the measure's
    fixed-point arcs of it, their mass, the measure and its metric."""
    eta = measure.quantile_radius(zeta, mass)
    mass = measure.ball_mass(zeta, eta)
    if mass <= 0.0:
        raise DomainError("ball carries no mass")
    return TargetSet(kind="ball", mass=mass, zeta_value=float(zeta),
                     arcs=tuple(measure.ball_arcs(zeta, eta)),
                     metric=measure.metric, measure=measure)


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
    # every run but a word scan reads the arcs, laid out on the map's metric
    if target.metric is not system.metric and (
            target.kind == "ball" or system.kind not in DIGIT_KINDS):
        raise UnsupportedCombination(
            f"the target is not laid out on the {system.metric.value}")
    if target.kind == "ball" and not target.arcs:
        raise DomainError("the target ball has no arc")
    if measure is not None and target.measure not in (None, measure):
        raise UnsupportedCombination(
            f"the ball is laid out by the {target.measure.name} measure; "
            f"the run takes the {measure.name} measure")
    if system.kind in DIGIT_KINDS:
        gens = engine.block_substreams(n_samples, seed, labels)
        return _digit_first_hits(system, target, gens, n_samples, cap,
                                 start_j, conditional, measure)
    starts = orbit_starts(system, measure, n_samples, seed, labels, threads,
                          inside=target if conditional else None)
    if system.kind is MapKind.ROTATION:
        lo, hi = _rotation_arc(target)
        return engine.rotation_first_hit(
            n_samples, step_fixed=system.fixed_angle, lo=lo, hi=hi, cap=cap,
            start_j=start_j, starts=starts)
    (lo, hi), = target.arcs  # a ball on the interval is one piece
    return engine.mp_first_hit(
        n_samples, s_exp=system.s, lo=fixed_to_float(lo),
        hi=fixed_to_float(hi), cap=cap, start_j=start_j, starts=starts)


def orbit_starts(system, measure, n_samples, seed, labels, threads,
                 inside=None):
    """The start of each of ``n_samples`` rotation or intermittent lanes,
    drawn block by block through ``engine.run_blocked``: stationary, or
    uniform on the target ``inside``.  Its callers check the pair of map
    and ``measure`` (``measures.require_invariant``).

    Rotation starts are uniform points of the 2^63 grid, on the circle or
    on the target's arc (``_rotation_arc``).  Intermittent starts are
    uniform picks from the empirical orbit, or from its points in the
    target's arcs (``EmpiricalOrbit.points_in``).
    """
    if system.kind is MapKind.ROTATION:
        lo, hi = (0, FIXED_ONE) if inside is None else _rotation_arc(inside)

        def draw(gen, count):
            return (gen.integers(lo, hi, size=count, dtype=np.uint64),)
    else:  # the intermittent map
        points = measure.orbit
        if inside is not None:
            points = measure.points_in(inside.arcs)
            if points.size == 0:
                raise DomainError("no orbit point falls in the target ball")

        def draw(gen, count):
            return (points[gen.integers(0, points.size, size=count)],)
    return engine.run_blocked(n_samples, seed, labels, draw,
                              threads=threads)[0]


def _rotation_arc(target):
    """The arc [lo, hi) of the 2^63 grid a rotation scans for ``target``:
    its arcs' grid points (``engine._arc_windows``), a ball's shifted to
    [0, width), as uniform starts are shift-invariant: stationary sampling
    is unchanged and conditional starts are uniform on the arc."""
    pieces = engine._arc_windows(target.arcs, FIXED_BITS)
    width = sum(width for _, width in pieces)
    if width == 0:
        raise DomainError("the target holds no point of the rotation's grid")
    lo = pieces[0][0] if target.kind == "cylinder" else 0
    return lo, lo + width


def word_scan(system: MapSystem, measure, target: TargetSet) -> dict:
    """The word-kernel arguments (word_int, depth, tent, p_zero) that scan
    the letter register for a tent or doubling cylinder target."""
    if system.kind not in DIGIT_KINDS or target.word is None:
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
    return engine.ball_first_hit_digits(
        gens, count, arcs=target.arcs, zeta=target.zeta_value,
        tent=system.kind is MapKind.FULL_TENT, p_zero=measure.p_zero,
        cap=cap, start_j=start_j,
        cdfs=measure.ball_cdfs(target.arcs) if conditional else None)


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
