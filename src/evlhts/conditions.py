"""Dependence diagnostics behind the exponential-law heuristics.

Two Monte Carlo estimators quantify how far an orbit is from the iid
picture at a small cylinder event E of mass m, level-indexed by a block
length n (so tau = n * m is the expected hit count per block):

* ``dprime_estimate`` — short-range recurrence.  The statistic is
  n * sum_{j=1}^{n/k} P(x in E, f^j x in E), estimated by counting
  entries of a window of length n/k started inside E.  Under
  independence the sum is n * (n/k) * m^2 = tau^2 / k; orbits that
  linger near their starting cell (periodic/fixed centers) push it up
  by a factor of order k.  The verdict judges the excess over the iid
  value, not the raw statistic, because the iid part never vanishes.

* ``mixing_gap_estimate`` — long-range decorrelation.  After a gap of
  t steps (the ``conditions`` driver takes t = ceil(n^0.7) unless
  ``conditions.t_grid`` names gaps), the chance of avoiding E for a
  further window of n steps is compared between orbits started inside E
  and orbits started from the stationary measure; the difference, scaled
  by n * m, estimates the dependence surviving the gap.

Both estimators run on tent and doubling cylinder events, where entry
counting is exact on the letter register: ``hts.word_scan`` turns the
event into word-scan arguments, and the mixing-gap windows are
``hts.first_hits`` runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import engine, hts
from .errors import DomainError
from .hts import TargetSet
from .systems import MapSystem

#: Excess below this floor is treated as zero regardless of its CLT band.
DEFAULT_FLOOR = 0.02


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one dependence estimator at one (n, k) setting."""

    estimate: float
    baseline: float
    sigma: float
    window: int
    floor: float = DEFAULT_FLOOR

    @property
    def excess(self) -> float:
        return self.estimate - self.baseline

    @property
    def consistent_with_zero(self) -> bool:
        return self.excess < max(self.floor, 3.0 * self.sigma)

    @property
    def verdict(self) -> str:
        return "ConsistentWithZero" if self.consistent_with_zero \
            else "Elevated"


def dprime_estimate(
    system: MapSystem,
    measure,
    target: TargetSet,
    *,
    block_n: int,
    k: int,
    n_samples: int,
    seed: int,
    labels: tuple = ("dprime",),
    floor: float = DEFAULT_FLOOR,
) -> ConditionReport:
    """Short-range recurrence statistic at separation factor ``k``.

    Counts entries during [1, block_n // k] for orbits conditioned to
    start in the event, giving n * m * E[count | start in E]; the iid
    baseline is n * (n//k) * m^2.
    """
    scan = hts.word_scan(system, measure, target)
    if block_n < 1 or k < 1:
        raise DomainError("block length and separation must be >= 1")
    window = block_n // k
    if window < 1:
        raise DomainError("window block_n // k is empty")
    counts = engine.word_hit_count(
        engine.block_substreams(n_samples, seed, (*labels, f"k{k}")),
        n_samples, **scan, window=window, start_j=1, preload=True,
    ).astype(np.float64)
    scale = block_n * target.mass
    estimate = float(scale * counts.mean())
    sigma = float(scale * counts.std(ddof=1) / math.sqrt(counts.size))
    baseline = block_n * window * target.mass ** 2
    return ConditionReport(estimate=estimate, baseline=baseline, sigma=sigma,
                           window=window, floor=floor)


def mixing_gap_estimate(
    system: MapSystem,
    measure,
    target: TargetSet,
    *,
    block_n: int,
    gap: int,
    n_samples: int,
    seed: int,
    labels: tuple = ("mixing-gap",),
    floor: float = DEFAULT_FLOOR,
) -> ConditionReport:
    """Dependence surviving a gap of ``gap`` steps.

    Both runs measure the no-entry probability of the window
    [gap, gap + block_n); one conditions the start on the event, the
    other starts stationary.  The report's estimate is
    n * m * |difference| and its baseline is 0.  The word scan rejects a
    gap below 1 or an empty window.
    """
    hts.word_scan(system, measure, target)
    p_cond, p_free = (
        float((~hts.first_hits(
            system, target, cap=gap + block_n, n_samples=n_samples,
            seed=seed, labels=(*labels, tag), conditional=conditional,
            start_j=gap, measure=measure,
        )[1]).mean())
        for conditional, tag in ((True, "cond"), (False, "free"))
    )
    scale = block_n * target.mass
    estimate = scale * abs(p_cond - p_free)
    se = math.sqrt(
        p_cond * (1.0 - p_cond) / n_samples
        + p_free * (1.0 - p_free) / n_samples
    )
    return ConditionReport(estimate=float(estimate), baseline=0.0,
                           sigma=float(scale * se), window=gap, floor=floor)
