"""Empirical distributions, the exponential law, and KS-type comparisons.

Empirical laws may be right-censored at a known cap (hitting-time runs
stop scanning at a horizon): censored observations are counted in the
denominator but carry no location, so the ECDF is exact strictly below
the cap and undefined above it — queries there raise rather than guess.

The hitting-time limit is the unit exponential law (``exponential_cdf``);
each maxima limit is its shape's ``GShape.limit_cdf``.  The comparisons
take a limit as a CDF callable.  KS comparisons use the asymptotic
Kolmogorov distribution computed in-house (both series of the theta
function, switched at the usual lambda = 1.18).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapTooSmall, DomainError, GridMismatch, InsufficientSample


@dataclass
class EmpiricalLaw:
    """Sorted sample with optional upper-tail censoring.

    ``values`` hold the observed points (may include +inf for saturated
    maxima); ``n_censored`` observations are known only to lie at or above
    ``cap``.
    """

    values: np.ndarray
    n_censored: int = 0
    cap: float | None = None

    def __post_init__(self):
        self.values = np.sort(np.asarray(self.values, dtype=np.float64))
        if self.values.size == 0 and self.n_censored == 0:
            raise InsufficientSample("empty sample")
        if self.n_censored < 0:
            raise DomainError("negative censored count")
        if self.n_censored and self.cap is None:
            raise DomainError("censored observations need a cap value")
        if self.cap is not None and self.values.size and \
                self.values[-1] > self.cap:
            raise DomainError("observed value beyond the censoring cap")

    @classmethod
    def from_hit_times(cls, times, hit, scale, cap):
        """Law of scaled hitting times; unhit lanes are censored at cap."""
        times = np.asarray(times)
        hit = np.asarray(hit, dtype=bool)
        return cls(times[hit] * scale, int((~hit).sum()), cap)

    @property
    def n_total(self) -> int:
        return int(self.values.size) + self.n_censored

    def _check_in_range(self, t):
        if self.n_censored and self.cap is not None and t >= self.cap:
            raise CapTooSmall(
                f"ECDF undefined at {t}: {self.n_censored} observations "
                f"censored at cap {self.cap}"
            )

    def cdf(self, t: float) -> float:
        """Right-continuous ECDF; exact below the censoring cap."""
        if math.isinf(t) and t > 0:
            return 1.0
        self._check_in_range(t)
        return float(
            np.searchsorted(self.values, t, side="right") / self.n_total
        )

    def sf(self, t: float) -> float:
        """P(X > t).  Survival of +inf is exactly 0 whatever the cap."""
        if math.isinf(t) and t > 0:
            return 0.0
        self._check_in_range(t)
        return 1.0 - self.cdf(t)


def exponential_cdf(t):
    """The unit exponential CDF 1 - e^-t (0 for t < 0), elementwise; a
    float for scalar t."""
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t >= 0, -np.expm1(-np.maximum(t, 0.0)), 0.0)
    return out if out.ndim else float(out)


# ------------------------------------------------------------------ KS

def kolmogorov_sf(lam: float) -> float:
    """P(sup |Brownian bridge| > lam): the asymptotic KS tail."""
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        # Jacobi-transformed series: accurate where the direct one is slow
        t = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
        series = t + t**9 + t**25 + t**49
        return max(0.0, min(1.0, 1.0 - math.sqrt(2.0 * math.pi) / lam * series))
    total = 0.0
    for k in range(1, 64):
        term = math.exp(-2.0 * (k * lam) ** 2) * (1 if k % 2 else -1)
        total += term
        if abs(term) < 1e-17:
            break
    return max(0.0, min(1.0, 2.0 * total))


def ks_critical(n: int) -> float:
    """Critical one-sample KS distance at 1% significance."""
    if n < 1:
        raise InsufficientSample("need at least one observation")
    lo, hi = 1e-9, 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > 0.01:
            lo = mid
        else:
            hi = mid
    return hi / math.sqrt(n)


def ks_statistic(law: EmpiricalLaw, cdf) -> float:
    """One-sample KS distance sup_t |F_n(t) - F(t)| (full-sample laws only)."""
    if law.n_censored:
        raise CapTooSmall(
            f"KS needs the whole sample, but {law.n_censored} of "
            f"{law.n_total} times are censored at the fixed cap of "
            f"{law.cap:.3g} mean returns"
        )
    x = law.values
    n = x.size
    f = np.asarray(cdf(x))
    grid = np.arange(n, dtype=np.float64)
    d_plus = np.max((grid + 1.0) / n - f)
    d_minus = np.max(f - grid / n)
    return float(max(d_plus, d_minus))


def sup_distance_on_grid(law: EmpiricalLaw, cdf, grid) -> float:
    """max over the grid of |ECDF - limit CDF|."""
    diffs = [abs(law.cdf(t) - cdf(t)) for t in grid]
    return max(diffs)


# ------------------------------------------- level-vs-time comparisons

@dataclass(frozen=True)
class LevelTimeComparison:
    taus: tuple
    time_survivals: tuple  # G(tau(y)) from the hitting-time law
    sup_diff: float


def check_evl_from_hts(y_grid, maxima_probs, hit_law: EmpiricalLaw,
                       g) -> LevelTimeComparison:
    """Compare the maxima law against the hitting-time law point by point.

    The bridge is tau = g's level-to-rate map: the no-exceedance
    probability at rescaled level y should match the probability that the
    normalized hitting time exceeds tau(y).  The hitting-time law must
    cover every finite tau(y) (GridMismatch otherwise).
    """
    if len(y_grid) != len(maxima_probs):
        raise DomainError("grid and probabilities differ in length")
    taus, survivals = [], []
    for y in y_grid:
        t = g.tau(y)
        taus.append(t)
        try:
            survivals.append(hit_law.sf(t))  # sf(+inf) is exactly 0
        except CapTooSmall as exc:
            raise GridMismatch(
                f"tau({y}) = {t} lies beyond the hitting-time horizon"
            ) from exc
    diffs = [abs(p - s) for p, s in zip(maxima_probs, survivals)]
    return LevelTimeComparison(tuple(taus), tuple(survivals), max(diffs))


def survival_integral(law: EmpiricalLaw, t) -> float:
    """integral_0^t P(T > s) ds, evaluated exactly on the step ECDF.

    With T >= 0 this is E[min(t, T)], so censoring at a cap >= t is
    harmless: censored lanes contribute exactly t.
    """
    if t < 0:
        raise DomainError("the integral starts at 0")
    if law.cap is not None and law.n_censored and t > law.cap:
        raise CapTooSmall(f"integral needs the law up to {t}, cap {law.cap}")
    if law.values.size and law.values[0] < 0:
        raise DomainError("hitting times must be nonnegative")
    clipped = np.minimum(law.values, t)
    total = float(clipped.sum()) + law.n_censored * t
    return total / law.n_total
