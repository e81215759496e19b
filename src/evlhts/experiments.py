"""Named experiment drivers and their file outputs.

Each driver consumes a resolved :class:`~evlhts.config.ExperimentConfig`
and produces an :class:`ExperimentReport`: a JSON-ready summary, tabular
rows for ``data.csv``, and long-format ``plot.csv`` rows
(series, x, y, stderr).  All randomness flows through the blocked
substream layer, so a report is a pure function of
(experiment, config values, master_seed) whatever the thread count —
``threads`` and ``out_dir`` are deliberately absent from the summary.

Verdict rule: a driver records one check per verdict cell, and the
top-level verdict is PASS exactly when every recorded check passes.  For
``conditions`` that means every estimate is ``ConsistentWithZero``;
``equivalence`` records its one sup check.

Numeric convention inside ``results``: every float is wrapped as
``{"value": v, "stderr": s}`` when it carries Monte Carlo error and
``{"value": v, "exact": true}`` when it is a deterministic functional of
the sample or of the configuration.  Plain integers are exact counts.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import evl, hts
from .conditions import dprime_estimate, mixing_gap_estimate
from .config import ExperimentConfig
from .cylinders import (
    PartitionContext,
    gibbs_envelope,
    letter_log_masses,
    smb_estimate,
    word_log_mass,
)
from .engine import MAX_WORD_DEPTH
from .errors import ConfigError, DomainError, NotAttained, UnsupportedCombination
from .laws import (
    EmpiricalLaw,
    check_evl_from_hts,
    exponential_cdf,
    ks_critical,
    ks_statistic,
    sup_distance_on_grid,
)
from .measures import (FIXED_DEPTH, BernoulliDoubling, EmpiricalOrbit,
                       Lebesgue1D, digit_p_zero)
from .observables import BallObservable, CylinderObservable, GKind, GShape
from .rng import substream
from .systems import (
    DIGIT_KINDS,
    MapKind,
    doubling,
    full_tent,
    golden_convergents,
    manneville_pomeau,
    rotation,
)

PLOT_HEADER = ("series", "x", "y", "stderr")

#: lane-steps (samples x cap for a hit run, samples x window for a
#: fixed-window scan) past which a run is refused before sampling; the
#: largest gate run, equivalence at n = 5000, schedules 2.5e9
MAX_LANE_STEPS = 10 ** 11


# ------------------------------------------------------------- plumbing

def _q(value, stderr=None, exact=False) -> dict:
    """JSON cell for one numeric: value plus error bar or exactness flag."""
    v = float(value)
    cell_value = v if math.isfinite(v) else repr(v)
    if exact:
        return {"value": cell_value, "exact": True}
    if stderr is None:
        raise ValueError("a sampled numeric needs a standard error")
    return {"value": cell_value, "stderr": float(stderr)}


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _ks_cell(statistic: float, samples: int) -> dict:
    """A KS statistic beside the 1% critical value of ``samples`` draws."""
    return {"statistic": _q(statistic, exact=True),
            "critical_1pct": _q(ks_critical(samples), exact=True)}


class _Report:
    """One driver's rows and the checks behind its verdict."""

    def __init__(self, data_header: tuple):
        self.data_header = data_header
        self.data_rows, self.plot_rows = [], []
        self.passed = True

    def verdict(self, ok: bool) -> str:
        """Record one check; the label of the cell it judges."""
        self.passed = self.passed and bool(ok)
        return "PASS" if ok else "FAIL"

    def sampled_cdf(self, series: str, law, grid, samples: int) -> list:
        """Plot a sampled CDF on ``grid``; its (t, F(t), stderr) points."""
        points = [(t, f, _binom_se(f, samples))
                  for t, f in zip(grid, map(law.cdf, grid))]
        self.plot_rows.extend((series, *point) for point in points)
        return points

    def reference(self, series: str, grid, cdf):
        """Plot a limit CDF on ``grid``."""
        self.plot_rows.extend((series, x, cdf(x), "") for x in grid)


@dataclass
class ExperimentReport:
    summary: dict
    data_header: tuple
    data_rows: list
    plot_rows: list
    passed: bool


def _build_system(cfg: ExperimentConfig):
    kind = cfg["system.kind"]
    if kind == "full_tent":
        return full_tent()
    if kind == "doubling":
        return doubling()
    if kind == "rotation":
        try:
            return rotation(cfg["system.alpha"])
        except DomainError as exc:
            raise ConfigError(f"system.alpha: {exc}") from exc
    return manneville_pomeau(cfg["system.s"])


def _build_measure(cfg: ExperimentConfig, system):
    kind = cfg["measure.kind"]
    try:
        if kind == "lebesgue":
            if system.kind is MapKind.MANNEVILLE_POMEAU:
                raise ConfigError(
                    "measure.kind = lebesgue is not invariant for the "
                    "intermittent map; use measure.kind = orbit"
                )
            return Lebesgue1D(system.metric)
        if kind == "bernoulli":
            if system.kind is not MapKind.DOUBLING:
                raise ConfigError(
                    "measure.kind = bernoulli is invariant only for the "
                    "doubling map"
                )
            # Bernoulli(1/2) is Lebesgue: one class rounds its ball masses
            if cfg["measure.p"] == 0.5:
                return Lebesgue1D(system.metric)
            return BernoulliDoubling(cfg["measure.p"])
        return EmpiricalOrbit(
            system,
            master_seed=cfg["master_seed"],
            orbit_len=cfg["measure.orbit_len"],
            burn_in=cfg["measure.burn_in"],
        )
    except UnsupportedCombination as exc:
        raise ConfigError(f"measure.kind = {kind}: {exc}") from exc


def _build_g(cfg: ExperimentConfig) -> GShape:
    return GShape(GKind(cfg["observable.type"]), alpha=cfg["observable.alpha"])


def _build_ctx(cfg: ExperimentConfig, system, measure, *needed_depths: int
               ) -> PartitionContext:
    depth = max((cfg["cylinders.max_depth"], *(d + 2 for d in needed_depths)))
    try:
        return PartitionContext(system, measure, max_depth=depth)
    except UnsupportedCombination as exc:
        raise ConfigError(str(exc)) from exc


def _require_word_depths(system, key: str, depths, deepest: int):
    """Reject tent and doubling cylinders deeper than the word scans run;
    ``deepest`` is the deepest cell ``depths`` lead to."""
    if system.kind in DIGIT_KINDS and deepest > MAX_WORD_DEPTH:
        raise ConfigError(
            f"{key} = {', '.join(map(str, depths))} asks for a cylinder "
            f"deeper than {MAX_WORD_DEPTH}, the deepest tent or doubling "
            "cylinder the word scans run")


def _ball_target(measure, zeta, mass: float, key: str) -> hts.TargetSet:
    """The ball of ``mass`` around zeta.  A centre off the fixed-point
    grid, or a mass no radius attains, is a config error naming its key."""
    if not math.ldexp(zeta, FIXED_DEPTH).is_integer():
        raise ConfigError(
            f"observable.zeta = {zeta!r} is finer than the 2^-{FIXED_DEPTH} "
            "grid on which ball masses are exact")
    try:
        return hts.ball_target(measure, zeta, mass)
    except NotAttained as exc:
        raise ConfigError(
            f"{key} asks for a ball of mass {mass:g} around {zeta}, which no "
            f"53-bit radius attains ({exc})") from exc


def _require_budget(key: str, samples: int, steps: int):
    """Refuse ``samples`` lanes of up to ``steps`` steps each past
    ``MAX_LANE_STEPS``, naming the key that set the steps."""
    if samples * steps > MAX_LANE_STEPS:
        raise ConfigError(
            f"{key} schedules {samples} x {steps} = {samples * steps:.3g} "
            f"lane-steps, past the ceiling of {MAX_LANE_STEPS:.0e}")


def _require_mode(cfg: ExperimentConfig, mode: str):
    if cfg["observable.mode"] != mode:
        raise ConfigError(
            f"the {cfg.experiment} experiment needs observable.mode = {mode}"
        )


def _require_below_sup(g: GShape, mass: float, setting: str):
    """Refuse a level g(mass) that rounds to sup phi, where no level has
    an exceedance set: g3 at a small enough mass or alpha."""
    level = g.forward(mass)
    if level >= g.value_at_zero:
        raise ConfigError(
            f"{setting} asks for the level g({mass:g}) = {level!r} with "
            f"observable.alpha = {g.alpha!r}: it rounds to the supremum of "
            "the observable, where no level has an exceedance set")


def _routes(cfg: ExperimentConfig) -> tuple:
    """The dynamical sample, and the exact iid law when evl.iid_mode asks."""
    return ("dyn", "iid") if cfg["evl.iid_mode"] else ("dyn",)


# ------------------------------------------------------------- evl-balls

def _run_evl_balls(cfg: ExperimentConfig) -> tuple[_Report, dict]:
    _require_mode(cfg, "ball")
    system = _build_system(cfg)
    measure = _build_measure(cfg, system)
    g = _build_g(cfg)
    obs = BallObservable(g, measure, cfg["observable.zeta"])
    y_grid = cfg["evl.y_grid"]
    samples = cfg["evl.samples"]
    tol = cfg["evl.tol"]
    out = _Report(("n", "y", "route", "estimate", "stderr", "limit"))

    routes = _routes(cfg)
    n_max = max(cfg["evl.n_list"])
    _require_below_sup(g, 1.0 / n_max, f"evl.n_list = {n_max}")
    _require_budget("evl.n_list", samples, n_max)
    per_n = []
    for n in cfg["evl.n_list"]:
        norms = evl.quantile_normalizers(g, n)
        # the maxima law reads ball masses off 53-bit distances: refuse a
        # ball of mass 1/n that no radius attains before sampling
        _ball_target(measure, obs.zeta, 1.0 / n, "evl.n_list")
        dmin = evl.sample_ball_min_distances(
            obs, system, n_steps=n, n_samples=samples,
            seed=cfg["master_seed"], labels=("evl-balls", f"n={n}"),
            threads=cfg["threads"])

        maxima = EmpiricalLaw(
            norms.rescale(evl.ball_maxima_values(dmin, obs)))
        ks_stat = ks_statistic(maxima, g.limit_cdf)
        grid_sup = sup_distance_on_grid(maxima, g.limit_cdf, y_grid)
        route_diff = 0.0
        points = []
        for y in y_grid:
            limit = g.limit_cdf(y)
            degenerate = g.pinned(y)
            point = {"y": y, "limit": _q(limit, exact=True)}
            for route in routes:  # "dyn" comes first
                if degenerate is not None:
                    p, cell = degenerate, _q(degenerate, exact=True)
                elif route == "dyn":
                    p = p_dyn = maxima.cdf(y)
                    cell = _q(p, _binom_se(p, samples))
                else:
                    p = evl.iid_no_exceedance(
                        g.tail_fraction(norms.level(y)), n)
                    cell = _q(p, exact=True)
                    route_diff = max(route_diff, abs(p - p_dyn))
                point[route] = cell
                out.data_rows.append((n, y, route, p,
                                      cell.get("stderr", 0.0), limit))
                out.plot_rows.append((f"{route} n={n}", y, p,
                                      cell.get("stderr", "")))
            points.append(point)

        entry = {
            "n": n,
            "normalizers": {"a": _q(norms.a, exact=True),
                            "b": _q(norms.b, exact=True)},
            "ks": _ks_cell(ks_stat, samples),
            "grid_sup": _q(grid_sup, exact=True),
            "points": points,
        }
        if "iid" in routes:
            entry["route_sup_diff"] = _q(route_diff, exact=True)
        # route_diff stays 0 without the iid route
        entry["verdict"] = out.verdict(grid_sup <= tol and route_diff <= tol)
        per_n.append(entry)

    out.reference("limit", y_grid, g.limit_cdf)
    return out, {"per_n": per_n, "tolerance": tol}


# --------------------------------------------------------- evl-cylinders

def _run_evl_cylinders(cfg: ExperimentConfig) -> tuple[_Report, dict]:
    _require_mode(cfg, "cylinder")
    system = _build_system(cfg)
    if system.kind not in DIGIT_KINDS:
        raise ConfigError(
            "cylinder maxima are implemented for the tent and doubling maps"
        )
    measure = _build_measure(cfg, system)
    g = _build_g(cfg)
    depths = cfg["evl.n_list"]
    ctx = _build_ctx(cfg, system, measure, *depths)
    obs = CylinderObservable(g, ctx, cfg["observable.zeta"])
    # the deepest anchor has the highest level
    _require_below_sup(g, obs.ladder_mass(max(depths) - 1),
                       f"evl.n_list = {max(depths)}")
    samples = cfg["evl.samples"]
    tau_grid = cfg["evl.tau_grid"]
    tol = cfg["evl.tol"]

    by_depth = [[evl.cylinder_schedule(obs, depth=depth, tau=tau)
                 for tau in tau_grid] for depth in depths]
    schedules = [s for row in by_depth for s in row]
    _require_word_depths(system, "evl.n_list", depths,
                         max(s.event_depth for s in schedules))
    # a window past the budget is also past the int64 step counter
    _require_budget("evl.n_list", samples, max(s.window for s in schedules))
    out = _Report(("depth", "tau", "route", "window", "no_entry", "stderr",
                   "limit"))

    # one first-entry scan per depth gives the no-entry share at every tau
    no_entry = np.concatenate([evl.sample_cylinder_no_entry(
        obs, row, n_samples=samples, seed=cfg["master_seed"],
        labels=("evl-cylinders", f"n={row[0].depth}"),
        threads=cfg["threads"]).mean(axis=0) for row in by_depth])
    per_cell = []
    for sched, p_dyn in zip(schedules, no_entry):
        depth, tau = sched.depth, sched.tau
        limit = math.exp(-tau)
        cell = {
            "depth": depth,
            "tau": tau,
            "level": _q(sched.level, exact=True),
            "event_depth": sched.event_depth,
            "event_mass": _q(sched.event_mass, exact=True),
            "window": sched.window,
            "limit": _q(limit, exact=True),
        }
        worst = 0.0
        for route in _routes(cfg):
            if route == "dyn":
                p = float(p_dyn)
                cell[route] = _q(p, _binom_se(p, samples))
            else:
                p = evl.iid_no_exceedance(sched.event_mass, sched.window)
                cell[route] = _q(p, exact=True)
            worst = max(worst, abs(p - limit))
            out.data_rows.append((depth, tau, route, sched.window, p,
                                  cell[route].get("stderr", 0.0), limit))
            out.plot_rows.append((f"{route} n={depth}", tau, p,
                                  cell[route].get("stderr", "")))
        cell["max_abs_error"] = _q(worst, exact=True)
        cell["verdict"] = out.verdict(worst <= tol)
        per_cell.append(cell)

    out.reference("limit", tau_grid, lambda tau: math.exp(-tau))
    return out, {"cells": per_cell, "tolerance": tol}


# ------------------------------------------------------------- hts / rts

def _targets(cfg: ExperimentConfig, system, measure):
    """(label, TargetSet, cap) triples from the configured target family."""
    zeta = cfg["observable.zeta"]
    if cfg["hts.target"] == "cylinder":
        key, depths = "hts.depth_list", cfg["hts.depth_list"]
        _require_word_depths(system, key, depths, max(depths))
        ctx = _build_ctx(cfg, system, measure, *depths)
        pairs = [(f"depth={d}", hts.cylinder_target(ctx, zeta, d))
                 for d in depths]
    else:
        key = "hts.mass_list"
        pairs = [(f"mass={m!r}", _ball_target(measure, zeta, m, key))
                 for m in cfg[key]]
    out = [(label, t, hts.default_cap(t.mass)) for label, t in pairs]
    _require_budget(key, cfg["hts.samples"], max(cap for _, _, cap in out))
    return out


def _hit_times(cfg: ExperimentConfig, system, measure, target, cap: int,
               label: str, conditional: bool) -> hts.HitSample:
    """hts.samples hitting times, or return times."""
    return hts.sample_hit_times(
        system, target, cap=cap, n_samples=cfg["hts.samples"],
        seed=cfg["master_seed"], labels=(cfg.experiment, label),
        threads=cfg["threads"], conditional=conditional, measure=measure)


def _run_time_law(cfg: ExperimentConfig) -> tuple[_Report, dict]:
    """hts, or rts: the same exponential law for return times."""
    conditional = cfg.experiment == "rts"
    t_grid = cfg["hts.t_grid"]
    if max(t_grid) > hts.DEFAULT_HORIZON:
        raise ConfigError(
            f"hts.t_grid reaches t = {max(t_grid):g}, past the censoring "
            f"horizon of {hts.DEFAULT_HORIZON:g} mean returns")
    system = _build_system(cfg)
    measure = _build_measure(cfg, system)
    samples = cfg["hts.samples"]
    tol = cfg["hts.tol"]
    out = _Report(("target", "t", "cdf", "stderr", "exponential_cdf"))

    per_target = []
    for label, target, cap in _targets(cfg, system, measure):
        sample = _hit_times(cfg, system, measure, target, cap, label,
                            conditional)
        law = sample.law()
        ks_stat = ks_statistic(law, exponential_cdf)
        scaled = np.minimum(sample.times, cap) * target.mass
        mean = float(scaled.mean())
        mean_se = float(scaled.std(ddof=1) / math.sqrt(scaled.size))
        curve = out.sampled_cdf(label, law, t_grid, samples)
        out.data_rows.extend((label, t, f, se, exponential_cdf(t))
                             for t, f, se in curve)
        per_target.append({
            "target": label,
            "mass": _q(target.mass, exact=True),
            "cap": cap,
            "n_censored": sample.n_censored,
            "mean_normalized": _q(mean, mean_se),
            "ks": _ks_cell(ks_stat, samples),
            "curve": [{"t": t, "cdf": _q(f, se)} for t, f, se in curve],
            "verdict": out.verdict(ks_stat <= tol),
        })

    out.reference("exponential", t_grid, exponential_cdf)
    return out, {"targets": per_target, "tolerance": tol}


# ------------------------------------------------------------------ kac

def _run_kac(cfg: ExperimentConfig) -> tuple[_Report, dict]:
    system = _build_system(cfg)
    measure = _build_measure(cfg, system)
    tol = cfg["kac.tol"]
    out = _Report(("target", "statistic", "value", "stderr"))

    per_target = []
    for label, target, cap in _targets(cfg, system, measure):
        sample = _hit_times(cfg, system, measure, target, cap, label,
                            conditional=True)
        report = hts.kac_check(sample)
        sigma = report.band / 3.0
        error = abs(report.product - 1.0)
        per_target.append({
            "target": label,
            "mass": _q(target.mass, exact=True),
            "product": _q(report.product, sigma),
            "band_3sigma": _q(report.band, exact=True),
            "abs_error": _q(error, exact=True),
            "within_band": report.passed,
            "verdict": out.verdict(error <= tol),
        })
        out.data_rows.append((label, "product", report.product, sigma))
        out.data_rows.append((label, "abs_error", error, 0.0))
        out.sampled_cdf(label, sample.law(), cfg["hts.t_grid"],
                        cfg["hts.samples"])

    return out, {"targets": per_target, "tolerance": tol}


# ----------------------------------------------------------- conditions

def _run_conditions(cfg: ExperimentConfig) -> tuple[_Report, dict]:
    system = _build_system(cfg)
    if system.kind not in DIGIT_KINDS:
        raise ConfigError(
            "the dependence diagnostics run on the tent and doubling maps"
        )
    block_n = cfg["conditions.block_len"]
    empty = [k for k in cfg["conditions.k_list"] if block_n // k < 1]
    if empty:
        raise ConfigError(
            f"conditions.k_list entries {empty} exceed conditions.block_len "
            f"= {block_n}, leaving an empty recurrence window block_len // k"
        )
    measure = _build_measure(cfg, system)
    depth = cfg["cylinders.max_depth"]
    _require_word_depths(system, "cylinders.max_depth", (depth,), depth)
    ctx = _build_ctx(cfg, system, measure, depth)
    target = hts.cylinder_target(ctx, cfg["observable.zeta"], depth)
    samples = cfg["conditions.samples"]
    floor = cfg["conditions.floor"]
    seed, threads = cfg["master_seed"], cfg["threads"]
    out = _Report(("condition", "parameter", "estimate", "sigma", "baseline",
                   "verdict"))

    entries = []

    def record(family, parameter, rep):
        out.verdict(rep.consistent_with_zero)
        entries.append({
            "condition": family,
            "parameter": parameter,
            "estimate": _q(rep.estimate, rep.sigma),
            "baseline": _q(rep.baseline, exact=True),
            "excess": _q(rep.excess, rep.sigma),
            "window": rep.window,
            "verdict": rep.verdict,
        })
        out.data_rows.append((family, parameter, rep.estimate, rep.sigma,
                              rep.baseline, rep.verdict))
        out.plot_rows.append((family, parameter, rep.estimate, rep.sigma))

    gaps = cfg["conditions.t_grid"] or \
        (int(math.ceil(block_n ** 0.7)),)
    # the longest run: a mixing gap plus the block after it
    _require_budget("conditions.block_len and conditions.t_grid", samples,
                    block_n + max(gaps))
    for k in cfg["conditions.k_list"]:
        rep = dprime_estimate(
            system, measure, target, block_n=block_n, k=k,
            n_samples=samples, seed=seed, labels=("conditions", "dprime"),
            threads=threads, floor=floor)
        record("recurrence", k, rep)
        out.plot_rows.append(("recurrence-baseline", k, rep.baseline, ""))
    for gap in gaps:
        record("mixing-gap", gap, mixing_gap_estimate(
            system, measure, target, block_n=block_n, gap=gap,
            n_samples=samples, seed=seed,
            labels=("conditions", "mixing", f"gap={gap}"), threads=threads,
            floor=floor))

    return out, {
        "target": {"depth": depth, "mass": _q(target.mass, exact=True)},
        "block_len": block_n,
        "floor": floor,
        "estimates": entries,
    }


# ------------------------------------------------------------------ smb

def _run_smb(cfg: ExperimentConfig) -> tuple[_Report, dict]:
    system = _build_system(cfg)
    if system.kind not in DIGIT_KINDS:
        raise ConfigError(
            "the information-rate estimate needs a letter-product measure "
            "(tent or doubling map)"
        )
    measure = _build_measure(cfg, system)
    depths = cfg["smb.depth_list"]
    ctx = _build_ctx(cfg, system, measure, *depths)
    zeta = cfg["observable.zeta"]
    tol = cfg["smb.tol"]
    p = digit_p_zero(measure)
    reference = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
    potential = letter_log_masses(ctx)
    out = _Report(("depth", "estimate", "stderr", "reference", "gibbs_ratio"))

    per_depth = []
    for depth in depths:
        if p == 0.5:
            # every cell has the same dyadic mass, so one evaluation is the
            # whole distribution
            estimate = smb_estimate(ctx, zeta, depth)
            se = 0.0
            cell = _q(estimate, exact=True)
            close = estimate == reference
        else:
            # the count of ones of each sampled cell: letter 1 (mass 1 - p)
            # where the uniform is >= p
            gen = substream(cfg["master_seed"], "smb", f"depth={depth}")
            ones = (gen.random((cfg["smb.samples"], depth)) >= p).sum(axis=1)
            arr = np.array([-word_log_mass(ctx, int(k), depth) / depth
                            for k in ones])
            estimate = float(arr.mean())
            se = float(arr.std(ddof=1) / math.sqrt(arr.size))
            cell = _q(estimate, se)
            close = abs(estimate - reference) <= tol
        gibbs = gibbs_envelope(ctx, zeta, depth, potential)
        per_depth.append({
            "depth": depth,
            "estimate": cell,
            "gibbs_ratio": _q(gibbs, exact=True),
            "verdict": out.verdict(close and gibbs == 1.0),
        })
        out.data_rows.append((depth, estimate, se, reference, gibbs))
        out.plot_rows.append(("information-rate", depth, estimate, se))
        out.plot_rows.append(("entropy", depth, reference, ""))

    return out, {
        "reference_entropy": _q(reference, exact=True),
        "per_depth": per_depth,
        "tolerance": tol,
    }


# ---------------------------------------------------------- equivalence

def _run_equivalence(cfg: ExperimentConfig) -> tuple[_Report, dict]:
    _require_mode(cfg, "ball")
    g = _build_g(cfg)
    n = cfg["evl.n_list"][-1]
    _require_below_sup(g, 1.0 / n, f"evl.n_list = {n}")
    y_grid = cfg["evl.y_grid"]
    # hitting times (target mass 1/n) are censored at this many mean returns
    cap = hts.default_cap(1.0 / n)
    horizon = cap * (1.0 / n)
    beyond = [y for y in y_grid if horizon < g.tau(y) < math.inf]
    if beyond:
        raise ConfigError(
            f"evl.y_grid reaches tau(y) = {g.tau(beyond[0]):g} at "
            f"y = {beyond[0]:g}, past the {horizon:g} mean returns at which "
            "hitting times are censored")
    system = _build_system(cfg)
    measure = _build_measure(cfg, system)
    obs = BallObservable(g, measure, cfg["observable.zeta"])
    tol = cfg["equivalence.tol"]
    out = _Report(("y", "tau", "maxima_prob", "maxima_stderr",
                   "time_survival", "time_stderr", "abs_diff"))

    norms = evl.quantile_normalizers(g, n)
    target = _ball_target(measure, cfg["observable.zeta"], 1.0 / n,
                          "evl.n_list")
    samples = cfg["evl.samples"]
    _require_budget("evl.n_list", max(samples, cfg["hts.samples"]), cap)
    dmin = evl.sample_ball_min_distances(
        obs, system, n_steps=n, n_samples=samples, seed=cfg["master_seed"],
        labels=("equivalence", "maxima"), threads=cfg["threads"])
    maxima = EmpiricalLaw(norms.rescale(evl.ball_maxima_values(dmin, obs)))
    probs = []
    for y in y_grid:
        degenerate = g.pinned(y)
        probs.append(degenerate if degenerate is not None
                     else maxima.cdf(y))

    sample = _hit_times(cfg, system, measure, target, cap, "hit",
                        conditional=False)
    comparison = check_evl_from_hts(y_grid, probs, sample.law(), g)

    points = []
    for y, tau, p, s in zip(y_grid, comparison.taus, probs,
                            comparison.time_survivals):
        p_se = _binom_se(p, samples)
        s_se = _binom_se(s, cfg["hts.samples"])
        points.append({
            "y": y,
            "tau": _q(tau, exact=True),
            "maxima_prob": _q(p, p_se),
            "time_survival": _q(s, s_se),
        })
        out.data_rows.append((y, tau, p, p_se, s, s_se, abs(p - s)))
        out.plot_rows.append(("maxima", y, p, p_se))
        out.plot_rows.append(("hitting", y, s, s_se))

    out.verdict(comparison.sup_diff <= tol)
    return out, {
        "n": n,
        "target_mass": _q(target.mass, exact=True),
        "sup_discrepancy": _q(comparison.sup_diff, exact=True),
        "points": points,
        "tolerance": tol,
        "n_censored": sample.n_censored,
    }


# ------------------------------------------------------- rotation-subseq

def _run_rotation_subseq(cfg: ExperimentConfig) -> tuple[_Report, dict]:
    system = _build_system(cfg)
    if system.kind is not MapKind.ROTATION:
        raise ConfigError(
            "the subsequence experiment needs system.kind = rotation"
        )
    measure = _build_measure(cfg, system)
    depths = cfg["hts.depth_list"]
    block_lengths = {den for _, den in golden_convergents(30)} | {1, 2}
    bad = [d for d in depths if d not in block_lengths]
    if bad:
        raise ConfigError(
            f"hts.depth_list entries {bad} are not continued-fraction block "
            "lengths; the subsequence law is pinned along 1, 2, 3, 5, 8, ..."
        )
    ctx = _build_ctx(cfg, system, measure, *depths)
    ks_min = cfg["rotation.ks_min"]
    out = _Report(("depth", "mass", "ks_statistic", "n_return_values",
                   "return_values"))

    targets = [hts.cylinder_target(ctx, cfg["observable.zeta"], d)
               for d in depths]
    caps = [hts.default_cap(target.mass) for target in targets]
    _require_budget("hts.depth_list", cfg["hts.samples"], max(caps))
    per_depth = []
    for depth, target, cap in zip(depths, targets, caps):
        label = f"depth={depth}"
        hit = _hit_times(cfg, system, measure, target, cap, label,
                         conditional=False)
        ret = _hit_times(cfg, system, measure, target, cap, label,
                         conditional=True)
        law = hit.law()
        ks_stat = ks_statistic(law, exponential_cdf)
        values = sorted(int(v) for v in np.unique(ret.times[ret.hit]))
        per_depth.append({
            "depth": depth,
            "mass": _q(target.mass, exact=True),
            "ks_vs_exponential": _q(ks_stat, exact=True),
            "return_values": values,
            "verdict": out.verdict(ks_stat >= ks_min and len(values) <= 3),
        })
        out.data_rows.append((depth, target.mass, ks_stat, len(values),
                              " ".join(str(v) for v in values)))
        out.sampled_cdf(f"hitting depth={depth}", law, cfg["hts.t_grid"],
                        cfg["hts.samples"])

    out.reference("exponential", cfg["hts.t_grid"], exponential_cdf)
    return out, {"per_depth": per_depth, "ks_min": ks_min}


# ------------------------------------------------------------ dispatch

_DRIVERS = {
    "evl-balls": _run_evl_balls,
    "evl-cylinders": _run_evl_cylinders,
    "hts": _run_time_law,
    "rts": _run_time_law,
    "kac": _run_kac,
    "conditions": _run_conditions,
    "smb": _run_smb,
    "equivalence": _run_equivalence,
    "rotation-subseq": _run_rotation_subseq,
}
EXPERIMENTS = tuple(_DRIVERS)


def run(config: ExperimentConfig, *, write: bool = True) -> ExperimentReport:
    """Execute one named experiment and (optionally) write its files.

    A failed band only sets the verdict: the files are written either way.
    """
    driver = _DRIVERS.get(config.experiment)
    if driver is None:
        raise ConfigError(
            f"unknown experiment {config.experiment!r}; choose one of "
            f"{', '.join(EXPERIMENTS)}"
        )
    out, results = driver(config)
    summary = {
        "experiment": config.experiment,
        "config": config.echo(),
        "results": results,
        "verdict": out.verdict(out.passed),
    }
    report = ExperimentReport(
        summary=summary,
        data_header=out.data_header,
        data_rows=out.data_rows,
        plot_rows=out.plot_rows,
        passed=out.passed,
    )
    if write:
        write_report(report, config["out_dir"])
    return report


def _write_csv(path: str, header: tuple, rows: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(cell) if isinstance(cell, float)
                             else str(cell) for cell in row])


def write_report(report: ExperimentReport, out_dir: str):
    """summary.json + data.csv + plot.csv, all byte-deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    text = json.dumps(report.summary, sort_keys=True, indent=2,
                      allow_nan=False)
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        fh.write(text + "\n")
    _write_csv(os.path.join(out_dir, "data.csv"), report.data_header,
               report.data_rows)
    _write_csv(os.path.join(out_dir, "plot.csv"), PLOT_HEADER,
               report.plot_rows)
