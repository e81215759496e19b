"""Named experiment drivers and their file outputs.

Each driver consumes a resolved :class:`~evlhts.config.ExperimentConfig`
and produces an :class:`ExperimentReport`: a JSON-ready summary, tabular
rows for ``data.csv``, and long-format ``plot.csv`` rows
(series, x, y, stderr).  All randomness flows through the blocked
substream layer, so a report is a pure function of
(experiment, config values, master_seed) whatever the thread count —
``threads`` and ``out_dir`` are deliberately absent from the summary.

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
from fractions import Fraction

import numpy as np

from . import evl, hts
from .conditions import dprime_estimate, mixing_gap_estimate
from .config import ExperimentConfig
from .cylinders import PartitionContext, gibbs_envelope, smb_estimate
from .errors import ConfigError, UnsupportedCombination
from .laws import (
    EmpiricalLaw,
    LawKind,
    ReferenceLaw,
    check_evl_from_hts,
    ks_critical,
    ks_statistic,
    sup_distance_on_grid,
)
from .measures import BernoulliDoubling, EmpiricalOrbit, Lebesgue1D
from .observables import BallObservable, CylinderObservable, GKind, GShape
from .rng import substream
from .systems import (
    MapKind,
    doubling,
    full_tent,
    golden_convergents,
    manneville_pomeau,
    rotation,
)

EXPERIMENTS = (
    "evl-balls",
    "evl-cylinders",
    "hts",
    "rts",
    "kac",
    "conditions",
    "smb",
    "equivalence",
    "rotation-subseq",
)

PLOT_HEADER = ("series", "x", "y", "stderr")

_DIGIT_KINDS = (MapKind.FULL_TENT, MapKind.DOUBLING)


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


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


@dataclass
class Body:
    """Driver output before the common summary envelope is added."""

    results: dict
    data_header: tuple
    data_rows: list
    plot_rows: list
    passed: bool


@dataclass
class ExperimentReport:
    experiment: str
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
        return rotation(cfg["system.alpha"])
    return manneville_pomeau(cfg["system.s"])


def _build_measure(cfg: ExperimentConfig, system):
    kind = cfg["measure.kind"]
    try:
        if kind == "lebesgue":
            return Lebesgue1D(system.metric)
        if kind == "bernoulli":
            if system.kind is not MapKind.DOUBLING:
                raise ConfigError(
                    "measure.kind = bernoulli is invariant only for the "
                    "doubling map"
                )
            return BernoulliDoubling(cfg["measure.p"])
        return EmpiricalOrbit(
            system,
            master_seed=cfg["master_seed"],
            orbit_len=cfg["measure.orbit_len"],
            burn_in=cfg["measure.burn_in"],
        )
    except UnsupportedCombination as exc:
        raise ConfigError(str(exc)) from exc


def _build_g(cfg: ExperimentConfig) -> GShape:
    return GShape(
        GKind(cfg["observable.type"]),
        alpha=cfg["observable.alpha"],
        top=cfg["observable.D"],
    )


def _build_ctx(cfg: ExperimentConfig, system, measure, *needed_depths: int
               ) -> PartitionContext:
    depth = max(cfg["cylinders.max_depth"], *(d + 2 for d in needed_depths)) \
        if needed_depths else cfg["cylinders.max_depth"]
    try:
        return PartitionContext(system, measure, max_depth=depth)
    except UnsupportedCombination as exc:
        raise ConfigError(str(exc)) from exc


def _require_mode(cfg: ExperimentConfig, mode: str, experiment: str):
    if cfg["observable.mode"] != mode:
        raise ConfigError(
            f"the {experiment} experiment needs observable.mode = {mode}"
        )


def _reference_law(g: GShape) -> ReferenceLaw:
    if g.kind is GKind.G1:
        return ReferenceLaw(LawKind.EV1)
    if g.kind is GKind.G2:
        return ReferenceLaw(LawKind.EV2, alpha=g.alpha)
    return ReferenceLaw(LawKind.EV3, alpha=g.alpha)


def _normalizers(cfg: ExperimentConfig, g: GShape, n: int) -> evl.Normalizers:
    if cfg["evl.construction"] == "proof":
        return evl.proof_normalizers(g, n)
    return evl.quantile_normalizers(g, n)


# ------------------------------------------------------------- evl-balls

def _run_evl_balls(cfg: ExperimentConfig) -> Body:
    _require_mode(cfg, "ball", "evl-balls")
    system = _build_system(cfg)
    measure = _build_measure(cfg, system)
    g = _build_g(cfg)
    obs = BallObservable(g, measure, cfg["observable.zeta"])
    ref = _reference_law(g)
    y_grid = cfg["evl.y_grid"]
    samples = cfg["evl.samples"]
    tol = cfg["evl.tol"]
    iid_mode = cfg["evl.iid_mode"]
    seed, threads = cfg["master_seed"], cfg["threads"]

    per_n, data_rows, plot_rows = [], [], []
    passed = True
    for n in cfg["evl.n_list"]:
        norms = _normalizers(cfg, g, n)
        routes = {"dyn": evl.sample_ball_min_distances(
            obs, system, n_steps=n, n_samples=samples, seed=seed,
            labels=("evl-balls", f"n={n}"), threads=threads)}
        if iid_mode:
            routes["iid"] = evl.sample_ball_min_distances(
                obs, system, n_steps=n, n_samples=samples, seed=seed,
                labels=("evl-balls", f"n={n}"), threads=threads, iid=True)

        maxima = EmpiricalLaw(
            norms.rescale(evl.ball_maxima_values(routes["dyn"], obs)))
        ks_stat = ks_statistic(maxima, ref)
        grid_sup = sup_distance_on_grid(maxima, ref, y_grid)
        route_diff = 0.0
        points = []
        for y in y_grid:
            limit = float(np.asarray(ref.cdf(y)))
            degenerate = evl.degenerate_probability(g, y)
            probs = {}
            for route, dmin in routes.items():
                if degenerate is None:
                    p = evl.prob_max_below(dmin, obs, norms.level(y))
                    cell = _q(p, _binom_se(p, samples))
                else:
                    p = degenerate
                    cell = _q(p, exact=True)
                probs[route] = (p, cell)
                data_rows.append((n, y, route, p, cell.get("stderr", 0.0),
                                  limit))
                plot_rows.append((f"{route} n={n}", y, p,
                                  cell.get("stderr", "")))
            if iid_mode:
                route_diff = max(route_diff,
                                 abs(probs["dyn"][0] - probs["iid"][0]))
            point = {"y": y, "limit": _q(limit, exact=True)}
            for route, (_, cell) in probs.items():
                point[route] = cell
            points.append(point)

        entry = {
            "n": n,
            "normalizers": {"a": _q(norms.a, exact=True),
                            "b": _q(norms.b, exact=True)},
            "ks": {"statistic": _q(ks_stat, exact=True),
                   "critical_1pct": _q(ks_critical(samples), exact=True)},
            "grid_sup": _q(grid_sup, exact=True),
            "points": points,
        }
        n_pass = grid_sup <= tol
        if iid_mode:
            entry["route_sup_diff"] = _q(route_diff, exact=True)
            n_pass = n_pass and route_diff <= tol
        entry["verdict"] = _verdict(n_pass)
        passed = passed and n_pass
        per_n.append(entry)

    for y in y_grid:
        plot_rows.append(("limit", y, float(np.asarray(ref.cdf(y))), ""))
    results = {"per_n": per_n, "tolerance": tol}
    header = ("n", "y", "route", "estimate", "stderr", "limit")
    return Body(results, header, data_rows, plot_rows, passed)


# --------------------------------------------------------- evl-cylinders

def _run_evl_cylinders(cfg: ExperimentConfig) -> Body:
    _require_mode(cfg, "cylinder", "evl-cylinders")
    system = _build_system(cfg)
    if system.kind not in _DIGIT_KINDS:
        raise ConfigError(
            "cylinder maxima are implemented for the tent and doubling maps"
        )
    measure = _build_measure(cfg, system)
    g = _build_g(cfg)
    depths = cfg["evl.n_list"]
    ctx = _build_ctx(cfg, system, measure, *depths)
    obs = CylinderObservable(g, ctx, cfg["observable.zeta"])
    samples = cfg["evl.samples"]
    tau_grid = cfg["evl.tau_grid"]
    tol = cfg["evl.tol"]
    iid_mode = cfg["evl.iid_mode"]
    seed, threads = cfg["master_seed"], cfg["threads"]

    per_cell, data_rows, plot_rows = [], [], []
    passed = True
    for depth in depths:
        for tau in tau_grid:
            sched = evl.cylinder_schedule(
                obs, depth=depth, tau=tau, convention=cfg["evl.convention"])
            limit = math.exp(-tau)
            routes = {"dyn": False, "iid": True} if iid_mode \
                else {"dyn": False}
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
            for route, iid in routes.items():
                flags = evl.sample_cylinder_no_entry(
                    obs, sched, n_samples=samples, seed=seed,
                    labels=("evl-cylinders", f"n={depth}", f"tau={tau!r}"),
                    threads=threads, iid=iid)
                p = float(flags.mean())
                se = _binom_se(p, samples)
                cell[route] = _q(p, se)
                worst = max(worst, abs(p - limit))
                data_rows.append((depth, tau, route, sched.window, p, se,
                                  limit))
                plot_rows.append((f"{route} n={depth}", tau, p, se))
            cell_pass = worst <= tol
            cell["max_abs_error"] = _q(worst, exact=True)
            cell["verdict"] = _verdict(cell_pass)
            passed = passed and cell_pass
            per_cell.append(cell)

    for tau in tau_grid:
        plot_rows.append(("limit", tau, math.exp(-tau), ""))
    results = {"cells": per_cell, "tolerance": tol}
    header = ("depth", "tau", "route", "window", "no_entry", "stderr",
              "limit")
    return Body(results, header, data_rows, plot_rows, passed)


# ------------------------------------------------------------- hts / rts

def _hit_cap(cfg: ExperimentConfig, mass: float) -> int:
    """Step cap of a target of ``mass``, with hts.start_j checked below it."""
    cap = hts.default_cap(mass, cfg["hts.cap_factor"])
    if cfg["hts.start_j"] >= cap:
        raise ConfigError(
            f"hts.start_j = {cfg['hts.start_j']} leaves no step below the cap "
            f"{cap} (hts.cap_factor = {cfg['hts.cap_factor']:g} mean returns "
            f"of a target of mass {mass:g})")
    return cap


def _targets(cfg: ExperimentConfig, system, measure):
    """(label, TargetSet, cap) triples from the configured target family."""
    zeta = cfg["observable.zeta"]
    if cfg["hts.target"] == "cylinder":
        depths = cfg["hts.depth_list"]
        ctx = _build_ctx(cfg, system, measure, *depths)
        pairs = [(f"depth={d}", hts.cylinder_target(ctx, zeta, d))
                 for d in depths]
    else:
        pairs = [(f"mass={m!r}", hts.ball_target(measure, zeta, mass=m))
                 for m in cfg["hts.mass_list"]]
    return [(label, t, _hit_cap(cfg, t.mass)) for label, t in pairs]


def _run_time_law(cfg: ExperimentConfig, name: str, conditional: bool
                  ) -> Body:
    t_grid = cfg["hts.t_grid"]
    cap_factor = cfg["hts.cap_factor"]
    if cap_factor < max(t_grid):
        raise ConfigError(
            f"hts.cap_factor = {cap_factor} censors times at {cap_factor:g} "
            f"mean returns, short of t = {max(t_grid):g} on hts.t_grid"
        )
    system = _build_system(cfg)
    measure = _build_measure(cfg, system)
    start_j = cfg["hts.start_j"]
    if conditional and start_j < 1:
        raise ConfigError("return times need hts.start_j >= 1")
    samples = cfg["hts.samples"]
    tol = cfg["hts.tol"]
    seed, threads = cfg["master_seed"], cfg["threads"]
    exp_ref = ReferenceLaw(LawKind.EXPONENTIAL)

    per_target, data_rows, plot_rows = [], [], []
    passed = True
    for label, target, cap in _targets(cfg, system, measure):
        sample = hts.sample_hit_times(
            system, target, cap=cap, n_samples=samples, seed=seed,
            labels=(name, label), threads=threads, conditional=conditional,
            start_j=start_j, measure=measure)
        law = sample.law()
        ks_stat = ks_statistic(law, exp_ref)
        scaled = np.minimum(sample.times, cap) * target.mass
        mean = float(scaled.mean())
        mean_se = float(scaled.std(ddof=1) / math.sqrt(scaled.size))
        curve = []
        for t in t_grid:
            f = law.cdf(t)
            se = _binom_se(f, samples)
            curve.append({"t": t, "cdf": _q(f, se)})
            data_rows.append((label, t, f, se,
                              float(np.asarray(exp_ref.cdf(t)))))
            plot_rows.append((label, t, f, se))
        t_pass = ks_stat <= tol
        per_target.append({
            "target": label,
            "mass": _q(target.mass, exact=True),
            "cap": cap,
            "n_censored": sample.n_censored,
            "mean_normalized": _q(mean, mean_se),
            "ks": {"statistic": _q(ks_stat, exact=True),
                   "critical_1pct": _q(ks_critical(samples), exact=True)},
            "curve": curve,
            "verdict": _verdict(t_pass),
        })
        passed = passed and t_pass

    for t in t_grid:
        plot_rows.append(("exponential", t,
                          float(np.asarray(exp_ref.cdf(t))), ""))
    results = {"targets": per_target, "tolerance": tol}
    header = ("target", "t", "cdf", "stderr", "exponential_cdf")
    return Body(results, header, data_rows, plot_rows, passed)


def _run_hts(cfg: ExperimentConfig) -> Body:
    return _run_time_law(cfg, "hts", conditional=False)


def _run_rts(cfg: ExperimentConfig) -> Body:
    return _run_time_law(cfg, "rts", conditional=True)


# ------------------------------------------------------------------ kac

def _run_kac(cfg: ExperimentConfig) -> Body:
    if cfg["hts.cap_factor"] < 1:
        raise ConfigError(
            f"hts.cap_factor = {cfg['hts.cap_factor']} censors returns short "
            "of the one mean return that the identity certifies"
        )
    system = _build_system(cfg)
    measure = _build_measure(cfg, system)
    if cfg["hts.start_j"] < 1:
        raise ConfigError("the mean-return identity needs hts.start_j >= 1")
    samples = cfg["hts.samples"]
    tol = cfg["kac.tol"]
    seed, threads = cfg["master_seed"], cfg["threads"]

    per_target, data_rows, plot_rows = [], [], []
    passed = True
    for label, target, cap in _targets(cfg, system, measure):
        sample = hts.sample_hit_times(
            system, target, cap=cap, n_samples=samples, seed=seed,
            labels=("kac", label), threads=threads, conditional=True,
            start_j=cfg["hts.start_j"], measure=measure)
        report = hts.kac_check(sample)
        sigma = report.band / 3.0
        error = abs(report.product - 1.0)
        t_pass = error <= tol
        per_target.append({
            "target": label,
            "mass": _q(target.mass, exact=True),
            "product": _q(report.product, sigma),
            "band_3sigma": _q(report.band, exact=True),
            "abs_error": _q(error, exact=True),
            "within_band": report.passed,
            "verdict": _verdict(t_pass),
        })
        passed = passed and t_pass
        data_rows.append((label, "product", report.product, sigma))
        data_rows.append((label, "abs_error", error, 0.0))
        law = sample.law()
        for t in cfg["hts.t_grid"]:
            f = law.cdf(t)
            plot_rows.append((label, t, f, _binom_se(f, samples)))

    results = {"targets": per_target, "tolerance": tol}
    header = ("target", "statistic", "value", "stderr")
    return Body(results, header, data_rows, plot_rows, passed)


# ----------------------------------------------------------- conditions

def _run_conditions(cfg: ExperimentConfig) -> Body:
    system = _build_system(cfg)
    if system.kind not in _DIGIT_KINDS:
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
    ctx = _build_ctx(cfg, system, measure, depth)
    target = hts.cylinder_target(ctx, cfg["observable.zeta"], depth)
    samples = cfg["conditions.samples"]
    floor = cfg["conditions.floor"]
    seed, threads = cfg["master_seed"], cfg["threads"]

    reports, data_rows, plot_rows = [], [], []
    passed = True
    for k in cfg["conditions.k_list"]:
        rep = dprime_estimate(
            system, measure, target, block_n=block_n, k=k,
            n_samples=samples, seed=seed, labels=("conditions", "dprime"),
            threads=threads, floor=floor)
        reports.append(("recurrence", k, rep))
        plot_rows.append(("recurrence", k, rep.estimate, rep.sigma))
        plot_rows.append(("recurrence-baseline", k, rep.baseline, ""))
    gaps = cfg["conditions.t_grid"] or \
        (int(math.ceil(block_n ** 0.7)),)
    for gap in gaps:
        rep = mixing_gap_estimate(
            system, measure, target, block_n=block_n, gap=gap,
            n_samples=samples, seed=seed,
            labels=("conditions", "mixing", f"gap={gap}"), threads=threads,
            floor=floor)
        reports.append(("mixing-gap", gap, rep))
        plot_rows.append(("mixing-gap", gap, rep.estimate, rep.sigma))

    entries = []
    for family, parameter, rep in reports:
        entries.append({
            "condition": family,
            "parameter": parameter,
            "estimate": _q(rep.estimate, rep.sigma),
            "baseline": _q(rep.baseline, exact=True),
            "excess": _q(rep.excess, rep.sigma),
            "window": rep.window,
            "verdict": rep.verdict,
        })
        passed = passed and rep.consistent_with_zero
        data_rows.append((family, parameter, rep.estimate, rep.sigma,
                          rep.baseline, rep.verdict))

    results = {
        "target": {"depth": depth, "mass": _q(target.mass, exact=True)},
        "block_len": block_n,
        "floor": floor,
        "estimates": entries,
    }
    header = ("condition", "parameter", "estimate", "sigma", "baseline",
              "verdict")
    return Body(results, header, data_rows, plot_rows, passed)


# ------------------------------------------------------------------ smb

def _entropy_reference(system, measure) -> float:
    if isinstance(measure, Lebesgue1D):
        return math.log(2.0)
    p = measure.p
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def _sampled_cylinder_point(gen, p_zero: float, depth: int) -> Fraction:
    """Interior point of a depth-``depth`` doubling cell drawn from the
    digit-product measure (digit 0 with probability p_zero)."""
    idx = 0
    for u in gen.random(depth):
        idx = (idx << 1) | (1 if u >= p_zero else 0)
    return Fraction(2 * idx + 1, 1 << (depth + 1))


def _run_smb(cfg: ExperimentConfig) -> Body:
    system = _build_system(cfg)
    if system.kind not in _DIGIT_KINDS:
        raise ConfigError(
            "the information-rate estimate needs a letter-product measure "
            "(tent or doubling map)"
        )
    measure = _build_measure(cfg, system)
    if isinstance(measure, EmpiricalOrbit):
        raise ConfigError("the information rate needs a closed-form measure")
    depths = cfg["smb.depth_list"]
    ctx = _build_ctx(cfg, system, measure, *depths)
    zeta = cfg["observable.zeta"]
    tol = cfg["smb.tol"]
    reference = _entropy_reference(system, measure)
    uniform = isinstance(measure, Lebesgue1D)
    if uniform:
        potential = (math.log(0.5), math.log(0.5))
    else:
        potential = (math.log(measure.p), math.log(1.0 - measure.p))
    samples = cfg["smb.samples"]
    seed = cfg["master_seed"]

    per_depth, data_rows, plot_rows = [], [], []
    passed = True
    for depth in depths:
        if uniform:
            # every cell has the same dyadic mass, so one evaluation is the
            # whole distribution
            estimate = smb_estimate(ctx, zeta, depth)
            se = 0.0
            cell = _q(estimate, exact=True)
            d_pass = estimate == reference
        else:
            gen = substream(seed, "smb", f"depth={depth}")
            draws = [
                smb_estimate(ctx, _sampled_cylinder_point(
                    gen, measure.p, depth), depth)
                for _ in range(samples)
            ]
            arr = np.asarray(draws)
            estimate = float(arr.mean())
            se = float(arr.std(ddof=1) / math.sqrt(arr.size))
            cell = _q(estimate, se)
            d_pass = abs(estimate - reference) <= tol
        gibbs = gibbs_envelope(ctx, zeta, depth, potential)
        d_pass = d_pass and gibbs == 1.0
        per_depth.append({
            "depth": depth,
            "estimate": cell,
            "gibbs_ratio": _q(gibbs, exact=True),
            "verdict": _verdict(d_pass),
        })
        passed = passed and d_pass
        data_rows.append((depth, estimate, se, reference, gibbs))
        plot_rows.append(("information-rate", depth, estimate, se))
        plot_rows.append(("entropy", depth, reference, ""))

    results = {
        "reference_entropy": _q(reference, exact=True),
        "per_depth": per_depth,
        "tolerance": tol,
    }
    header = ("depth", "estimate", "stderr", "reference", "gibbs_ratio")
    return Body(results, header, data_rows, plot_rows, passed)


# ---------------------------------------------------------- equivalence

def _run_equivalence(cfg: ExperimentConfig) -> Body:
    _require_mode(cfg, "ball", "equivalence")
    g = _build_g(cfg)
    n = cfg["evl.n_list"][-1]
    y_grid = cfg["evl.y_grid"]
    # hitting times (target mass 1/n) are censored at this many mean returns
    cap = _hit_cap(cfg, 1.0 / n)
    horizon = cap * (1.0 / n)
    beyond = [y for y in y_grid if horizon < g.tau(y) < math.inf]
    if beyond:
        raise ConfigError(
            f"hts.cap_factor = {cfg['hts.cap_factor']} censors hitting times "
            f"at {horizon:g} mean returns, short of tau(y) = "
            f"{g.tau(beyond[0]):g} at y = {beyond[0]:g} on evl.y_grid"
        )
    system = _build_system(cfg)
    measure = _build_measure(cfg, system)
    obs = BallObservable(g, measure, cfg["observable.zeta"])
    tol = cfg["equivalence.tol"]
    seed, threads = cfg["master_seed"], cfg["threads"]

    norms = _normalizers(cfg, g, n)
    samples = cfg["evl.samples"]
    dmin = evl.sample_ball_min_distances(
        obs, system, n_steps=n, n_samples=samples, seed=seed,
        labels=("equivalence", "maxima"), threads=threads)
    probs = []
    for y in y_grid:
        degenerate = evl.degenerate_probability(g, y)
        probs.append(degenerate if degenerate is not None
                     else evl.prob_max_below(dmin, obs, norms.level(y)))

    target = hts.ball_target(measure, cfg["observable.zeta"], mass=1.0 / n)
    hit_samples = cfg["hts.samples"]
    sample = hts.sample_hit_times(
        system, target, cap=cap, n_samples=hit_samples, seed=seed,
        labels=("equivalence", "hit"), threads=threads, conditional=False,
        start_j=cfg["hts.start_j"], measure=measure)
    comparison = check_evl_from_hts(y_grid, probs, sample.law(), g)

    points, data_rows, plot_rows = [], [], []
    for y, tau, p, s in zip(y_grid, comparison.taus, probs,
                            comparison.time_survivals):
        p_se = _binom_se(p, samples)
        s_se = _binom_se(s, hit_samples)
        points.append({
            "y": y,
            "tau": _q(tau, exact=True),
            "maxima_prob": _q(p, p_se),
            "time_survival": _q(s, s_se),
        })
        data_rows.append((y, tau, p, p_se, s, s_se, abs(p - s)))
        plot_rows.append(("maxima", y, p, p_se))
        plot_rows.append(("hitting", y, s, s_se))

    passed = comparison.sup_diff <= tol
    results = {
        "n": n,
        "target_mass": _q(target.mass, exact=True),
        "sup_discrepancy": _q(comparison.sup_diff, exact=True),
        "points": points,
        "tolerance": tol,
        "n_censored": sample.n_censored,
    }
    header = ("y", "tau", "maxima_prob", "maxima_stderr", "time_survival",
              "time_stderr", "abs_diff")
    return Body(results, header, data_rows, plot_rows, passed)


# ------------------------------------------------------- rotation-subseq

def _run_rotation_subseq(cfg: ExperimentConfig) -> Body:
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
    zeta = cfg["observable.zeta"]
    samples = cfg["hts.samples"]
    ks_min = cfg["rotation.ks_min"]
    seed, threads = cfg["master_seed"], cfg["threads"]
    exp_ref = ReferenceLaw(LawKind.EXPONENTIAL)

    targets = [hts.cylinder_target(ctx, zeta, d) for d in depths]
    caps = [_hit_cap(cfg, target.mass) for target in targets]
    per_depth, data_rows, plot_rows = [], [], []
    passed = True
    for depth, target, cap in zip(depths, targets, caps):
        hit = hts.sample_hit_times(
            system, target, cap=cap, n_samples=samples, seed=seed,
            labels=("rotation-subseq", f"depth={depth}"), threads=threads,
            conditional=False, start_j=cfg["hts.start_j"], measure=measure)
        ret = hts.sample_hit_times(
            system, target, cap=cap, n_samples=samples, seed=seed,
            labels=("rotation-subseq", f"depth={depth}"), threads=threads,
            conditional=True, start_j=max(cfg["hts.start_j"], 1),
            measure=measure)
        law = hit.law()
        ks_stat = ks_statistic(law, exp_ref)
        values = sorted(int(v) for v in np.unique(ret.times[ret.hit]))
        d_pass = ks_stat >= ks_min and len(values) <= 3
        per_depth.append({
            "depth": depth,
            "mass": _q(target.mass, exact=True),
            "ks_vs_exponential": _q(ks_stat, exact=True),
            "return_values": values,
            "verdict": _verdict(d_pass),
        })
        passed = passed and d_pass
        data_rows.append((depth, target.mass, ks_stat, len(values),
                          " ".join(str(v) for v in values)))
        for t in cfg["hts.t_grid"]:
            f = law.cdf(t)
            plot_rows.append((f"hitting depth={depth}", t, f,
                              _binom_se(f, samples)))

    for t in cfg["hts.t_grid"]:
        plot_rows.append(("exponential", t,
                          float(np.asarray(exp_ref.cdf(t))), ""))
    results = {"per_depth": per_depth, "ks_min": ks_min}
    header = ("depth", "mass", "ks_statistic", "n_return_values",
              "return_values")
    return Body(results, header, data_rows, plot_rows, passed)


# ------------------------------------------------------------ dispatch

_DRIVERS = {
    "evl-balls": _run_evl_balls,
    "evl-cylinders": _run_evl_cylinders,
    "hts": _run_hts,
    "rts": _run_rts,
    "kac": _run_kac,
    "conditions": _run_conditions,
    "smb": _run_smb,
    "equivalence": _run_equivalence,
    "rotation-subseq": _run_rotation_subseq,
}


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
    body = driver(config)
    summary = {
        "experiment": config.experiment,
        "config": config.echo(),
        "results": body.results,
        "verdict": _verdict(body.passed),
    }
    report = ExperimentReport(
        experiment=config.experiment,
        summary=summary,
        data_header=body.data_header,
        data_rows=body.data_rows,
        plot_rows=body.plot_rows,
        passed=body.passed,
    )
    if write:
        write_report(report, config["out_dir"])
    return report


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: tuple, rows: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(cell) for cell in row])


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
