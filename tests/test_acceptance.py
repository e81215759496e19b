"""End-to-end validation gate.

Every guarantee the package advertises, checked at its stated tolerance
and sample size in one place: exponential no-entry limits for cylinder
maxima, Kac's identity, convergence of rescaled ball maxima to all three
extreme-value types, the maxima/hitting-time dictionary on a non-uniform
measure, the exact iid law, closed-form quantile levels, information
rates, short-return diagnostics, the return-to-hitting integral bridge,
the rotation counterexample, and thread-count invariance of reports.

All runs are seeded, so each bound below is a deterministic fact about
this code base, not a flaky statistical event; the margins were chosen
with at least a factor of two of slack over the observed values.
"""

import json
import math
import time

import numpy as np
import pytest

from evlhts import cli, evl
from evlhts.conditions import dprime_estimate
from evlhts.cylinders import PartitionContext, gibbs_envelope, smb_estimate
from evlhts.hts import (
    ball_target,
    compare_hts_rts,
    cylinder_target,
    default_cap,
    kac_check,
    sample_hit_times,
)
from evlhts.laws import (
    EmpiricalLaw,
    check_evl_from_hts,
    exponential_cdf,
    ks_statistic,
    sup_distance_on_grid,
)
from evlhts.measures import BernoulliDoubling, Lebesgue1D
from evlhts.observables import BallObservable, CylinderObservable, GKind, GShape
from evlhts.rng import substream
from evlhts.systems import doubling, full_tent, golden_convergents, rotation

SEED = 42
ZETA = 0.3  # generic (non-periodic) target point for the digit maps

TENT = full_tent()
DOUBLING = doubling()
LEB_TENT = Lebesgue1D(TENT.metric)
LEB_DBL = Lebesgue1D(DOUBLING.metric)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def tent_ctx():
    return PartitionContext(TENT, LEB_TENT, max_depth=2100)


@pytest.fixture(scope="module")
def doubling_ctx():
    return PartitionContext(DOUBLING, LEB_DBL, max_depth=12)


@pytest.fixture(scope="module")
def doubling_minima():
    """Orbit minimum distances for the n = 5000 doubling blocks.

    The minimum distance is the sufficient statistic for every ball
    observable at the same center, so one sampling run serves all three
    limit types and the comparison with the exact iid law.
    """
    obs = BallObservable(GShape(GKind.G1), LEB_DBL, ZETA)
    return evl.sample_ball_min_distances(
        obs, DOUBLING, n_steps=5000, n_samples=10000, seed=SEED,
        labels=("gate-minima",),
    )


def _no_entry_probability(ctx, zeta, tau, *, depth, n_samples, label):
    obs = CylinderObservable(GShape(GKind.G2), ctx, zeta)
    sched = evl.cylinder_schedule(obs, depth=depth, tau=tau)
    flags = evl.sample_cylinder_no_entry(
        obs, [sched], n_samples=n_samples, seed=SEED,
        labels=(label, f"tau={tau!r}"),
    )[:, 0]
    # the exceedance set of the depth-12 level is the depth-12 cell itself
    assert sched.event_depth == depth
    assert sched.window == int(tau * 2 ** depth)
    return float(np.mean(flags))


# ------------------------------------------------- cylinder maxima limits


def test_tent_cylinder_maxima_match_exponential_limit(tent_ctx):
    """Full tent, center 1: P(no entry in the tau-window) = e^-tau +- 0.02
    at anchor depth 12 with 20000 samples per tau, inside a minute."""
    start = time.monotonic()
    for tau in (0.5, 1.0, 2.0):
        p = _no_entry_probability(
            tent_ctx, 1.0, tau, depth=12, n_samples=20000, label="gate-tent-1"
        )
        assert abs(p - math.exp(-tau)) <= 0.02
    assert time.monotonic() - start <= 60.0


def test_tent_cylinder_maxima_generic_center(tent_ctx):
    """Same limit at the interior center 1/2 (different word, same law)."""
    for tau in (0.5, 1.0, 2.0):
        p = _no_entry_probability(
            tent_ctx, 0.5, tau, depth=12, n_samples=20000, label="gate-tent-h"
        )
        assert abs(p - math.exp(-tau)) <= 0.02


# ------------------------------------------------------------ Kac identity


def test_kac_identity_on_cell_and_half_interval(tent_ctx, doubling_ctx):
    """Mean return time x target mass lands within 3% of 1 on 10000
    uncensored returns, for a depth-10 tent cell and for [0, 1/2)."""
    cases = (
        (TENT, LEB_TENT, cylinder_target(tent_ctx, 1.0, 10), "gate-kac-t"),
        (DOUBLING, LEB_DBL, cylinder_target(doubling_ctx, 0.0, 1), "gate-kac-d"),
    )
    for system, measure, target, label in cases:
        sample = sample_hit_times(
            system, target, cap=default_cap(target.mass), n_samples=10000,
            seed=SEED, labels=(label,), conditional=True, measure=measure,
        )
        assert sample.n_censored == 0
        report = kac_check(sample)
        assert abs(report.product - 1.0) <= 0.03


# ------------------------------------------------------ ball maxima types


TYPE_GRIDS = {
    GKind.G1: np.linspace(-2.0, 4.0, 25),
    GKind.G2: np.linspace(0.1, 5.0, 25),
    GKind.G3: np.linspace(-2.0, -0.05, 25),
}


@pytest.mark.parametrize("kind", [GKind.G1, GKind.G2, GKind.G3])
def test_doubling_ball_maxima_reach_each_limit_type(doubling_minima, kind):
    """Rescaled block maxima (n = 5000, 10000 samples) stay within 0.03 of
    the matching limit law on a grid covering its support — one shape per
    extreme-value type, all from the same orbit sample."""
    dyn = doubling_minima
    shape = GShape(kind, alpha=1.0)
    obs = BallObservable(shape, LEB_DBL, ZETA)
    norms = evl.quantile_normalizers(shape, 5000)
    law = EmpiricalLaw(np.sort(norms.rescale(evl.ball_maxima_values(dyn, obs))))
    grid = TYPE_GRIDS[kind]
    assert sup_distance_on_grid(law, shape.limit_cdf, grid) <= 0.03


def test_dynamical_maxima_match_iid_maxima(doubling_minima):
    """Orbit maxima agree pointwise within 0.03 across the level grid with
    the exact law (1 - mu(phi > u))^n of n iid draws from the same
    marginal (the dependence is negligible)."""
    shape = GShape(GKind.G1)
    obs = BallObservable(shape, LEB_DBL, ZETA)
    norms = evl.quantile_normalizers(shape, 5000)
    law_d = EmpiricalLaw(np.sort(norms.rescale(
        evl.ball_maxima_values(doubling_minima, obs))))
    for y in TYPE_GRIDS[GKind.G1]:
        iid = evl.iid_no_exceedance(shape.tail_fraction(norms.level(y)), 5000)
        assert abs(law_d.cdf(y) - iid) <= 0.03


# ------------------------------------- maxima vs hitting on Bernoulli(0.3)


def test_skewed_measure_maxima_agree_with_hitting_law():
    """Doubling with the Bernoulli(0.3) digit measure, center drawn from
    the measure itself: P(M_n <= u_n(y)) matches the survival of the
    normalized hitting time at tau(y) within 0.04 on a nine-point grid,
    10000 samples per side."""
    bern = BernoulliDoubling(0.3)
    gen = substream(SEED, "gate-skew-center")
    idx = 0
    for u in gen.random(53):
        idx = (idx << 1) | (1 if u >= 0.3 else 0)
    zeta = (2 * idx + 1) / float(1 << 54)  # interior point of the digit cell

    n = 5000
    shape = GShape(GKind.G2, alpha=1.0)
    obs = BallObservable(shape, bern, zeta)
    norms = evl.quantile_normalizers(shape, n)
    dmin = evl.sample_ball_min_distances(
        obs, DOUBLING, n_steps=n, n_samples=10000, seed=SEED,
        labels=("gate-skew",),
    )
    law = EmpiricalLaw(np.sort(norms.rescale(evl.ball_maxima_values(dmin, obs))))
    y_grid = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0)
    probs = [law.cdf(y) for y in y_grid]

    target = ball_target(bern, zeta, mass=1.0 / n)
    hits = sample_hit_times(
        DOUBLING, target, cap=default_cap(target.mass), n_samples=10000,
        seed=SEED, labels=("gate-skew-hit",), measure=bern,
    )
    comparison = check_evl_from_hts(y_grid, probs, hits.law(), shape)
    assert comparison.sup_diff <= 0.04


# --------------------------------------------------- quantile closed forms


def test_quantile_levels_match_closed_forms():
    """The quantile levels gamma_n = g(1/n) of the quantile normalizers
    reproduce the closed forms to a relative 1e-9: n for the reciprocal
    shape, log n for the logarithmic one, across five decades."""
    shape_pow = GShape(GKind.G2, alpha=1.0)
    shape_log = GShape(GKind.G1)
    for n in (10, 10**2, 10**3, 10**4, 10**5, 10**6):
        got = 1.0 / evl.quantile_normalizers(shape_pow, n).a
        assert abs(got - n) <= 1e-9 * n
        got = evl.quantile_normalizers(shape_log, n).b
        assert abs(got - math.log(n)) <= 1e-9 * math.log(n)


# ------------------------------------------------------- information rates


def test_information_rate_uniform_exact_and_bernoulli_sampled(tent_ctx):
    """Cell-mass information rates: exactly log 2 at every depth for the
    tent with Lebesgue; within 0.05 of 0.6109 at depth 2000 for
    Bernoulli(0.3), averaged over 100 centers drawn from the measure; the
    cell-mass/Birkhoff-sum envelope is exactly 1 in both cases."""
    for depth in (1, 2, 7, 33, 200, 2000):
        assert smb_estimate(tent_ctx, ZETA, depth) == math.log(2.0)

    p = 0.3
    reference = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    assert abs(reference - 0.6109) <= 5e-4

    bern = BernoulliDoubling(p)
    ctx = PartitionContext(DOUBLING, bern, max_depth=2100)
    depth = 2000
    gen = substream(SEED, "gate-rate-centers")
    rates = []
    for _ in range(100):
        idx = 0
        for u in gen.random(depth):
            idx = (idx << 1) | (1 if u >= p else 0)
        from fractions import Fraction

        center = Fraction(2 * idx + 1, 1 << (depth + 1))
        rates.append(smb_estimate(ctx, center, depth))
    assert abs(float(np.mean(rates)) - 0.6109) <= 0.05

    assert gibbs_envelope(tent_ctx, ZETA, 300,
                          (math.log(0.5), math.log(0.5))) == 1.0
    assert gibbs_envelope(ctx, ZETA, 300,
                          (math.log(p), math.log(1 - p))) == 1.0


# ------------------------------------------------ short-return diagnostic


def test_periodic_center_short_return_excess(doubling_ctx):
    """The short-return statistic at the fixed point 0 exceeds the generic
    center's by a factor >= 10 (block length 1000, window 10, 100000
    samples), and the generic center reads as noise."""
    periodic = cylinder_target(doubling_ctx, 0.0, 10)
    generic = cylinder_target(doubling_ctx, ZETA, 10)
    at_zero = dprime_estimate(
        DOUBLING, LEB_DBL, periodic, block_n=1000, k=10, n_samples=100000,
        seed=SEED, labels=("gate-short-periodic",),
    )
    at_generic = dprime_estimate(
        DOUBLING, LEB_DBL, generic, block_n=1000, k=10, n_samples=100000,
        seed=SEED, labels=("gate-short-generic",),
    )
    assert at_zero.estimate >= 10.0 * at_generic.estimate
    assert at_generic.verdict == "ConsistentWithZero"


# ------------------------------------------------- return/hitting bridge


def test_return_law_integrates_to_hitting_law():
    """The hitting-time CDF recovered by integrating the return-time
    survival matches the directly sampled hitting CDF within 0.03 in sup
    norm (mass-0.001 ball, 10000 samples per side)."""
    target = ball_target(LEB_DBL, ZETA, mass=0.001)
    cap = default_cap(target.mass)
    hit = sample_hit_times(
        DOUBLING, target, cap=cap, n_samples=10000, seed=SEED,
        labels=("gate-bridge-hit",), measure=LEB_DBL,
    )
    ret = sample_hit_times(
        DOUBLING, target, cap=cap, n_samples=10000, seed=SEED,
        labels=("gate-bridge-ret",), conditional=True, measure=LEB_DBL,
    )
    grid = np.linspace(0.1, 3.0, 30)
    assert compare_hts_rts(hit.law(), ret.law(), grid) <= 0.03


# --------------------------------------------------- rotation non-example


def test_rotation_cylinder_hitting_law_is_not_exponential():
    """Golden rotation, cylinder depth 13 (a continued-fraction
    denominator): the normalized hitting law stays at KS distance >= 0.1
    from the unit exponential at 10000 samples, and the conditional
    return time takes at most three distinct values."""
    assert 13 in {q for _, q in golden_convergents()}
    rot = rotation("golden")
    ctx = PartitionContext(rot, Lebesgue1D(rot.metric), max_depth=15)
    target = cylinder_target(ctx, 0.0, 13)
    cap = default_cap(target.mass)
    hit = sample_hit_times(
        rot, target, cap=cap, n_samples=10000, seed=SEED,
        labels=("gate-rotation",),
    )
    assert hit.n_censored == 0
    assert ks_statistic(hit.law(), exponential_cdf) >= 0.1

    ret = sample_hit_times(
        rot, target, cap=cap, n_samples=10000, seed=SEED,
        labels=("gate-rotation",), conditional=True,
    )
    assert len(np.unique(ret.times[ret.hit])) <= 3


# ------------------------------------------------ thread-count invariance


def test_summary_reports_are_thread_count_invariant(tmp_path):
    """Re-running an experiment with the same config and seed on 1 and 8
    threads produces byte-identical reports."""
    config = tmp_path / "kac.cfg"
    config.write_text(
        "system.kind = full_tent\n"
        "observable.zeta = 1.0\n"
        "hts.target = cylinder\n"
        "hts.depth_list = 10\n"
        "hts.samples = 10000\n"
    )
    outputs = []
    for threads in (1, 8):
        out = tmp_path / f"threads-{threads}"
        code = cli.main([
            "kac", "--config", str(config), "--seed", str(SEED),
            "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        outputs.append(out)
    one, eight = outputs
    for name in ("summary.json", "data.csv", "plot.csv"):
        assert (one / name).read_bytes() == (eight / name).read_bytes()
    summary = json.loads((one / "summary.json").read_text())
    assert summary["verdict"] == "PASS"
