"""The pairing of maps and measures, read end to end from one table.

``PAIRS`` states which ``measure.kind`` each ``system.kind`` takes.  For
every pair, a tiny ``evl-balls`` run either runs or exits 2 with a message
naming ``measure.kind``, and the library's entry points -- the measure's
own constructor, ``PartitionContext``, ``hts.first_hits`` and
``evl.sample_ball_min_distances`` -- refuse exactly the pairs the table
refuses, with ``UnsupportedCombination``.  They also refuse a measure whose
metric is not the map's: its balls would not be the map's; and
``hts.first_hits`` refuses a ball target laid out on another metric or by
another measure, and a ball target with no arc.
"""

import pytest

from evlhts import evl, hts
from evlhts.cli import main
from evlhts.cylinders import PartitionContext
from evlhts.errors import DomainError, UnsupportedCombination
from evlhts.measures import (MEASURES, BernoulliDoubling, EmpiricalOrbit,
                             Lebesgue1D)
from evlhts.observables import BallObservable, GKind, GShape
from evlhts.systems import (MapKind, Metric, doubling, full_tent,
                            manneville_pomeau, rotation)

PAIRS = {
    "full_tent": {"lebesgue"},
    "doubling": {"lebesgue", "bernoulli"},
    "rotation": {"lebesgue"},
    "manneville_pomeau": {"orbit"},
}
SYSTEMS = {"full_tent": full_tent(), "doubling": doubling(),
           "rotation": rotation("golden"),
           "manneville_pomeau": manneville_pomeau(0.5)}
CASES = [(system, measure, p) for system in PAIRS for measure in MEASURES
         for p in ((0.3, 0.5) if measure == "bernoulli" else (None,))]
IDS = [f"{s}-{m}" + ("" if p is None else f"-{p}") for s, m, p in CASES]
ORBIT = EmpiricalOrbit(SYSTEMS["manneville_pomeau"], orbit_len=20_000,
                       burn_in=100)
#: [0.275, 0.325), the ball of radius 0.025 around 0.3 on either metric
ARCS = ((int(0.275 * 2 ** 128), int(0.325 * 2 ** 128)),)


def _ball(metric):
    """A bare ball target laid out on ``metric``."""
    return hts.TargetSet("ball", mass=0.05, zeta_value=0.3, arcs=ARCS,
                         metric=metric)


def test_the_measures_state_the_table():
    assert {kind.value: {name for name, cls in MEASURES.items()
                         if kind in cls.maps}
            for kind in MapKind} == PAIRS


@pytest.mark.parametrize("system, measure, p", CASES, ids=IDS)
def test_cli_runs_or_names_measure_kind(tmp_path, capsys, system, measure, p):
    lines = [f"system.kind = {system}", f"measure.kind = {measure}",
             "observable.type = g1", "observable.zeta = 0.3",
             "evl.n_list = 16", "evl.samples = 50", "evl.y_grid = 0.0, 1.0",
             "measure.orbit_len = 20000", "measure.burn_in = 100"]
    if p is not None:
        lines.append(f"measure.p = {p}")
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    code = main(["evl-balls", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if measure in PAIRS[system]:
        assert code in (0, 1), err
    else:
        assert code == 2
        assert f"measure.kind = {measure}" in err


def _measure(system, measure, p):
    """The library measure of a pair: the orbit measure is built once, on
    the intermittent map, and then offered to every map."""
    if measure == "orbit":
        return ORBIT
    if measure == "bernoulli" and p != 0.5:
        return BernoulliDoubling(p)
    return Lebesgue1D(SYSTEMS[system].metric)


def _refused(call) -> bool:
    try:
        call()
    except UnsupportedCombination:
        return True
    return False


@pytest.mark.parametrize("system, measure, p", CASES, ids=IDS)
def test_library_refuses_exactly_the_table(system, measure, p):
    allowed = measure in PAIRS[system]
    if measure == "bernoulli" and p == 0.5:  # built as Lebesgue
        allowed = "lebesgue" in PAIRS[system]
    sys_, mu = SYSTEMS[system], _measure(system, measure, p)
    if measure == "orbit":
        assert _refused(lambda: EmpiricalOrbit(sys_, orbit_len=10,
                                               burn_in=0)) is not allowed
    # no Markov partition for the intermittent map, whatever the measure
    assert _refused(lambda: PartitionContext(sys_, mu)) is not (
        allowed and sys_.kind is not MapKind.MANNEVILLE_POMEAU)
    assert _refused(lambda: hts.first_hits(
        sys_, _ball(sys_.metric), cap=20, n_samples=4, seed=1,
        labels=("pair",), measure=mu)) is not allowed
    obs = BallObservable(GShape(GKind.G1), mu, 0.3)
    assert _refused(lambda: evl.sample_ball_min_distances(
        obs, sys_, n_steps=5, n_samples=4, seed=1)) is not allowed


@pytest.mark.parametrize("system", ["full_tent", "doubling"])
def test_a_digit_run_needs_a_digit_measure(system):
    # no measure, or the orbit measure: refused, never an AttributeError
    target = _ball(SYSTEMS[system].metric)
    cell = hts.cylinder_target(
        PartitionContext(SYSTEMS[system], Lebesgue1D(SYSTEMS[system].metric)),
        0.3, 4)
    for mu in (None, ORBIT):
        with pytest.raises(UnsupportedCombination):
            hts.first_hits(SYSTEMS[system], target, cap=20, n_samples=4,
                           seed=1, labels=("pair",), measure=mu)
        with pytest.raises(UnsupportedCombination):
            hts.word_scan(SYSTEMS[system], mu, cell)


@pytest.mark.parametrize("system", ["full_tent", "doubling", "rotation"])
def test_library_refuses_a_measure_on_another_metric(system):
    # Lebesgue on the other metric than the map's: refused at every entry
    sys_ = SYSTEMS[system]
    other = (Metric.CIRCLE if sys_.metric is Metric.INTERVAL
             else Metric.INTERVAL)
    mu = Lebesgue1D(other)
    target = _ball(sys_.metric)
    with pytest.raises(UnsupportedCombination, match="measures balls on the"):
        hts.first_hits(sys_, target, cap=20, n_samples=4, seed=1,
                       labels=("pair",), measure=mu)
    obs = BallObservable(GShape(GKind.G1), mu, 0.3)
    with pytest.raises(UnsupportedCombination):
        evl.sample_ball_min_distances(obs, sys_, n_steps=5, n_samples=4,
                                      seed=1)
    with pytest.raises(UnsupportedCombination):
        PartitionContext(sys_, mu)
    # the map's own metric runs
    PartitionContext(sys_, Lebesgue1D(sys_.metric))


@pytest.mark.parametrize("system", ["full_tent", "doubling", "rotation",
                                    "manneville_pomeau"])
def test_first_hits_refuses_a_ball_laid_out_on_another_metric(system):
    sys_ = SYSTEMS[system]
    other = (Metric.CIRCLE if sys_.metric is Metric.INTERVAL
             else Metric.INTERVAL)
    mu = ORBIT if system == "manneville_pomeau" else Lebesgue1D(sys_.metric)
    with pytest.raises(UnsupportedCombination, match="not laid out on the"):
        hts.first_hits(sys_, _ball(other), cap=20, n_samples=4, seed=1,
                       labels=("pair",), measure=mu)


def test_a_circle_ball_is_no_tent_target():
    # The circle ball of mass 0.01 around 0.999 wraps across 0, which the
    # tent's interval does not: there the same radius holds mass 0.006, so
    # a tent run on it would take mean normalized times near 1.6, not 1.
    target = hts.ball_target(Lebesgue1D(Metric.CIRCLE), 0.999, 0.01)
    assert len(target.arcs) == 2
    with pytest.raises(UnsupportedCombination, match="not laid out on the"):
        hts.first_hits(full_tent(), target, cap=5000, n_samples=64, seed=1,
                       labels=("pair",), measure=Lebesgue1D(Metric.INTERVAL))
    # the interval ball of the same mass runs
    target = hts.ball_target(Lebesgue1D(Metric.INTERVAL), 0.999, 0.01)
    hts.first_hits(full_tent(), target, cap=50, n_samples=64, seed=1,
                   labels=("pair",), measure=Lebesgue1D(Metric.INTERVAL))


@pytest.mark.parametrize("system", ["doubling", "manneville_pomeau"])
def test_first_hits_refuses_a_ball_with_no_arc(system):
    # no ball_target builds one; a bare target did censor every digit lane
    # and failed to unpack on the intermittent map
    sys_ = SYSTEMS[system]
    mu = ORBIT if system == "manneville_pomeau" else Lebesgue1D(sys_.metric)
    target = hts.TargetSet("ball", mass=0.01, zeta_value=0.3, arcs=(),
                           metric=sys_.metric)
    with pytest.raises(DomainError, match="no arc"):
        hts.first_hits(sys_, target, cap=20, n_samples=4, seed=1,
                       labels=("pair",), measure=mu)


def test_first_hits_refuses_a_ball_laid_out_by_another_measure():
    # The Lebesgue ball of mass 0.01 around 0.05 holds orbit mass 0.0194:
    # normalized by 0.01, 4096 orbit hitting times (seed 1) read a mean of
    # 0.455, against 0.938 on the orbit's own ball.
    sys_ = manneville_pomeau(0.5)
    orbit = EmpiricalOrbit(sys_, master_seed=1, orbit_len=200_000,
                           burn_in=1000)
    lebesgue = hts.ball_target(Lebesgue1D(Metric.INTERVAL), 0.05, 0.01)
    assert lebesgue.measure == Lebesgue1D(Metric.INTERVAL)
    with pytest.raises(UnsupportedCombination, match="laid out by the"):
        hts.first_hits(sys_, lebesgue, cap=20, n_samples=4, seed=1,
                       labels=("pair",), measure=orbit)
    own = hts.ball_target(orbit, 0.05, 0.01)
    hts.first_hits(sys_, own, cap=20, n_samples=4, seed=1, labels=("pair",),
                   measure=orbit)
    # another orbit of the same map has other masses
    with pytest.raises(UnsupportedCombination, match="laid out by the"):
        hts.first_hits(sys_, own, cap=20, n_samples=4, seed=1,
                       labels=("pair",), measure=ORBIT)
    # on the doubling map both measures are invariant, with other masses
    skew = hts.ball_target(BernoulliDoubling(0.3), 0.3, 0.01)
    with pytest.raises(UnsupportedCombination, match="laid out by the"):
        hts.first_hits(doubling(), skew, cap=20, n_samples=4, seed=1,
                       labels=("pair",), measure=Lebesgue1D(Metric.CIRCLE))
    hts.first_hits(doubling(), skew, cap=20, n_samples=4, seed=1,
                   labels=("pair",), measure=BernoulliDoubling(0.3))
