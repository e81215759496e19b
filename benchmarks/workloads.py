"""The benchmark's workloads: which CLI experiments each one runs, on which
configs, and the verdict the paper predicts for every cell they report.

Sample sizes and tolerances are the acceptance gate's (tests/test_acceptance.py);
they are the fixed workload and are never tuned for speed.  The seed given to
the benchmark becomes every experiment's ``--seed``, and it also draws the
Bernoulli(0.3)-distributed ball centre of ``ball-scan``.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

BERNOULLI_P = 0.3
SKEW_Y_GRID = "0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0"
TAUS = (0.5, 1.0, 2.0)
CONDITIONS_GAP = math.ceil(1000 ** 0.7)  # the conditions driver's default gap


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``evlhts <experiment> --config <tag>.cfg``."""

    tag: str
    experiment: str
    config: dict
    expect: dict  # cell label -> verdict the paper predicts


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    threads: int
    # Repetitions of the sequence a run makes at least; more follow until
    # --seconds have passed.  Every repetition must reproduce the first one's
    # report bytes.
    min_reps: int
    # Thread count of one extra, untimed, same-seed sequence that a traced
    # run makes; its reports must match (None: no cross-thread check).
    check_threads: int | None


def bernoulli_centre(seed: int) -> float:
    """Interior point of a depth-53 cell drawn from the Bernoulli(0.3) digit
    measure, as the gate draws its skewed-measure centre."""
    idx = 0
    for u in np.random.default_rng(seed).random(53):
        idx = (idx << 1) | int(u >= BERNOULLI_P)
    return (2 * idx + 1) / float(1 << 54)


def _tent_cylinders(tag: str, zeta: float) -> Step:
    return Step(tag, "evl-cylinders", {
        "system.kind": "full_tent", "observable.mode": "cylinder",
        "observable.type": "g2", "observable.zeta": zeta,
        "evl.n_list": 12, "evl.samples": 20000, "evl.tau_grid": "0.5, 1.0, 2.0",
        "evl.tol": 0.02,
    }, {f"depth=12 tau={tau!r}": "PASS" for tau in TAUS})


def _conditions(tag: str, zeta: float, recurrence: str) -> Step:
    return Step(tag, "conditions", {
        "system.kind": "doubling", "observable.zeta": zeta,
        "cylinders.max_depth": 10, "conditions.block_len": 1000,
        "conditions.k_list": 10, "conditions.samples": 100000,
    }, {"recurrence 10": recurrence,
        f"mixing-gap {CONDITIONS_GAP}": "ConsistentWithZero"})


def _cylinder_steps() -> tuple:
    return (
        _tent_cylinders("tent-cylinders-1", 1.0),
        _tent_cylinders("tent-cylinders-half", 0.5),
        Step("tent-kac", "kac", {
            "system.kind": "full_tent", "observable.zeta": 1.0,
            "hts.target": "cylinder", "hts.depth_list": 10,
            "hts.samples": 10000,
        }, {"depth=10": "PASS"}),
        # The fixed point 0 has short returns, so the D' statistic must read
        # as elevated there (the paper's periodic case) and as noise at 0.3.
        _conditions("conditions-periodic", 0.0, "Elevated"),
        _conditions("conditions-generic", 0.3, "ConsistentWithZero"),
    )


def _ball_steps(seed: int) -> tuple:
    centre = bernoulli_centre(seed)
    skew = {"system.kind": "doubling", "measure.kind": "bernoulli",
            "measure.p": BERNOULLI_P, "observable.type": "g2",
            "observable.zeta": centre, "evl.n_list": 5000,
            "evl.samples": 10000}
    ball = {"system.kind": "doubling", "hts.target": "ball",
            "observable.zeta": 0.3, "hts.mass_list": 0.001,
            "hts.samples": 10000}
    return (
        Step("skew-equivalence", "equivalence",
             {**skew, "hts.samples": 10000, "evl.y_grid": SKEW_Y_GRID,
              "equivalence.tol": 0.04},
             {"sup": "PASS"}),
        Step("skew-maxima-g2", "evl-balls",
             {**skew, "evl.y_grid": "linspace:0.1:5.0:25", "evl.tol": 0.03},
             {"n=5000": "PASS"}),
        Step("lebesgue-maxima-g1-iid", "evl-balls", {
            "system.kind": "doubling", "observable.type": "g1",
            "observable.zeta": 0.3, "evl.n_list": 5000, "evl.samples": 10000,
            "evl.iid_mode": "true", "evl.y_grid": "linspace:-2.0:4.0:25",
            "evl.tol": 0.03,
        }, {"n=5000": "PASS"}),
        Step("ball-hts", "hts", ball, {"mass=0.001": "PASS"}),
        Step("ball-rts", "rts", ball, {"mass=0.001": "PASS"}),
    )


def _orbit_steps() -> tuple:
    return (
        # The paper predicts an exponential hitting law here.  The cell
        # misses its 0.03 KS band at seed 42 (ROADMAP item 5); it stays in
        # the workload and counts as failed while it does.
        Step("intermittent-hts", "hts", {
            "system.kind": "manneville_pomeau", "system.s": 0.5,
            "measure.kind": "orbit", "hts.target": "ball",
            "hts.mass_list": 0.001, "hts.samples": 10000,
        }, {"mass=0.001": "PASS"}),
        Step("rotation-subseq", "rotation-subseq", {
            "system.kind": "rotation", "system.alpha": "golden",
            "observable.zeta": 0.0, "hts.depth_list": 13,
            "hts.samples": 10000, "cylinders.max_depth": 15,
        }, {"depth=13": "PASS"}),
        Step("skew-smb", "smb", {
            "system.kind": "doubling", "measure.kind": "bernoulli",
            "measure.p": BERNOULLI_P, "smb.depth_list": 2000,
            "smb.samples": 100, "cylinders.max_depth": 2100,
        }, {"depth=2000": "PASS"}),
    )


NAMES = ("cylinder-scan", "ball-scan", "orbit-exact", "cylinder-scan-2t")


def build(name: str, seed: int) -> Workload:
    if name == "cylinder-scan":
        # Its same-seed and cross-thread reruns are the traced runs of both
        # cylinder workloads: a second pass here would add about 20 s (30 s
        # when the machine is slow) to every untraced run.
        return Workload(name, _cylinder_steps(), 1, 1, None)
    if name == "cylinder-scan-2t":
        return Workload(name, _cylinder_steps(), 2, 1, 1)
    if name == "ball-scan":
        return Workload(name, _ball_steps(seed), 1, 2, None)
    if name == "orbit-exact":
        return Workload(name, _orbit_steps(), 1, 2, None)
    raise ValueError(f"unknown workload {name!r}; choose one of {NAMES}")


def config_text(step: Step) -> str:
    return "".join(f"{key} = {value}\n" for key, value in step.config.items())


def report_cells(experiment: str, summary_text: str) -> dict:
    """Cell label -> verdict, read from one experiment's summary.json."""
    summary = json.loads(summary_text)
    results = summary["results"]
    if experiment == "evl-cylinders":
        return {f"depth={c['depth']} tau={c['tau']!r}": c["verdict"]
                for c in results["cells"]}
    if experiment in ("kac", "hts", "rts"):
        return {t["target"]: t["verdict"] for t in results["targets"]}
    if experiment == "conditions":
        return {f"{e['condition']} {e['parameter']}": e["verdict"]
                for e in results["estimates"]}
    if experiment == "evl-balls":
        return {f"n={e['n']}": e["verdict"] for e in results["per_n"]}
    if experiment in ("smb", "rotation-subseq"):
        return {f"depth={e['depth']}": e["verdict"]
                for e in results["per_depth"]}
    if experiment == "equivalence":
        return {"sup": summary["verdict"]}
    raise ValueError(f"no cell reader for {experiment!r}")
