"""evlhts benchmark: time to verdict on fixed workloads, through the CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root.  A run writes one config per experiment of
the workload (see workloads.py), then repeats the workload's sequence of
``evlhts`` CLI invocations with the same seed until ``--seconds`` have
passed (and at least ``min_reps`` times).  It checks that

* every verdict cell matches the verdict the paper predicts (a miss, or a
  step that raised, counts in ``failed``);
* every repetition reproduces the first one's report bytes, a traced
  sequence reproduces the untraced one, and in a traced run a workload with
  ``check_threads`` reproduces them at that thread count too (these decide
  ``correct``);
* each exit code agrees with its report's verdict.

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds of
the sequence, the median of several set-up probes, and peak resident
memory.  ``--trace 1`` follows every untraced step with a traced rerun of
it and reports the per-layer metrics of spans.py, per sequence.  The last
line of standard output is the JSON result.  Scratch files go to
``.bench_work/`` under the repository root.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# Set-up probes per run, half before the timed sequences and half after, so
# that one slow stretch of the machine does not decide their median.
SETUP_PROBES = 6
REPORT_FILES = ("summary.json", "data.csv", "plot.csv")
# Time of calibrate() at the machine speed the bounds were set at.  Timings
# are reported at this speed: see calibrate().
CALIBRATION_REF_S = 0.03

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


@dataclass
class Sequence:
    """One pass over a workload's steps."""

    step_s: dict = field(default_factory=dict)   # tag -> wall seconds
    step_cpu: dict = field(default_factory=dict)  # tag -> process CPU seconds
    speed: dict = field(default_factory=dict)    # tag -> machine speed, 1 = reference
    codes: dict = field(default_factory=dict)    # tag -> exit code or exception
    reports: dict = field(default_factory=dict)  # tag -> {file: bytes or None}

    @property
    def measured_wall_s(self) -> float:
        return sum(self.step_s.values())

    @property
    def wall_s(self) -> float:
        """Wall seconds at the reference machine speed."""
        return sum(t * self.speed[tag] for tag, t in self.step_s.items())

    @property
    def cpu_s(self) -> float:
        """CPU seconds at the reference machine speed."""
        return sum(t * self.speed[tag] for tag, t in self.step_cpu.items())


def _import_program():
    """Import evlhts from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import evlhts

    where = Path(evlhts.__file__).resolve().parent
    if where != ROOT / "src" / "evlhts":
        raise ImportError(f"evlhts imported from {where}, not from this checkout")


def calibrate() -> float:
    """Seconds for a fixed loop that shares no code with evlhts.

    The loop mixes what the program spends its time on: small numpy
    operations on 2048-element arrays, as the engine kernels run them per
    orbit step, and a pure-Python loop, as the drivers run.  The machine
    this benchmark was tuned on shares its cores: its speed drifts by 25%
    and more over minutes, and by as much between seconds.  Every timing is
    therefore scaled by CALIBRATION_REF_S over the mean of this loop's time
    just before and just after it, which reports it at one fixed machine
    speed.  In a test that alternated this loop 246 times with a 0.3 s
    evl-cylinders run, the run's time correlated with the loop's at 0.90,
    and scaling cut the quartile spread of the run's time from 0.35 to 0.08
    of its median.
    """
    lanes = np.random.default_rng(0).random(2048)
    best = np.ones(2048)
    start = time.perf_counter()
    for _ in range(3000):
        v = lanes * 2.0
        v -= v >= 1.0
        np.minimum(best, v, out=best)
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def _speed(before: float, after: float) -> float:
    return CALIBRATION_REF_S / (0.5 * (before + after))


def _invoke(seq: Sequence, step, config: Path, out_dir: Path, seed: int,
            threads: int, calibration: float) -> float:
    """Run one step; return the calibration time measured after it."""
    from evlhts import cli

    argv = [step.experiment, "--config", str(config), "--seed", str(seed),
            "--threads", str(threads), "--out", str(out_dir)]
    start, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            seq.codes[step.tag] = cli.main(argv)
        except Exception as exc:  # the step's cells fail; the run goes on
            seq.codes[step.tag] = f"{type(exc).__name__}: {exc}"
    seq.step_s[step.tag] = time.perf_counter() - start
    seq.step_cpu[step.tag] = time.process_time() - cpu
    after = calibrate()
    seq.speed[step.tag] = _speed(calibration, after)
    seq.reports[step.tag] = {
        name: (out_dir / name).read_bytes() if (out_dir / name).exists()
        else None for name in REPORT_FILES}
    shutil.rmtree(out_dir, ignore_errors=True)
    return after


def run_sequence(wl, configs, out_dir: Path, seed: int, threads: int,
                 tracer=None):
    """Run every step once; return (untraced, traced or None).

    With a tracer each step runs twice back to back, untraced and then
    traced, so that both see the same stretch of machine speed.
    """
    plain = Sequence()
    traced = None if tracer is None else Sequence()
    calibration = calibrate()
    for step in wl.steps:
        calibration = _invoke(plain, step, configs[step.tag], out_dir, seed,
                              threads, calibration)
        if tracer is not None:
            with tracer.installed():
                calibration = _invoke(traced, step, configs[step.tag], out_dir,
                                      seed, threads, calibration)
    return plain, traced


def score(wl, seq: Sequence):
    """(cells attempted, cells missing their predicted verdict, reports
    well formed, one line per miss)."""
    attempted = failed = 0
    well_formed = True
    misses = []
    for step in wl.steps:
        attempted += len(step.expect)
        code = seq.codes[step.tag]
        summary = seq.reports[step.tag]["summary.json"]
        got = {}
        if code in (0, 1):
            if summary is None:
                well_formed = False
            else:
                got = workloads.report_cells(step.experiment, summary)
                passed = json.loads(summary)["verdict"] == "PASS"
                well_formed &= (code == 0) == passed
                well_formed &= set(got) == set(step.expect)
        for label, want in step.expect.items():
            have = got.get(label, f"exit {code}")
            if have != want:
                failed += 1
                misses.append(f"{step.tag} [{label}]: predicted {want}, got {have}")
    return attempted, failed, well_formed, misses


def setup_seconds(wl, configs, seed: int) -> tuple:
    """(set-up seconds at the reference speed, as measured) of one probe."""
    specs = [f"{step.experiment}={configs[step.tag]}" for step in wl.steps]
    before = calibrate()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(seed),
         *specs], capture_output=True, text=True, timeout=120, check=True)
    measured = float(proc.stdout.strip().splitlines()[-1])
    return measured * _speed(before, calibrate()), measured


def environment(seed: int) -> dict:
    import evlhts

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "evlhts": evlhts.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    wl = workloads.build(name, seed)
    run_id = f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    run_dir = WORK / run_id
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        (run_dir / "configs").mkdir(parents=True)
        configs = {}
        for step in wl.steps:
            configs[step.tag] = run_dir / "configs" / f"{step.tag}.cfg"
            configs[step.tag].write_text(workloads.config_text(step),
                                         encoding="utf-8")

        probes = 0 if trace else SETUP_PROBES // 2
        setups = [setup_seconds(wl, configs, seed) for _ in range(probes)]
        tracer = None
        if trace:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
        seqs, traced = [], []
        start = time.perf_counter()
        while len(seqs) < wl.min_reps or time.perf_counter() - start < seconds:
            plain, traced_seq = run_sequence(wl, configs, run_dir / "out", seed,
                                             wl.threads, tracer)
            seqs.append(plain)
            if traced_seq is not None:
                traced.append(traced_seq)
        setups += [setup_seconds(wl, configs, seed) for _ in range(probes)]
        first = seqs[0]
        checks = {}
        if len(seqs) > 1:
            checks[f"{len(seqs)} same-seed repetitions give the same reports"] = \
                all(s.reports == first.reports for s in seqs[1:])
        if traced:
            checks["traced sequences give the untraced reports"] = \
                all(s.reports == first.reports for s in traced)
        if trace and wl.check_threads is not None:
            other, _ = run_sequence(wl, configs, run_dir / "out", seed,
                                    wl.check_threads)
            checks[f"{wl.threads} and {wl.check_threads} threads give the "
                   "same reports"] = other.reports == first.reports
        attempted, failed, well_formed, misses = score(wl, first)
        checks["exit codes and cells agree with the reports"] = well_formed

        if trace:
            tracer.write(results_dir / f"{run_id}.spans.json")
            metrics = layer_metrics(
                tracer.spans, len(traced),
                sum(s.measured_wall_s for s in traced),
                sum(s.wall_s for s in traced) / sum(s.wall_s for s in seqs))
            measured = {}
        else:
            metrics = {
                "wall_s": (statistics.median(s.wall_s for s in seqs), "s"),
                "cpu_s": (statistics.median(s.cpu_s for s in seqs), "s"),
                "setup_s": (statistics.median(p[0] for p in setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
            }
            measured = {
                "wall_s": statistics.median(s.measured_wall_s for s in seqs),
                "cpu_s": statistics.median(sum(s.step_cpu.values())
                                           for s in seqs),
                "setup_s": statistics.median(p[1] for p in setups),
            }
        speed = statistics.median(v for s in seqs for v in s.speed.values())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = all(checks.values())
    env = environment(seed)
    print(f"workload {name}: {len(seqs)} repetition(s) of {len(wl.steps)} "
          f"steps on {wl.threads} thread(s), seed {seed}")
    for step in wl.steps:
        step_s = statistics.median(s.step_s[step.tag] for s in seqs)
        print(f"  step {step.tag} ({step.experiment}): {step_s:.3f} s untraced")
    print(f"machine speed {speed:.3f} of the reference (median over steps); "
          "times below are at the reference speed")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value!r} {unit}")
    for metric, value in measured.items():
        print(f"  {metric} as measured = {value!r} s")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted!r} "
          "(verdict cells missing the paper's prediction / cells attempted)")
    for miss in misses:
        print(f"  miss: {miss}")
    for check, ok in checks.items():
        print(f"check: {check}: {'ok' if ok else 'FAILED'}")
    print("environment: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(results_dir / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "measured": measured, "machine_speed": speed,
                   "environment": env, "checks": checks, "misses": misses},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        code = 0
        for name in workloads.NAMES:
            code = max(code, subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)]).returncode)
        return code
    try:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
