"""benchmarks/setup_probe.py on every benchmark workload.

The probe rebuilds each step's map, measure and partition context through
their public constructors, and ``benchmarks/run.py`` calls it with
``check=True``, so a change to those constructors that breaks it fails
every benchmark run.  Each workload's configs are written as ``run.py``
writes them, and the probe runs once on them in a fresh interpreter.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
SEED = 7

sys.path.insert(0, str(BENCHMARKS))
try:
    import workloads
finally:
    sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_probe_times_every_workload(name, tmp_path):
    specs = []
    for step in workloads.build(name, SEED).steps:
        config = tmp_path / f"{step.tag}.cfg"
        config.write_text(workloads.config_text(step), encoding="utf-8")
        specs.append(f"{step.experiment}={config}")
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "setup_probe.py"), str(ROOT),
         str(SEED), *specs], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.split()
    assert len(printed) == 1 and float(printed[0]) > 0.0
