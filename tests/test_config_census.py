"""Every config key is set by a golden config or a benchmark workload.

A key that no run ever sets can only hold its default: it is a knob
nothing measures.  This census reads the keys each ``golden/*.cfg`` sets
and the keys each step of every benchmark workload
(``benchmarks/workloads.build``) sets, and fails when a ``SCHEMA`` key is
set by neither and is not allow-listed below with a reason.
"""

import pathlib
import sys

import pytest

from evlhts.config import SCHEMA, parse_file

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
BENCHMARKS = ROOT / "benchmarks"

# Keys that no golden config or workload sets, one reason each.
ALLOWED = {
    "master_seed": "set by the CLI flag --seed",
    "threads": "set by the CLI flag --threads",
    "out_dir": "set by the CLI flag --out",
    "hts.tol": "a declared band, echoed in every hts and rts report",
    "kac.tol": "a declared band, echoed in every kac report",
    "smb.tol": "a declared band, echoed in every smb report",
    "rotation.ks_min": "a declared band, echoed in every rotation-subseq "
                       "report",
    "conditions.floor": "a declared band, echoed in every conditions report",
    "hts.t_grid": "the grid the time laws are tabulated on",
    "measure.burn_in": "read by benchmarks/setup_probe.py when it builds an "
                       "orbit measure; its removal waits for a change to "
                       "the benchmark",
}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
    return workloads


@pytest.fixture(scope="module")
def set_keys(workloads):
    """Every key some golden config or workload step sets."""
    keys = set()
    for path in sorted(GOLDEN.glob("*.cfg")):
        keys |= set(parse_file(str(path)))
    for name in workloads.NAMES:
        for step in workloads.build(name, 7).steps:
            keys |= set(step.config)
    return keys


def test_every_key_is_set(set_keys):
    assert sorted(set(SCHEMA) - set_keys - set(ALLOWED)) == []


def test_allow_list_is_current(set_keys):
    assert set(ALLOWED) <= set(SCHEMA)
    assert sorted(set(ALLOWED) & set_keys) == []
