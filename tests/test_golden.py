"""Golden corpus: the report bytes of one small config per experiment.

``golden/<experiment>.cfg`` holds the configs and ``golden/sha256.json``
the SHA-256 of each run's ``summary.json``, ``data.csv`` and ``plot.csv``.
Every run must reproduce those hashes on 1, 2 and 3 threads.  A refactor
leaves them unchanged; a change that moves the RNG stream or the report
format on purpose regenerates them in the same change, and says which
bytes moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from evlhts.cli import main
from evlhts.experiments import EXPERIMENTS

GOLDEN = pathlib.Path(__file__).with_name("golden")
HASHES = GOLDEN / "sha256.json"
REPORT_FILES = ("summary.json", "data.csv", "plot.csv")


def report_hashes(experiment, out_dir, threads=1):
    """Run one golden config through the CLI; file name -> SHA-256."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([experiment, "--config", str(GOLDEN / f"{experiment}.cfg"),
                     "--out", str(out_dir), "--threads", str(threads)])
    assert code in (0, 1), f"{experiment} exited {code}"
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in REPORT_FILES}


def test_corpus_covers_every_experiment():
    assert sorted(json.loads(HASHES.read_text())) == sorted(EXPERIMENTS)
    assert sorted(p.stem for p in GOLDEN.glob("*.cfg")) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_report_bytes_match_golden(experiment, threads, tmp_path):
    want = json.loads(HASHES.read_text())[experiment]
    assert report_hashes(experiment, tmp_path, threads) == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {e: report_hashes(e, pathlib.Path(tmp) / e)
                 for e in EXPERIMENTS}
    HASHES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HASHES}")
