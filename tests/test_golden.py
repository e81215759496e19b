"""Golden corpus: the report bytes of small configs for every experiment.

``golden/<experiment>.cfg`` holds one base config per experiment, and
``golden/<experiment>+<variant>.cfg`` any further config of it that reaches
a path the base config does not.  ``golden/sha256.json`` maps each config's
name to the SHA-256 of its run's ``summary.json``, ``data.csv`` and
``plot.csv``.  Every run must reproduce those hashes on 1, 2 and 3
threads.  A refactor leaves them unchanged; a change that moves the RNG
stream or the report format on purpose regenerates them in the same
change, and says which bytes moved and why:

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
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def report_hashes(name, out_dir, threads=1):
    """Run one golden config through the CLI; file name -> SHA-256."""
    experiment = name.split("+", 1)[0]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([experiment, "--config", str(GOLDEN / f"{name}.cfg"),
                     "--out", str(out_dir), "--threads", str(threads)])
    assert code in (0, 1), f"{name} exited {code}"
    return {file: hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
            for file in REPORT_FILES}


def test_corpus_covers_every_experiment():
    assert sorted(json.loads(HASHES.read_text())) == CONFIGS
    assert sorted(c for c in CONFIGS if "+" not in c) == sorted(EXPERIMENTS)
    assert {c.split("+", 1)[0] for c in CONFIGS} <= set(EXPERIMENTS)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", CONFIGS)
def test_report_bytes_match_golden(name, threads, tmp_path):
    want = json.loads(HASHES.read_text())[name]
    assert report_hashes(name, tmp_path, threads) == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {c: report_hashes(c, pathlib.Path(tmp) / c) for c in CONFIGS}
    HASHES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HASHES}")
