"""README's ``## Library use`` block runs as written against the package."""

import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_prints_one_distance():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no ## Library use python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), str(README), "exec"), {})
    lines = out.getvalue().split()
    assert len(lines) == 1
    value = float(lines[0])
    assert math.isfinite(value) and 0.0 <= value <= 1.0
