"""The trace harness in benchmarks/spans.py against the names it wraps.

``benchmarks/run.py --trace 1`` wraps kernels and layer functions by name
and reads their arguments to count lane-steps, so a renamed function or
argument breaks tracing without failing any other test.
"""

import inspect
import pathlib
import sys

import pytest

from evlhts import engine

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCHMARKS))
    return spans


def test_tracer_wraps_the_kernels_it_counts(spans):
    original = engine.word_first_hit
    with spans.Tracer().installed():
        assert engine.word_first_hit is not original
        for kernel in spans.FIRST_HIT_KERNELS:
            params = inspect.signature(getattr(engine, kernel)).parameters
            assert {"count", "cap", "start_j"} <= set(params), kernel
        for kernel, steps_arg in spans.WINDOW_KERNELS.items():
            params = inspect.signature(getattr(engine, kernel)).parameters
            assert {"count", steps_arg} <= set(params), kernel
    assert engine.word_first_hit is original
