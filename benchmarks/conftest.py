"""Shared fixtures for the per-figure benchmark harness.

Every bench regenerates one of the paper's tables/figures: it runs the
figure's workload/system/thread grid once, then prints the series and
writes it under ``benchmarks/results/`` so the output survives pytest's
capture.

Scale knobs (environment):

* ``REPRO_BENCH_SCALE``   — workload scale factor (default 0.25);
* ``REPRO_BENCH_THREADS`` — comma-separated thread counts (default
  ``2,8,32``; the paper sweeps 2,4,8,16,32).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness.experiments import ExperimentContext

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """One run cache shared by every figure in the session."""
    return ExperimentContext()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def publish(results_dir):
    """Print a figure's text and persist it to results/<name>.txt."""

    def _publish(name: str, text: str) -> None:
        print("\n" + text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _publish
