"""Shared fixtures.

The wave-optics runs on the reference scenario are expensive, so they are
session scoped and reused by both the designer tests and the acceptance
gate. Each heavyweight fixture records its own wall time for the budget
checks.
"""

import collections
import time
from pathlib import Path

import numpy as np
import pytest

from ionoptics import cli, crosstalk_matrix, load_scenario, simulate_channel, wavefield

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def build_pipeline(scenario):
    """Scenario -> crystal, waveguide plan, and lens prescription, from the
    CLI's own front half."""
    crystal, array, outcoupling, prescription, _ = cli._build_pipeline(scenario)
    return {
        "scenario": scenario,
        "crystal": crystal,
        "positions": array.positions_m,
        "array": array,
        "outcoupling": outcoupling,
        "prescription": prescription,
    }


@pytest.fixture(scope="session")
def reference_scenario():
    return load_scenario(str(SCENARIO_DIR / "reference.json"))


@pytest.fixture(scope="session")
def compact_scenario():
    return load_scenario(str(SCENARIO_DIR / "compact.json"))


@pytest.fixture(scope="session")
def reference_pipeline(reference_scenario):
    return build_pipeline(reference_scenario)


@pytest.fixture(scope="session")
def compact_pipeline(compact_scenario):
    return build_pipeline(compact_scenario)


@pytest.fixture(scope="session")
def reference_center(reference_pipeline):
    """Full-grid focus search for the channel nearest the optical axis."""
    pipe = reference_pipeline
    centre = int(np.argmin(np.abs(pipe["positions"])))
    start = time.perf_counter()
    focus = simulate_channel(
        pipe["prescription"],
        pipe["array"],
        centre,
        pipe["scenario"].mirror,
        grid=pipe["scenario"].grid,
    )
    elapsed = time.perf_counter() - start
    return {"channel": centre, "focus": focus, "elapsed_s": elapsed}


@pytest.fixture(scope="session")
def reference_crosstalk(reference_pipeline):
    """Full crosstalk matrix for the ten-channel reference scenario."""
    pipe = reference_pipeline
    start = time.perf_counter()
    report = crosstalk_matrix(
        pipe["prescription"],
        pipe["array"],
        pipe["crystal"],
        pipe["scenario"].mirror,
        grid=pipe["scenario"].grid,
    )
    elapsed = time.perf_counter() - start
    return {"report": report, "elapsed_s": elapsed}


@pytest.fixture(scope="session")
def compact_channels(compact_pipeline):
    """Per-channel focus results for the three-channel compact scenario."""
    pipe = compact_pipeline
    return [
        simulate_channel(
            pipe["prescription"],
            pipe["array"],
            channel,
            pipe["scenario"].mirror,
            grid=pipe["scenario"].grid,
        )
        for channel in range(pipe["array"].channel_count)
    ]


class TransformCalls(list):
    """One (inverse, pruned) pair per wavefield._fft2 call, in order, and
    `forms`, a count of the calls by (direction, form, profile).

    pruned: the call names column blocks (columns is not None), and their
    widths sum to less than the grid width or it names the rows of its
    axis-1 pass (rows is not None). direction is "fft" or "ifft"; form is
    "whole" (no columns), "axis 1" (no column block), "2-d" (column blocks,
    then every row), "some rows" (column blocks, then the rows named) or
    "axis 0" (column blocks, no row); profile: the input is a 1-d profile,
    a grid of one row or one column."""

    def __init__(self):
        super().__init__()
        self.forms = collections.Counter()

    def record(self, samples, inverse, columns, rows):
        nx = samples.shape[1]
        pruned = columns is not None and (
            sum(len(range(nx)[c]) for c in columns) < nx or rows is not None
        )
        self.append((inverse, pruned))
        if columns is None:
            form = "whole"
        elif not columns:
            form = "axis 1"
        elif rows is None:
            form = "2-d"
        else:
            form = "some rows" if rows else "axis 0"
        self.forms["ifft" if inverse else "fft", form, 1 in samples.shape] += 1


@pytest.fixture
def fft_calls(monkeypatch):
    """TransformCalls that grows by one entry for every 2-d transform or
    pass of one (wavefield._fft2 call)."""
    calls = TransformCalls()
    transform = wavefield._fft2

    def counted(samples, inverse, columns=None, rows=None):
        calls.record(samples, inverse, columns, rows)
        return transform(samples, inverse, columns, rows)

    monkeypatch.setattr(wavefield, "_fft2", counted)
    return calls
