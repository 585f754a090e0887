"""Shared helpers for the figure-reproduction benchmarks.

Every module in this directory regenerates one figure of the paper's
evaluation (section 6).  Conventions:

- benchmark functions are parametrised over the figure's x-axis
  (dataset size n, dimensionality d, cone width theta, ...);
- the measured operation is the figure's y-axis time where the figure
  reports time; figures that report stability series compute the series
  inside the benchmarked callable and assert the paper's qualitative
  shape (who wins, what trends up or down);
- series values are attached to ``benchmark.extra_info`` so they appear
  in the saved benchmark JSON, and printed (visible with ``-s``).

Sizes are scaled down from the paper where the original would take
hours in pure Python.
"""

from __future__ import annotations

import numpy as np
import pytest


def report(benchmark, **series) -> None:
    """Attach a result series to the benchmark record and print it."""
    for key, value in series.items():
        benchmark.extra_info[key] = value
    rows = ", ".join(f"{k}={v}" for k, v in series.items())
    print(f"\n  [{benchmark.name}] {rows}")


@pytest.fixture
def rng_factory():
    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
