"""Shared fixtures: the paper's running example and seeded generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset


@pytest.fixture
def paper_values() -> np.ndarray:
    """The 5-item HR example of Figure 1a (Example 2)."""
    return np.array(
        [
            [0.63, 0.71],  # t1
            [0.83, 0.65],  # t2
            [0.58, 0.78],  # t3
            [0.70, 0.68],  # t4
            [0.53, 0.82],  # t5
        ]
    )


@pytest.fixture
def paper_dataset(paper_values) -> Dataset:
    return Dataset(
        paper_values,
        item_labels=["t1", "t2", "t3", "t4", "t5"],
        attribute_names=["x1", "x2"],
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20181218)


@pytest.fixture
def rng_factory():
    """Factory for independent, deterministic generators."""

    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
