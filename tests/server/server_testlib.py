"""Helpers for the network front-end suite (importable by its tests).

Servers run on a background thread with a real TCP socket (port 0 —
the OS picks), so these tests exercise the exact production stack:
asyncio framing, executor dispatch, session locks, drain.  Budgets are
kept small; the whole directory must stay fast-tier.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro import Dataset
from repro.server import ServerConfig, SessionRegistry, serve_in_thread


def make_dataset(n: int = 120, d: int = 3, seed: int = 20180905) -> Dataset:
    return Dataset(np.random.default_rng(seed).uniform(size=(n, d)))


@contextlib.contextmanager
def running_server(
    dataset: Dataset,
    *,
    state_dir=None,
    seed: int = 7,
    datasets: dict | None = None,
    max_active: int = 8,
    registry_fields: dict | None = None,
    **config_fields,
):
    """A served registry; yields the :class:`~repro.server.ServerHandle`.

    ``datasets`` maps extra names to datasets; ``dataset`` is always
    registered as ``"default"``.  ``registry_fields`` override the
    registry's session parameters (e.g. ``executor="thread"``).  The
    server is drained on exit.
    """
    registry = SessionRegistry(
        state_dir=state_dir,
        seed=seed,
        max_active=max_active,
        **{"executor": "serial", **(registry_fields or {})},
    )
    registry.add_dataset("default", dataset)
    for name, extra in (datasets or {}).items():
        registry.add_dataset(name, extra)
    handle = serve_in_thread(registry, config=ServerConfig(**config_fields))
    try:
        yield handle
    finally:
        if handle.thread.is_alive():
            handle.stop()
