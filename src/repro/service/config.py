"""The one object carrying every session dial.

A session's answers depend on four values: the sample stream (``seed``,
``sampling``), the default pool ``budget`` and the ``confidence`` of the
Equation 10/11 half-widths.  These are the **durable** fields: a
snapshot stores them, and a restore takes them from the snapshot header.
The other three change only speed and memory — every executor and
worker count produces byte-identical tallies — so they are **runtime**
fields, chosen afresh by whoever restores.

:class:`SessionConfig` names, defaults and validates all seven in one
place.  :class:`~repro.service.StabilitySession`,
:class:`~repro.server.SessionRegistry`,
:func:`~repro.service.persist.load_session` and the CLI carry one
instance; each also accepts the field names as keywords, merged over
``config=`` by :meth:`SessionConfig.of`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.service.budget import PrecisionBudget, parse_budget
from repro.service.parallel import EXECUTOR_MODES

__all__ = ["DURABLE", "RUNTIME", "SAMPLING_SCHEMES", "SessionConfig"]

#: Fields the answers depend on: stored in snapshots, restored from them.
DURABLE = ("seed", "confidence", "budget", "sampling")

#: Fields that trade only speed and memory: the restoring caller's choice.
RUNTIME = ("executor", "max_workers", "cache_size")

SAMPLING_SCHEMES = ("mc", "qmc")


@dataclass(frozen=True)
class SessionConfig:
    """Every dial of a :class:`~repro.service.StabilitySession`.

    Durable fields:

    ``seed``
        Reproducibility anchor.  Each query configuration derives an
        independent stream from ``(seed, kind, k, backend)``, so
        creation order does not matter.  ``None`` draws fresh entropy
        when a session is built.
    ``confidence``
        Confidence level of the Monte-Carlo error half-widths.
    ``budget``
        Default cumulative pool target per configuration, also the
        dispatch hint of ``backend="auto"``: a sample count or a
        ``"ci:WIDTH[@MAX]"`` precision spec (see
        :mod:`repro.service.budget`).  ``None`` means the paper's
        first-call budget of 5,000.
    ``sampling``
        ``"mc"`` (plain Monte-Carlo) or ``"qmc"`` (a randomised
        low-discrepancy stream; see
        :class:`repro.core.randomized.GetNextRandomized`).

    Runtime fields:

    ``executor``
        Observe executor: ``"serial"``, ``"thread"`` or ``"auto"``
        (picked per pass from the work size).
    ``max_workers``
        Worker-pool width; ``None`` means the usable cores minus one
        (:func:`repro.service.parallel.default_workers`).
    ``cache_size``
        Entries of the session's private result cache (``0`` disables
        it; ignored when a shared cache is passed).
    """

    seed: int | None = None
    confidence: float = 0.95
    budget: int | str | PrecisionBudget | None = None
    sampling: str = "mc"
    executor: str = "auto"
    max_workers: int | None = None
    cache_size: int = 512

    def __post_init__(self):
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if not 0.0 < float(self.confidence) < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence!r}")
        object.__setattr__(self, "budget", parse_budget(self.budget))
        if self.sampling not in SAMPLING_SCHEMES:
            raise ValueError(
                f"sampling must be one of {SAMPLING_SCHEMES}, got {self.sampling!r}"
            )
        if self.executor not in EXECUTOR_MODES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_MODES}, got {self.executor!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers!r}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size!r}")

    @classmethod
    def of(cls, config: SessionConfig | None = None, **fields) -> SessionConfig:
        """``config`` (default: all defaults) with ``fields`` replaced."""
        return dataclasses.replace(config if config is not None else cls(), **fields)
