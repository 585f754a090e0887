"""The unified stability engine: kernel, backends, dispatching facade.

- :mod:`repro.engine.kernel` — the vectorized ranking kernel every
  backend's hot path runs on (chunked BLAS scoring, bulk top-k
  extraction, byte-packed count keys, heap-backed best-unreturned);
- :mod:`repro.engine.kernels` — :class:`~repro.engine.kernels.KernelBackend`,
  the one chunk reduction (score, rank, pack, unique) every observe
  pass runs;
- :mod:`repro.engine.backends` — the backend protocol and registry
  (``twod_exact``, ``md_arrangement``, ``randomized``);
- :mod:`repro.engine.engine` — the :class:`StabilityEngine` facade
  with ``(d, n, kind, budget)`` auto-dispatch.

The kernel (and its chunk reduction) is imported eagerly; the
stability backends and facade load lazily on first attribute access
because they depend on :mod:`repro.core`, which itself routes its
randomized hot path through the kernel.
"""

from repro.engine import kernel, kernels

__all__ = [
    "kernel",
    "kernels",
    "StabilityEngine",
    "StabilityBackend",
    "register_backend",
    "create_backend",
    "available_backends",
    "resolve_backend",
]

_LAZY = {
    "StabilityEngine": "repro.engine.engine",
    "StabilityBackend": "repro.engine.backends",
    "register_backend": "repro.engine.backends",
    "create_backend": "repro.engine.backends",
    "available_backends": "repro.engine.backends",
    "resolve_backend": "repro.engine.backends",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
