"""Serve one workload's datasets from a fresh process.

Usage (``run.py`` starts it, with the checkout's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py --workload NAME --seed N [--toy]
        [--spans PATH [--perturb]]

Builds the workload's datasets from the seed, registers them with a
``SessionRegistry``, serves a ``StabilityServer`` with the default
``ServerConfig`` on an ephemeral port and prints exactly one ready line
on stdout: ``READY {json}`` with the port, the pid, the seconds spent
importing the server and building the data, and each dataset's
fingerprint.  It then serves until a ``shutdown`` request (or SIGTERM)
drains it, or until its stdin reaches end of file (``run.py`` has
exited).  With ``--spans`` the timing wrappers of :mod:`tracer` are
installed before serving and the spans are written to PATH on exit;
``--perturb`` additionally damages every answer (self-test of the
answer oracle).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time


def orphan_watch(server) -> None:
    sys.stdin.buffer.read()
    server.request_shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    from repro.core.dataset import Dataset
    from repro.server import ServerConfig, SessionRegistry, StabilityServer
    from repro.service.cache import dataset_fingerprint

    import workloads

    t_build = time.perf_counter()
    registry = SessionRegistry(seed=workloads.SESSION_SEED)
    fingerprints = {}
    for name, values in workloads.build_values(
        args.workload, args.seed, toy=args.toy
    ).items():
        dataset = Dataset(values)
        registry.add_dataset(name, dataset)
        fingerprints[name] = dataset_fingerprint(dataset)
    t_built = time.perf_counter()
    if args.spans:
        import tracer

        tracer.install(perturb=args.perturb)
    server = StabilityServer(registry, config=ServerConfig())

    async def serve() -> None:
        host, port = await server.start()
        ready = {
            "port": port,
            "pid": os.getpid(),
            "import_s": t_build - t_import,
            "build_s": t_built - t_build,
            "fingerprints": fingerprints,
        }
        sys.stdout.write("READY " + json.dumps(ready) + "\n")
        sys.stdout.flush()
        # run.py holds our stdin open; end of file means it has exited.
        threading.Thread(target=orphan_watch, args=(server,), daemon=True).start()
        await server.serve_until_shutdown(install_signal_handlers=True)

    asyncio.run(serve())
    if args.spans:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
