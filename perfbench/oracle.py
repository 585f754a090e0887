"""The answer oracle: a serial, in-process replay of what the server owes.

One ``StabilitySession`` per dataset (serial observe, the server's
session seed) answers every request through ``protocol.dispatch`` —
the function the TCP server runs — so an answer from the server must be
byte-identical to the oracle's ``result`` for the same request.  The
``seconds``, ``cached`` and ``cost`` fields of a response are timing
and provenance, not the answer, and are not compared.

The oracle also owns the vocabulary: the warm working set is drawn from
the oracle's own filled pools, which the server's pools equal sample
for sample.
"""

from __future__ import annotations

import json

import workloads


class OracleError(RuntimeError):
    """The oracle itself could not answer (a broken benchmark input)."""


def canonical(result) -> str:
    """One answer as the bytes both sides are compared on."""
    return json.dumps(result)


class Oracle:
    """Expected answers for one workload and seed.

    After construction:

    - ``vocab`` — the warm working set (request dicts), if any;
    - ``expected`` — ``{key: canonical result}`` for the keys the driver
      labels requests with: ``("warm", i)`` for vocabulary entry ``i``,
      ``"prime"`` for the priming cold query and ``("write", dataset)``
      for the timed cold query on each cold dataset.
    """

    def __init__(self, workload: str, seed: int, values: dict, *, toy: bool = False):
        from repro.core.dataset import Dataset
        from repro.server import protocol
        from repro.service.cache import dataset_fingerprint
        from repro.service.session import StabilitySession

        self._dispatch = protocol.dispatch
        self.spec = spec = workloads.sizes(workload, toy=toy)
        self.datasets = {name: Dataset(v) for name, v in values.items()}
        self.fingerprints = {
            name: dataset_fingerprint(ds) for name, ds in self.datasets.items()
        }
        self.sessions = {
            name: StabilitySession(
                ds, seed=workloads.SESSION_SEED, executor="serial"
            )
            for name, ds in self.datasets.items()
        }
        self.expected: dict = {}
        self.vocab: list[dict] = []
        warm = spec["warm_dataset"]
        self.expected["prime"] = self.answer(
            workloads.cold_query(spec, warm, spec["cold_budget"])
        )
        self.sessions[warm].invalidate()
        if "warm_keys" in spec:
            for request in workloads.pool_fills(spec, warm):
                self.answer(request)
            self.vocab = workloads.warm_vocabulary(
                spec, seed, self._pool_rankings(warm)
            )
            for i, request in enumerate(self.vocab):
                self.expected[("warm", i)] = self.answer(request)
        budget = spec.get("write_budget", spec["cold_budget"])
        for name in spec.get("cold_datasets", ()):
            if name == warm and budget == spec["cold_budget"]:
                # The priming query itself.
                self.expected[("write", name)] = self.expected["prime"]
            else:
                self.expected[("write", name)] = self.answer(
                    workloads.cold_query(spec, name, budget)
                )

    def answer(self, request: dict) -> str:
        name = request["dataset"]
        handled = self._dispatch(
            self.sessions[name], self.datasets[name], dict(request)
        )
        if not handled.response.get("ok"):
            raise OracleError(f"oracle failed {request}: {handled.response}")
        return canonical(handled.response["result"])

    def _pool_rankings(self, name: str) -> dict:
        """Each warm pool's distinct rankings, most frequent first."""
        session, k = self.sessions[name], self.spec["k"]
        out = {}
        for kind in ("topk_set", "topk_ranked"):
            tally = session.engine_for(kind, k, "randomized").backend.raw.tally
            out[kind] = [tally.unpack(key) for key in tally.top_keys(len(tally))]
        return out

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()
