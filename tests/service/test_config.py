"""SessionConfig: one validated object for every session dial.

Bad dials must fail where they are set — at construction, or as a CLI
usage error before anything is served — never on every later cold
query.  A restore takes the durable fields from the snapshot and the
runtime fields from the caller, and answers as if it never restarted.
"""

import io
import json

import numpy as np
import pytest

from repro import Dataset, SessionRegistry, StabilitySession
from repro.cli import main
from repro.service.config import DURABLE, RUNTIME, SessionConfig

BAD_DIALS = [
    # (fields, CLI flags naming the same values, or None without a flag)
    ({"executor": "thread", "max_workers": 0},
     ["--executor", "thread", "--workers", "0"]),
    ({"max_workers": -4}, ["--workers", "-4"]),
    ({"executor": "process"}, ["--executor", "process"]),
    ({"executor": "sometimes"}, ["--executor", "sometimes"]),
    ({"sampling": "psychic"}, ["--sampling", "psychic"]),
    ({"budget": 0}, ["--budget", "0"]),
    ({"budget": "ci:2"}, ["--budget", "ci:2"]),
    ({"cache_size": -1}, None),
    ({"confidence": 1.0}, None),
]


@pytest.fixture
def dataset():
    return Dataset(np.random.default_rng(8).uniform(size=(60, 3)))


@pytest.fixture
def batch_files(tmp_path, dataset):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(
        "\n".join(",".join(f"{v:.6f}" for v in row) for row in dataset.values)
    )
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps([
        {"op": "top_stable", "m": 1, "kind": "topk_set", "k": 3,
         "backend": "randomized", "budget": 200},
    ]))
    return str(csv_path), str(requests)


@pytest.mark.parametrize("fields, flags", BAD_DIALS)
def test_bad_dial_rejected_before_serving(
    fields, flags, dataset, batch_files, capsys
):
    with pytest.raises(ValueError):
        SessionConfig(**fields)
    with pytest.raises(ValueError):
        StabilitySession(dataset, **fields)
    with pytest.raises(ValueError):
        SessionRegistry(**fields)
    if flags is None:
        return
    csv_path, requests = batch_files
    with pytest.raises(SystemExit) as exit_info:
        main(["batch", csv_path, "--requests", requests, *flags])
    assert exit_info.value.code == 2  # argparse's usage-error status
    captured = capsys.readouterr()
    assert captured.out == ""  # no request was answered
    assert "usage:" in captured.err


def test_removed_kernel_dial_is_a_type_error(dataset):
    """There is one chunk reduction, so there is no kernel to choose:
    naming one fails loudly instead of being ignored."""
    with pytest.raises(TypeError):
        SessionConfig(kernel="numpy")
    with pytest.raises(TypeError):
        SessionConfig.of(SessionConfig(), kernel="numpy")
    with pytest.raises(TypeError):
        StabilitySession(dataset, kernel="numpy")
    with pytest.raises(TypeError):
        SessionRegistry(kernel="numpy")


@pytest.mark.parametrize("command", ["batch", "serve", "snapshot", "restore"])
def test_removed_kernel_flag_is_a_usage_error(
    command, batch_files, tmp_path, capsys
):
    csv_path, requests = batch_files
    required = {
        "batch": ["--requests", requests],
        "serve": [],
        "snapshot": ["--out", str(tmp_path / "s.snap")],
        "restore": ["--snapshot", str(tmp_path / "s.snap")],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, csv_path, *required, "--kernel", "numpy"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "--kernel" in captured.err
    assert not (tmp_path / "s.snap").exists()


def test_keywords_override_config():
    base = SessionConfig(seed=3, executor="serial", cache_size=8)
    merged = SessionConfig.of(base, executor="thread")
    assert (merged.seed, merged.executor, merged.cache_size) == (3, "thread", 8)
    assert base.executor == "serial"  # frozen: of() copies
    with pytest.raises(TypeError):
        SessionConfig.of(base, parallel=False)


def test_defaults():
    assert SessionConfig().executor == "auto"
    assert SessionConfig().cache_size == 512
    assert SessionRegistry().config.seed == 0
    with StabilitySession(Dataset(np.eye(3))) as a, \
            StabilitySession(Dataset(np.eye(3))) as b:
        # A bare session draws fresh entropy and records it.
        assert a.config.seed is not None
        assert a.config.seed != b.config.seed


def test_durable_and_runtime_partition_the_fields():
    import dataclasses

    names = [field.name for field in dataclasses.fields(SessionConfig)]
    assert sorted(DURABLE + RUNTIME) == sorted(names)
    assert not set(DURABLE) & set(RUNTIME)


def _pool(session):
    raw = session.engine_for("topk_set", 3, "randomized").backend.raw
    state = raw.tally.export_state()
    return state["keys"], state["counts"].tobytes(), raw.total_samples


def _answers(session):
    query = dict(kind="topk_set", k=3, backend="randomized")
    top = session.top_stable(3, **query)  # the durable default budget
    following = session.get_next(budget=1_500, **query)
    return [
        (r.ranking.order, r.top_k_set, r.stability, r.confidence_error,
         r.sample_count)
        for r in (*top, following)
    ]


def test_restore_takes_durable_fields_from_snapshot(dataset, tmp_path):
    a = SessionConfig(
        seed=11, confidence=0.9, budget=700, sampling="qmc",
        executor="serial", max_workers=1, cache_size=64,
    )
    b = SessionConfig(
        seed=99, confidence=0.99, budget="ci:0.05", sampling="mc",
        executor="thread", max_workers=2, cache_size=16,
    )
    assert all(getattr(a, name) != getattr(b, name) for name in DURABLE + RUNTIME)
    path = tmp_path / "a.snap"
    with StabilitySession(dataset, config=a) as live:
        live.top_stable(2, kind="topk_set", k=3, backend="randomized")
        live.get_next(kind="topk_set", k=3, backend="randomized")
        live.save(path)
        expected = _answers(live), _pool(live)
    with StabilitySession.restore(path, dataset, config=b) as restored:
        for name in DURABLE:
            assert getattr(restored.config, name) == getattr(a, name), name
        for name in RUNTIME:
            assert getattr(restored.config, name) == getattr(b, name), name
        assert restored.observer.mode == "thread"
        assert restored.observer.workers == 2
        assert restored.cache.maxsize == 16
        assert (_answers(restored), _pool(restored)) == expected


def test_serve_names_the_durable_flags_a_restore_ignored(
    batch_files, tmp_path, capsys, monkeypatch
):
    csv_path, _ = batch_files
    state_dir = str(tmp_path / "states")
    request = json.dumps({"op": "top_stable", "m": 1, "kind": "topk_set",
                          "k": 3, "backend": "randomized", "budget": 200})
    for extra in ([], ["--seed", "5", "--sampling", "qmc", "--workers", "1"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", csv_path, "--state-dir", state_dir,
                     "--executor", "serial", *extra]) == 0
    err = capsys.readouterr().err
    assert "--seed/--sampling ignored" in err
    assert "--workers" not in err  # runtime flags apply to restores too
