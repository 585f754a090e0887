"""Tests for the CSV command-line interface."""

import numpy as np
import pytest

from repro.cli import load_csv_dataset, main


@pytest.fixture
def csv_2d(tmp_path):
    path = tmp_path / "items.csv"
    path.write_text(
        "name,aptitude,experience\n"
        "t1,0.63,0.71\n"
        "t2,0.83,0.65\n"
        "t3,0.58,0.78\n"
        "t4,0.70,0.68\n"
        "t5,0.53,0.82\n"
    )
    return str(path)


@pytest.fixture
def csv_3d_headerless(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "plain.csv"
    rows = rng.uniform(size=(20, 3))
    path.write_text("\n".join(",".join(f"{v:.6f}" for v in row) for row in rows))
    return str(path)


class TestLoadCsv:
    def test_header_and_labels(self, csv_2d):
        ds = load_csv_dataset(csv_2d, label_column="name")
        assert ds.n_items == 5
        assert ds.n_attributes == 2
        assert ds.item_labels[1] == "t2"
        assert ds.attribute_names == ("aptitude", "experience")

    def test_values_normalised(self, csv_2d):
        ds = load_csv_dataset(csv_2d, label_column="name")
        assert ds.values.min() == 0.0
        assert ds.values.max() == 1.0

    def test_headerless(self, csv_3d_headerless):
        ds = load_csv_dataset(csv_3d_headerless)
        assert ds.n_items == 20
        assert ds.attribute_names == ("x1", "x2", "x3")

    def test_lower_is_better(self, tmp_path):
        path = tmp_path / "price.csv"
        path.write_text("price,quality\n10,5\n20,9\n")
        ds = load_csv_dataset(path, lower_is_better=("price",))
        assert ds.values[0, 0] == 1.0  # cheapest wins

    def test_unknown_lower_column(self, csv_2d):
        with pytest.raises(ValueError):
            load_csv_dataset(csv_2d, label_column="name", lower_is_better=("bogus",))

    def test_missing_label_column(self, csv_2d):
        with pytest.raises(ValueError):
            load_csv_dataset(csv_2d, label_column="bogus")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_csv_dataset(path)


class TestCliCommands:
    def test_verify_2d(self, csv_2d, capsys):
        rc = main(
            ["verify", csv_2d, "--label-column", "name", "--weights", "1,1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stability:" in out
        assert "t2" in out

    def test_verify_3d_monte_carlo(self, csv_3d_headerless, capsys):
        rc = main(
            [
                "verify",
                csv_3d_headerless,
                "--weights",
                "1,1,1",
                "--samples",
                "2000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "confidence_error:" in out

    def test_verify_wrong_weight_count(self, csv_2d):
        with pytest.raises(SystemExit):
            main(["verify", csv_2d, "--label-column", "name", "--weights", "1,1,1"])

    def test_enumerate(self, csv_2d, capsys):
        rc = main(["enumerate", csv_2d, "--label-column", "name", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("stability=") == 3
        first = float(out.splitlines()[0].split("stability=")[1].split()[0])
        last = float(out.splitlines()[2].split("stability=")[1].split()[0])
        assert first >= last

    def test_topk_set(self, csv_3d_headerless, capsys):
        rc = main(
            [
                "topk",
                csv_3d_headerless,
                "--k",
                "5",
                "--kind",
                "set",
                "--budget",
                "1000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stability=" in out
        assert "{" in out

    def test_topk_ranked_with_cone(self, csv_3d_headerless, capsys):
        rc = main(
            [
                "topk",
                csv_3d_headerless,
                "--k",
                "3",
                "--kind",
                "ranked",
                "--budget",
                "1000",
                "--cone-theta",
                "0.1",
            ]
        )
        assert rc == 0
        assert "stability=" in capsys.readouterr().out

    def test_profile(self, csv_2d, capsys):
        rc = main(
            [
                "profile",
                csv_2d,
                "--label-column",
                "name",
                "--items",
                "0,1",
                "--samples",
                "500",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "t1" in out and "t2" in out
        assert "ranks [" in out

    def test_requires_subcommand(self, csv_2d):
        with pytest.raises(SystemExit):
            main([])


class TestLabelCommand:
    def test_label_2d(self, csv_2d, capsys):
        assert (
            main(
                [
                    "label",
                    csv_2d,
                    "--label-column",
                    "name",
                    "--weights",
                    "1,1",
                    "--k",
                    "3",
                    "--samples",
                    "1000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "RANKING FACTS" in out
        assert "Reference stability" in out
        assert "t2" in out

    def test_label_3d_with_cone(self, csv_3d_headerless, capsys):
        assert (
            main(
                [
                    "label",
                    csv_3d_headerless,
                    "--weights",
                    "1,1,1",
                    "--cone-theta",
                    "0.1",
                    "--samples",
                    "500",
                ]
            )
            == 0
        )
        assert "bubble" in capsys.readouterr().out


class TestTradeoffCommand:
    def test_tradeoff_2d(self, csv_2d, capsys):
        assert (
            main(
                [
                    "tradeoff",
                    csv_2d,
                    "--label-column",
                    "name",
                    "--weights",
                    "1,1",
                    "--cosines",
                    "0.999,0.99",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines() if line]
        assert len(lines) == 3  # header + one row per cosine
        assert "best_stab" in lines[0]


class TestServiceCommands:
    def test_batch_command(self, csv_3d_headerless, tmp_path, capsys):
        import json

        requests = [
            {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 500},
            {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 500},
            {"op": "get_next", "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 500},
        ]
        reqfile = tmp_path / "requests.json"
        reqfile.write_text(json.dumps(requests))
        assert main(["batch", csv_3d_headerless, "--requests", str(reqfile),
                     "--executor", "serial"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        records, summary = lines[:-1], lines[-1]
        assert [r["ok"] for r in records] == [True, True, True]
        assert records[1]["cached"] is True  # identical repeat hit the cache
        assert summary["requests"] == 3
        assert summary["cache"]["hits"] == 1
        # One amortized pool fill for the single configuration.
        (config,) = summary["configs"].values()
        assert config["total_samples"] == 500

    def test_batch_command_2d_exact(self, csv_2d, tmp_path, capsys):
        import json

        reqfile = tmp_path / "requests.json"
        reqfile.write_text(json.dumps([
            {"op": "top_stable", "m": 2},
            {"op": "stability_of", "kind": "topk_set", "k": 2,
             "ranking": [0, 1]},
        ]))
        code = main(["batch", csv_2d, "--label-column", "name",
                     "--requests", str(reqfile)])
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert code in (0, 1)  # [0,1] may be infeasible for this data
        assert lines[0]["ok"] is True
        assert len(lines[0]["result"]) == 2
        assert lines[0]["result"][0]["confidence_error"] == 0.0

    def test_batch_command_reports_errors(self, csv_2d, tmp_path, capsys):
        import json

        reqfile = tmp_path / "requests.json"
        reqfile.write_text(json.dumps([{"op": "get_next"},
                                       {"op": "teleport"}]))
        assert main(["batch", csv_2d, "--label-column", "name",
                     "--requests", str(reqfile)]) == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["ok"] is True
        assert lines[1]["ok"] is False
        assert "ValueError" in lines[1]["error"]

    def test_serve_command(self, csv_2d, capsys, monkeypatch):
        import io
        import json

        stdin = io.StringIO(
            json.dumps({"op": "top_stable", "m": 2}) + "\n"
            + json.dumps({"op": "stats"}) + "\n"
            + "not json\n"
        )
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["serve", csv_2d, "--label-column", "name"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["ok"] is True
        assert len(lines[0]["result"]) == 2
        assert lines[1]["ok"] is True and "cache" in lines[1]["stats"]
        assert lines[2]["ok"] is False


class TestSnapshotCommands:
    @pytest.fixture
    def requests_file(self, tmp_path):
        import json

        path = tmp_path / "requests.json"
        path.write_text(json.dumps([
            {"op": "top_stable", "m": 2, "kind": "topk_set", "k": 3,
             "backend": "randomized", "budget": 400},
            {"op": "top_stable", "m": 1, "kind": "topk_ranked", "k": 3,
             "backend": "randomized", "budget": 400},
        ]))
        return str(path)

    def test_snapshot_then_restore_same_answers(
        self, csv_3d_headerless, requests_file, tmp_path, capsys
    ):
        """Idempotent requests replay identically after a restore.

        This is the command pair the CI cross-version round-trip diffs:
        outcome lines carry no timing and no cache flags, so byte-equal
        stdout == byte-equal answers.
        """
        import json

        snap = str(tmp_path / "pool.snap")
        assert main(["snapshot", csv_3d_headerless, "--out", snap,
                     "--requests", requests_file, "--executor", "serial"]) == 0
        before = capsys.readouterr().out
        assert main(["restore", csv_3d_headerless, "--snapshot", snap,
                     "--requests", requests_file, "--executor", "serial"]) == 0
        after = capsys.readouterr().out
        assert before == after
        records = [json.loads(l) for l in after.splitlines()]
        assert [r["ok"] for r in records] == [True, True]

    def test_restore_inspect_prints_header(
        self, csv_3d_headerless, tmp_path, capsys
    ):
        import json

        snap = str(tmp_path / "pool.snap")
        assert main(["snapshot", csv_3d_headerless, "--out", snap]) == 0
        capsys.readouterr()
        assert main(["restore", csv_3d_headerless, "--snapshot", snap,
                     "--inspect"]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["format_version"] >= 1
        assert header["n_items"] == 20

    def test_restore_refuses_wrong_dataset(self, csv_2d, csv_3d_headerless,
                                           tmp_path, capsys):
        snap = str(tmp_path / "pool.snap")
        assert main(["snapshot", csv_3d_headerless, "--out", snap]) == 0
        with pytest.raises(SystemExit, match="cannot restore"):
            main(["restore", csv_2d, "--label-column", "name",
                  "--snapshot", snap])

    def test_serve_state_dir_checkpoints_and_restores(
        self, csv_3d_headerless, tmp_path, capsys, monkeypatch
    ):
        import io
        import json

        state_dir = tmp_path / "states"
        request = json.dumps({"op": "get_next", "kind": "topk_set", "k": 3,
                              "backend": "randomized", "budget": 400})
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", csv_3d_headerless, "--state-dir",
                     str(state_dir), "--executor", "serial"]) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert first["ok"] is True
        snaps = list(state_dir.glob("*.snap"))
        assert len(snaps) == 1  # checkpointed at end of input
        # Second serve run restores the state: the same get_next request
        # continues the cursor instead of repeating the first answer.
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", csv_3d_headerless, "--state-dir",
                     str(state_dir), "--executor", "serial"]) == 0
        second = json.loads(capsys.readouterr().out.splitlines()[0])
        assert second["ok"] is True
        assert second["result"]["ranking"] != first["result"]["ranking"]

    def test_serve_checkpoint_op(self, csv_3d_headerless, tmp_path, capsys,
                                 monkeypatch):
        import io
        import json

        state_dir = tmp_path / "states"
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps({"op": "checkpoint"}) + "\n")
        )
        assert main(["serve", csv_3d_headerless, "--state-dir",
                     str(state_dir)]) == 0
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert response["ok"] is True
        assert response["checkpoint"]["path"].endswith(".snap")

    def test_serve_survives_failed_auto_checkpoint(
        self, csv_3d_headerless, tmp_path, capsys, monkeypatch
    ):
        """A full disk costs durability, never availability."""
        import io
        import json

        from repro import StabilitySession

        def broken_save(self, path):
            raise OSError("disk full")

        monkeypatch.setattr(StabilitySession, "save", broken_save)
        request = json.dumps({"op": "top_stable", "m": 1, "kind": "topk_set",
                              "k": 3, "backend": "randomized", "budget": 300})
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", csv_3d_headerless, "--state-dir",
                     str(tmp_path / "states"), "--checkpoint-every", "1",
                     "--executor", "serial"]) == 0
        captured = capsys.readouterr()
        response = json.loads(captured.out.splitlines()[0])
        assert response["ok"] is True  # the request itself still answered
        assert "checkpoint" in captured.err and "disk full" in captured.err

    def test_serve_starts_cold_when_snapshot_untrusted(
        self, csv_3d_headerless, tmp_path, capsys, monkeypatch
    ):
        """The state dir is a warm-start cache — never a startup gate."""
        import io
        import json

        state_dir = tmp_path / "states"
        request = json.dumps({"op": "top_stable", "m": 1, "kind": "topk_set",
                              "k": 3, "backend": "randomized", "budget": 300})
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", csv_3d_headerless, "--state-dir",
                     str(state_dir), "--executor", "serial"]) == 0
        capsys.readouterr()
        (snap,) = state_dir.glob("*.snap")
        snap.write_bytes(b"garbage" + snap.read_bytes())
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", csv_3d_headerless, "--state-dir",
                     str(state_dir), "--executor", "serial"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.splitlines()[0])["ok"] is True
        assert "starting cold" in captured.err
        # The cold run's final checkpoint replaced the garbage snapshot.
        from repro.service.persist import read_snapshot_header

        assert read_snapshot_header(snap)["format_version"] >= 1

    def test_serve_state_files_are_region_qualified(
        self, csv_3d_headerless, tmp_path, capsys, monkeypatch
    ):
        import io
        import json

        state_dir = tmp_path / "states"
        request = json.dumps({"op": "top_stable", "m": 1, "kind": "topk_set",
                              "k": 3, "backend": "randomized", "budget": 300})
        for extra in ([], ["--cone-theta", "0.4"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
            assert main(["serve", csv_3d_headerless, "--state-dir",
                         str(state_dir), "--executor", "serial", *extra]) == 0
        capsys.readouterr()
        assert len(list(state_dir.glob("*.snap"))) == 2

    def test_snapshot_exit_code_reflects_failed_warmup(
        self, csv_3d_headerless, tmp_path, capsys
    ):
        import json

        reqfile = tmp_path / "bad.json"
        reqfile.write_text(json.dumps([{"op": "teleport"}]))
        snap = str(tmp_path / "pool.snap")
        assert main(["snapshot", csv_3d_headerless, "--out", snap,
                     "--requests", str(reqfile)]) == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["ok"] is False

    def test_snapshot_to_unwritable_path_exits_cleanly(
        self, csv_3d_headerless, tmp_path
    ):
        with pytest.raises(SystemExit, match="cannot snapshot"):
            main(["snapshot", csv_3d_headerless, "--out",
                  str(tmp_path / "no" / "dir" / "p.snap")])

    def test_restore_inspect_bad_file_exits_cleanly(self, csv_3d_headerless,
                                                    tmp_path):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"junk")
        with pytest.raises(SystemExit, match="cannot inspect"):
            main(["restore", csv_3d_headerless, "--snapshot", str(bad),
                  "--inspect"])

    def test_inspect_works_without_a_readable_dataset(self, csv_3d_headerless,
                                                      tmp_path, capsys):
        """An orphaned snapshot is inspectable; the CSV is never loaded."""
        import json

        snap = str(tmp_path / "pool.snap")
        assert main(["snapshot", csv_3d_headerless, "--out", snap]) == 0
        capsys.readouterr()
        assert main(["restore", str(tmp_path / "missing.csv"),
                     "--snapshot", snap, "--inspect"]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["format_version"] >= 1


class TestServeProtocolHardening:
    """The stdio loop speaks the shared protocol: structured errors,
    one response per line, and no input can kill it mid-stream."""

    def _serve(self, csv_path, lines, capsys, monkeypatch, extra_args=()):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO("".join(
            line + "\n" for line in lines
        )))
        code = main(["serve", csv_path, "--label-column", "name",
                     *extra_args])
        return code, [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]

    def test_malformed_json_is_structured_and_survivable(
        self, csv_2d, capsys, monkeypatch
    ):
        import json

        code, responses = self._serve(
            csv_2d,
            ["}{ garbage", json.dumps({"op": "ping"})],
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["code"] == "bad_json"
        assert responses[1] == {"pong": True, "ok": True}

    def test_unknown_op_is_structured_and_survivable(
        self, csv_2d, capsys, monkeypatch
    ):
        import json

        code, responses = self._serve(
            csv_2d,
            [json.dumps({"op": "teleport"}),
             json.dumps({"op": "top_stable", "m": 1})],
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert responses[0]["error"]["code"] == "unknown_op"
        assert responses[1]["ok"] is True

    def test_oversized_line_is_structured_and_survivable(
        self, csv_2d, capsys, monkeypatch
    ):
        import json

        from repro.server.protocol import MAX_LINE_BYTES

        huge = json.dumps({"op": "ping", "pad": "x" * (MAX_LINE_BYTES + 10)})
        code, responses = self._serve(
            csv_2d, [huge, json.dumps({"op": "ping"})], capsys, monkeypatch
        )
        assert code == 0
        assert responses[0]["error"]["code"] == "line_too_long"
        assert responses[1]["pong"] is True

    def test_bad_request_fields_are_structured(
        self, csv_2d, capsys, monkeypatch
    ):
        import json

        code, responses = self._serve(
            csv_2d,
            [json.dumps({"op": "top_stable", "m": 1, "teleport": True})],
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert responses[0]["error"]["code"] == "bad_request"
        assert "teleport" in responses[0]["error"]["message"]

    def test_hello_and_ping_on_stdio(self, csv_2d, capsys, monkeypatch):
        import json

        code, responses = self._serve(
            csv_2d,
            [json.dumps({"op": "hello"}), json.dumps({"op": "ping"})],
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert responses[0]["transport"] == "stdio"
        assert responses[0]["protocol"] >= 1
        assert responses[1]["pong"] is True

    def test_shutdown_op_ends_the_loop_and_checkpoints(
        self, csv_3d_headerless, tmp_path, capsys, monkeypatch
    ):
        import io
        import json

        state_dir = tmp_path / "states"
        lines = [
            json.dumps({"op": "top_stable", "m": 1, "kind": "topk_set",
                        "k": 3, "backend": "randomized", "budget": 300}),
            json.dumps({"op": "shutdown"}),
            json.dumps({"op": "ping"}),  # never reached
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(line + "\n" for line in lines))
        )
        assert main(["serve", csv_3d_headerless, "--state-dir",
                     str(state_dir), "--executor", "serial"]) == 0
        responses = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert len(responses) == 2  # the post-shutdown line went unread
        assert responses[1]["shutting_down"] is True
        assert len(list(state_dir.glob("*.snap"))) == 1

    def test_request_ids_are_echoed_on_stdio(self, csv_2d, capsys, monkeypatch):
        import json

        code, responses = self._serve(
            csv_2d,
            [json.dumps({"op": "top_stable", "m": 1, "id": 41})],
            capsys,
            monkeypatch,
        )
        assert code == 0
        assert responses[0]["id"] == 41 and responses[0]["ok"] is True


class TestServeTcpCli:
    def test_tcp_serve_end_to_end(self, csv_3d_headerless, tmp_path):
        """The production path: subprocess server, client, drain, warmth."""
        import json
        import os
        import signal
        import subprocess
        import sys

        from repro.server import ServeClient

        state_dir = tmp_path / "states"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", csv_3d_headerless,
             "--tcp", "127.0.0.1:0", "--state-dir", str(state_dir),
             "--executor", "serial"],
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = json.loads(proc.stderr.readline())
            with ServeClient(banner["serving"]) as client:
                assert client.hello()["durable"] is True
                response = client.top_stable(
                    1, kind="topk_set", k=3, backend="randomized", budget=300
                )
                assert response["ok"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        snaps = list(state_dir.glob("*.snap"))
        assert len(snaps) == 1
        # The drained snapshot restores: rolling restarts start warm.
        proc2 = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", csv_3d_headerless,
             "--tcp", "127.0.0.1:0", "--state-dir", str(state_dir),
             "--executor", "serial"],
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = json.loads(proc2.stderr.readline())
            with ServeClient(banner["serving"]) as client:
                warm = client.top_stable(
                    1, kind="topk_set", k=3, backend="randomized", budget=300
                )
                assert warm["ok"] is True and warm["cached"] is True
                assert warm["result"] == response["result"]
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=60) == 0
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait(timeout=30)
