"""Unit tests for the command-line interface."""

import functools
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in (
            ["tables"],
            ["scenario", "lossless"],
            ["list"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)

    @pytest.mark.parametrize("command", ["domination", "maximality", "availability"])
    def test_report_owns_the_theorem_and_availability_artifacts(self, command):
        # `repro report` runs these experiments; no second command does.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_fuzz_owns_witness_minimization(self):
        # `repro fuzz --minimize` finds and shrinks violations; no second
        # command does.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shrink", "aggressive"])


class TestListCommand:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("AD-1", "AD-6", "lossless", "aggressive", "table1", "ad6"):
            assert name in out


class TestScenarioCommand:
    def test_runs_and_reports(self, capsys):
        assert main(["scenario", "lossless", "--seed", "3", "--updates", "10"]) == 0
        out = capsys.readouterr().out
        assert "properties:" in out
        assert "CE1 received" in out

    def test_timeline_flag(self, capsys):
        assert main(
            ["scenario", "lossless", "--updates", "5", "--timeline"]
        ) == 0
        out = capsys.readouterr().out
        assert "DM-x     broadcast 1x(" in out
        assert " AD       display   a(" in out

    def test_multi_flag(self, capsys):
        assert main(
            ["scenario", "non-historical", "--multi", "--algorithm", "AD-5",
             "--updates", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "DM-x" in out and "DM-y" in out

    def test_unknown_row_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "weird"])


class TestTablesCommand:
    def test_small_table_run_agrees(self, capsys):
        code = main(["tables", "table2", "--trials", "25", "--updates", "25"])
        out = capsys.readouterr().out
        assert "table2" in out
        assert "overall paper agreement: YES" in out
        assert code == 0

    def test_unknown_table(self, capsys):
        # Every id is validated before anything runs: a valid id in front
        # of the bad one must not be rendered first.
        assert main(["tables", "table1", "table99", "--trials", "2"]) == 2
        out = capsys.readouterr().out
        assert "unknown table 'table99'" in out
        assert "table1:" not in out and "paper agreement" not in out


class TestFuzzCommand:
    def test_finds_minimizes_and_replays(self, capsys, tmp_path):
        code = main(
            ["fuzz", "--target", "consistency", "--budget", "80",
             "--minimize", "--minimize-limit", "1",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct violating" in out
        assert "shrunk witness" in out
        assert "replay OK" in out
        traces = list(tmp_path.glob("witness_*.jsonl"))
        assert len(traces) == 1
        # The written artifact must itself replay cleanly.
        assert main(["trace", "replay", str(traces[0])]) == 0

    def test_guaranteed_cell_finds_nothing(self, capsys):
        # AD-3 guarantees consistency, so the hunt must come back empty
        # and the exit status must say so.
        code = main(
            ["fuzz", "--target", "consistency", "--algorithm", "AD-3",
             "--budget", "30"]
        )
        assert code == 1
        assert "no violations found" in capsys.readouterr().out

    def test_target_spellings_accepted(self):
        parser = build_parser()
        for spelling in ("ordered", "orderedness", "complete",
                         "completeness", "consistent", "consistency", "any"):
            args = parser.parse_args(["fuzz", "--target", spelling])
            assert callable(args.func)

    @pytest.mark.parametrize("flags,message", [
        (["--updates", "0"], "n_updates must be >= 1, got 0"),
        (["--updates", "-3"], "n_updates must be >= 1, got -3"),
        (["--replication", "0"], "replication must be >= 1, got 0"),
    ], ids=["updates-0", "updates-minus-3", "replication-0"])
    def test_bad_campaign_is_a_one_line_error(self, capsys, flags, message):
        # Refused before any run: no "no violations found", no traceback.
        assert main(["fuzz", "--budget", "20", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro fuzz: error: {message}\n"

    def test_negative_minimize_limit_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fuzz", "--minimize-limit", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err


class TestExperimentsCommands:
    def test_chaos_smoke_gate(self, capsys):
        # The exact argument list of CI's chaos-smoke job, so the job and
        # this suite cannot disagree.  (At --trials 15 three CEs at
        # intensity 2 happen to miss more alerts than two, 0.447 vs 0.419.)
        assert main([
            "sweep", "chaos", "--intensities", "0", "1", "2",
            "--replications", "1", "2", "3", "--trials", "30", "--updates", "25",
        ]) == 0
        assert "replication reduces missed alerts: YES" in capsys.readouterr().out

    @staticmethod
    def _planned(monkeypatch, argv):
        """The specs ``repro <argv>`` hands the engine; no trial runs."""
        from repro.engine import TrialEngine

        class Planned(Exception):
            pass

        planned = []

        def capture(self, specs):
            planned.extend(specs)
            raise Planned

        monkeypatch.setattr(TrialEngine, "run", capture)
        with pytest.raises(Planned):
            main(argv)
        return planned

    def test_churn_sweep_defaults_plan_the_documented_cell(self, monkeypatch):
        # With no axis flags, `repro sweep churn` plans the cell
        # EXPERIMENTS.md and results/membership.txt document: row
        # aggressive, algorithm pass, 14 updates, 20 trials, 2 CEs, the
        # membership-off baseline plus timeouts 2 and 6 at each intensity.
        from repro.faults import churn_specs

        assert self._planned(monkeypatch, ["sweep", "churn"]) == [
            spec
            for intensity in (0.5, 1.0, 2.0)
            for timeout in (None, 2.0, 6.0)
            for spec in churn_specs(
                intensity, timeout, 2.0, 20, row="aggressive",
                algorithm="pass", n_updates=14, replication=2,
            )
        ]

    def test_churn_sweep_runs_a_zero_intensity_as_given(self, monkeypatch):
        # No intensity is dropped or rewritten: 0 is a fault-free cell.
        planned = self._planned(
            monkeypatch, ["sweep", "churn", "--intensities", "0", "1"]
        )
        assert len(planned) == 2 * 3 * 20
        assert all(spec.faults is None for spec in planned[:60])
        assert all(spec.faults is not None for spec in planned[60:])


class TestFeedCommands:
    def test_record_and_conform(self, tmp_path, capsys):
        out = tmp_path / "run.feed"
        assert main([
            "feed", "record", "aggressive", "--algorithm", "AD-3",
            "--seed", "7", "--updates", "20", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert "recorded" in capsys.readouterr().out

        assert main(["feed", "conform", str(out)]) == 0
        text = capsys.readouterr().out
        assert "IDENTICAL" in text
        for runtime in ("kernel:object", "kernel:array", "direct", "asyncio"):
            assert runtime in text

    def test_conform_no_service(self, tmp_path, capsys):
        out = tmp_path / "run.feed"
        main([
            "feed", "record", "lossless", "--seed", "1",
            "--updates", "10", "--out", str(out),
        ])
        capsys.readouterr()
        assert main(["feed", "conform", str(out), "--no-service"]) == 0
        text = capsys.readouterr().out
        assert "asyncio" not in text
        assert "IDENTICAL" in text

    def test_chaos_feed_records(self, tmp_path, capsys):
        out = tmp_path / "chaos.feed"
        assert main([
            "feed", "record", "aggressive", "--algorithm", "AD-4",
            "--seed", "11", "--updates", "20", "--chaos", "1.5",
            "--out", str(out),
        ]) == 0
        assert main(["feed", "conform", str(out)]) == 0

    def test_membership_feed_records_and_conforms(self, tmp_path, capsys):
        # `feed record` takes the same trial options as `trace record`.
        out = tmp_path / "churn.feed"
        assert main([
            "feed", "record", "aggressive", "--seed", "5", "--updates", "14",
            "--chaos", "1", "--membership", "--out", str(out),
        ]) == 0
        assert b'"membership":{"catchup_latency":2.0' in out.read_bytes()
        assert main(["feed", "conform", str(out), "--no-service"]) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["conform", "send"])
    @pytest.mark.parametrize(
        "defect, named",
        [("truncated", "FrameError: stream truncated mid-frame"),
         ("nan-stamp", "FeedSchemaError: the stamp record of CE1 holds a "
                       "non-finite time")],
    )
    def test_a_rejected_feed_exits_2_not_1(
        self, tmp_path, capsys, command, defect, named
    ):
        # Exit 1 is DIVERGED and nothing else: a feed that cannot be read
        # is one named line on stderr and exit 2.
        from repro.service import load_feed
        from repro.service.feed import encode_message, feed_messages

        out = tmp_path / "run.feed"
        main([
            "feed", "record", "aggressive", "--seed", "7",
            "--updates", "20", "--out", str(out),
        ])
        if defect == "truncated":
            out.write_bytes(out.read_bytes()[:-7])
        else:
            messages = list(feed_messages(load_feed(out)))
            messages[1] = {**messages[1], "stamps": [(float("nan"), 1)]}
            out.write_bytes(b"".join(map(encode_message, messages)))
        capsys.readouterr()
        # Nothing listens on port 9: the feed is refused before a connect.
        argv = ["feed", command, str(out)]
        assert main(argv + (["--port", "9"] if command == "send" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}")
        assert captured.err.count("\n") == 1

    def test_send_against_live_server(self, tmp_path, capsys):
        # In-process server on an ephemeral port; the send command is
        # exercised end to end through the public CLI path.
        import asyncio
        import threading

        from repro.service import MonitorService, ServiceConfig

        out = tmp_path / "run.feed"
        main([
            "feed", "record", "aggressive", "--seed", "7",
            "--updates", "20", "--out", str(out),
        ])
        capsys.readouterr()

        loop = asyncio.new_event_loop()
        service = MonitorService(ServiceConfig())
        started = threading.Event()

        def run_server():
            asyncio.set_event_loop(loop)

            async def serve():
                await service.start()
                started.set()
                await service.serve_until(once=True)

            loop.run_until_complete(serve())

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        try:
            assert main([
                "feed", "send", str(out),
                "--port", str(service.port), "--conform",
            ]) == 0
            text = capsys.readouterr().out
            assert "IDENTICAL" in text
            assert "latency" in text
        finally:
            thread.join(timeout=10)
            loop.close()
        assert not thread.is_alive()
        assert service.connections_handled == 1


@functools.cache
def _top_level_modules_after_importing_the_cli() -> frozenset[str]:
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; "
         "print(*sorted({m.split('.')[0] for m in sys.modules}))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return frozenset(result.stdout.split())


def test_importing_the_cli_does_not_import_scipy():
    # scipy is in no extra of pyproject.toml; importing it by accident
    # costs 0.75 s and 65 MB in every process, `repro serve` included.
    assert "scipy" not in _top_level_modules_after_importing_the_cli()


def test_importing_the_cli_imports_neither_networkx_nor_numpy():
    # Neither is a dependency (the package has none at run time).
    # Together they cost 0.23 s and 27 MB of every process, `repro serve`
    # included.
    loaded = _top_level_modules_after_importing_the_cli()
    assert "repro" in loaded
    assert not {"networkx", "numpy"} & loaded
