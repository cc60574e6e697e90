"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])


class TestFormulas:
    def test_prints_predictions(self, capsys):
        assert main(["formulas", "6", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "(N-1)(2P+3Q+1) = 70" in out
        assert "N+Q+1 ops" in out


class TestRun:
    def test_matches_model(self, capsys):
        assert main(["run", "4", "1", "0"]) == 0
        out = capsys.readouterr().out
        assert "resolution messages: 9 (model 9) OK" in out
        assert "status: completed" in out

    def test_seed_flag(self, capsys):
        assert main(["run", "3", "2", "0", "--seed", "5"]) == 0
        assert "OK" in capsys.readouterr().out


class TestChart:
    @pytest.mark.parametrize("scenario", ["example1", "example2", "figure3"])
    def test_renders(self, scenario, capsys):
        assert main(["chart", scenario]) == 0
        out = capsys.readouterr().out
        assert "time │" in out
        assert "RESOLVE" in out

    def test_rows_limit(self, capsys):
        assert main(["chart", "example2", "--rows", "4"]) == 0
        assert "elided" in capsys.readouterr().out


class TestCompare:
    def test_prints_growth(self, capsys):
        assert main(["compare", "--sweep", "2,4,8"]) == 0
        out = capsys.readouterr().out
        assert "CR ~ N^" in out
        assert "new ~ N^" in out


class TestReport:
    def test_report_runs_and_holds(self, capsys, tmp_path):
        out_file = tmp_path / "report.md"
        assert main(["report", "--output", str(out_file)]) == 0
        text = out_file.read_text()
        assert "Overall: all claims hold" in text
        assert "E1 — one exception" in text
        assert "0 mismatches" in text
        assert "Campbell-Randell" in text

    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        assert "# Reproduction report" in capsys.readouterr().out


class TestFuzz:
    def test_clean_fuzz_exits_zero(self, capsys):
        assert main(["fuzz", "--count", "5", "--participants", "3"]) == 0
        assert "5/5 scenarios" in capsys.readouterr().out

    def test_verbose_lists_plans(self, capsys):
        main(["fuzz", "--count", "2", "--participants", "3", "--verbose"])
        assert "FuzzPlan" in capsys.readouterr().out


class TestExplore:
    CELL = "paper:ct:none:n2p1q1:s0"

    @pytest.mark.parametrize("mode", ["dfs", "delay"])
    def test_workers_is_a_usage_error_outside_random_mode(self, mode, capsys):
        code = main(
            ["explore", "--cell", self.CELL, "--mode", mode, "--workers", "2"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--workers" in captured.err and captured.out == ""

    def test_pooled_walks(self, capsys):
        argv = [
            "explore", "--cell", self.CELL, "--mode", "random",
            "--schedules", "4", "--workers", "2", "--json",
        ]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["schedules_run"] == 5


class TestServiceErrors:
    """Unreachable servers and failed binds exit cleanly, not by traceback."""

    def test_load_against_dead_server_is_one_line(self, capsys):
        code = main([
            "service", "load", "--port", "1",
            "--rate", "10", "--duration", "1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "service load failed" in captured.err
        assert "cannot connect to resolution service" in captured.err
        assert "Traceback" not in captured.err

    def test_trace_against_dead_server_is_one_line(self, capsys):
        code = main(["service", "trace", "--port", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err

    def test_serve_bind_failure_is_one_line(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main([
                "service", "serve", "--port", str(port), "--max-seconds", "5",
            ])
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert code == 1
        assert "serve failed" in captured.err
        assert "Traceback" not in captured.err
