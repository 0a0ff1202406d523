"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.traces.io import load_traces_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(["generate", "out.csv", "--weeks", "2"])
        assert args.output == "out.csv"
        assert args.weeks == 2

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.theta == 0.95
        assert args.servers == 12


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "traces.csv"
        code = main(["generate", str(path), "--weeks", "1", "--seed", "7"])
        assert code == 0
        traces = load_traces_csv(path)
        assert len(traces) == 26
        out = capsys.readouterr().out
        assert "wrote 26 traces" in out

    def test_writes_json(self, tmp_path):
        path = tmp_path / "traces.json"
        assert main(["generate", str(path), "--weeks", "1"]) == 0
        assert path.exists()


class TestTranslate:
    def test_prints_table(self, tmp_path, capsys):
        path = tmp_path / "traces.csv"
        main(["generate", str(path), "--weeks", "1"])
        code = main(
            [
                "translate",
                "--traces",
                str(path),
                "--theta",
                "0.6",
                "--m-degr",
                "3",
                "--t-degr",
                "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "app-00" in out
        assert "reduction %" in out


class TestTable1:
    def test_prints_six_cases(self, tmp_path, capsys):
        import numpy as np

        from repro.traces.calendar import TraceCalendar
        from repro.traces.io import save_traces_csv
        from repro.traces.trace import DemandTrace

        cal = TraceCalendar(weeks=1, slot_minutes=60)
        rng = np.random.default_rng(0)
        traces = [
            DemandTrace(f"w{i}", rng.lognormal(0, 0.5, cal.n_observations), cal)
            for i in range(4)
        ]
        path = tmp_path / "small.csv"
        save_traces_csv(traces, path)
        code = main(["table1", "--traces", str(path), "--servers", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C_requ CPU" in out
        # Six case rows plus header lines.
        assert sum(line.startswith(tuple("123456")) for line in out.splitlines()) == 6


class TestValidate:
    def test_clean_ensemble_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "traces.csv"
        main(["generate", str(path), "--weeks", "1"])
        code = main(["validate", "--traces", str(path)])
        assert code == 0
        assert "26/26 traces clean" in capsys.readouterr().out

    def test_dirty_trace_exit_nonzero(self, tmp_path, capsys):
        import numpy as np

        from repro.traces.calendar import TraceCalendar
        from repro.traces.io import save_traces_csv
        from repro.traces.trace import DemandTrace

        cal = TraceCalendar(weeks=1, slot_minutes=5)
        save_traces_csv(
            [DemandTrace("dead", np.zeros(cal.n_observations), cal)],
            tmp_path / "bad.csv",
        )
        code = main(["validate", "--traces", str(tmp_path / "bad.csv")])
        assert code == 1
        assert "all-zero" in capsys.readouterr().out


class TestOutlook:
    def test_flat_growth(self, tmp_path, capsys):
        path = tmp_path / "traces.csv"
        main(["generate", str(path), "--weeks", "2"])
        code = main(
            [
                "outlook",
                "--traces",
                str(path),
                "--growth",
                "1.0",
                "--horizon",
                "4",
                "--step",
                "4",
                "--servers",
                "14",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Capacity outlook" in out
        assert "sufficient" in out


class TestPlan:
    def test_plan_summary(self, tmp_path, capsys):
        path = tmp_path / "traces.csv"
        main(["generate", str(path), "--weeks", "1"])
        code = main(
            [
                "plan",
                "--traces",
                str(path),
                "--theta",
                "0.9",
                "--servers",
                "14",
                "--no-failures",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "servers_used" in out
        assert "sharing_savings" in out


class TestLint:
    FIXTURES = Path(__file__).parent / "analysis" / "fixtures"

    def test_lint_clean_fixture(self, capsys):
        code = main(
            ["lint", str(self.FIXTURES / "good_naked_rng.py")]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_dirty_fixture(self, capsys):
        code = main(
            ["lint", str(self.FIXTURES / "bad_naked_rng.py")]
        )
        assert code == 1
        assert "ROP001" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        import json

        code = main(
            [
                "lint",
                str(self.FIXTURES / "bad_wall_clock.py"),
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in payload["findings"]} == {"ROP002"}

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "ROP011" in capsys.readouterr().out


class TestResilienceKnobs:
    def test_plan_accepts_resilience_arguments(self):
        args = build_parser().parse_args(
            [
                "plan",
                "--task-timeout", "30",
                "--max-retries", "3",
                "--checkpoint", "ckpt-dir",
            ]
        )
        assert args.task_timeout == 30.0
        assert args.max_retries == 3
        assert args.checkpoint == "ckpt-dir"

    def test_plan_with_checkpoint_prints_hash_and_resumes(
        self, tmp_path, capsys
    ):
        path = tmp_path / "traces.csv"
        main(["generate", str(path), "--weeks", "1"])
        argv = [
            "plan",
            "--traces", str(path),
            "--theta", "0.9",
            "--servers", "14",
            "--no-failures",
            "--checkpoint", str(tmp_path / "ckpt"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "plan_hash:" in first
        # Second invocation resumes from the stored generations and must
        # land on the same plan.
        assert main(argv) == 0
        second = capsys.readouterr().out

        def hash_line(out):
            return next(
                line for line in out.splitlines() if "plan_hash" in line
            )

        assert hash_line(first) == hash_line(second)


class TestChaos:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.chaos_seed == 0
        assert args.crash_rate == pytest.approx(0.02)

    def test_chaos_verify_matches_fault_free(self, tmp_path, capsys):
        path = tmp_path / "traces.csv"
        main(["generate", str(path), "--weeks", "1"])
        code = main(
            [
                "chaos",
                "--traces", str(path),
                "--servers", "14",
                "--no-failures",
                "--chaos-seed", "3",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out
        assert "plan_hash:" in out


class TestValidateRepair:
    def test_repair_reports_quarantined_rows(self, tmp_path, capsys):
        import numpy as np

        from repro.traces.calendar import TraceCalendar
        from repro.traces.io import save_traces_csv
        from repro.traces.trace import DemandTrace

        cal = TraceCalendar(weeks=1, slot_minutes=60)
        rng = np.random.default_rng(2)
        save_traces_csv(
            [
                DemandTrace(
                    "a", rng.lognormal(0, 0.4, cal.n_observations) + 0.2, cal
                )
            ],
            tmp_path / "t.csv",
        )
        text = (tmp_path / "t.csv").read_text().splitlines()
        text[5] = "not-a-number"
        (tmp_path / "t.csv").write_text("\n".join(text) + "\n")
        code = main(
            ["validate", "--traces", str(tmp_path / "t.csv"), "--repair"]
        )
        out = capsys.readouterr().out
        assert "repair" in out
        assert code == 0
