"""Runner behaviour: tree walking, inline suppression, exit codes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import AnalysisConfig, analyze_paths, resolve_config
from repro.analysis.runner import main
from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestShippedTreeClean:
    def test_src_tree_has_no_findings(self):
        """The invariants hold over the library we actually ship."""
        package_dir = Path(repro.__file__).parent
        result = analyze_paths([package_dir])
        assert result.findings == (), [
            finding.location + " " + finding.rule
            for finding in result.findings
        ]
        assert result.files_analyzed > 50

    def test_fixture_directory_is_dirty(self):
        """Sanity check: the analyzer is not trivially green."""
        result = analyze_paths([FIXTURES])
        fired = {finding.rule for finding in result.findings}
        assert len(fired) >= 7


class TestInlineSuppression:
    def test_scoped_ignore_silences_one_rule(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "def check(x):\n"
            "    return x == 0.0  # ropus: ignore[ROP003]\n"
        )
        result = analyze_paths([path])
        assert result.findings == ()
        assert result.suppressed_inline == 1

    def test_scoped_ignore_keeps_other_rules(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "def check(x):\n"
            "    assert x == 0.0  # ropus: ignore[ROP003]\n"
        )
        result = analyze_paths([path])
        assert {finding.rule for finding in result.findings} == {"ROP005"}
        assert result.suppressed_inline == 1

    def test_unscoped_ignore_silences_everything_on_line(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "def check(x):\n"
            "    assert x == 0.0  # ropus: ignore\n"
        )
        result = analyze_paths([path])
        assert result.findings == ()
        assert result.suppressed_inline == 2


class TestConfig:
    def test_select_restricts_rules(self):
        config = AnalysisConfig(select=frozenset({"ROP001"}))
        result = analyze_paths([FIXTURES / "bad_float_equality.py"], config)
        assert result.findings == ()

    def test_ignore_drops_rules(self):
        config = AnalysisConfig(ignore=frozenset({"ROP003"}))
        result = analyze_paths([FIXTURES / "bad_float_equality.py"], config)
        assert result.findings == ()

    def test_exclude_skips_paths(self):
        config = AnalysisConfig(exclude=("fixtures",))
        result = analyze_paths([FIXTURES], config)
        assert result.files_analyzed == 0


class TestPytestModuleExemption:
    """ROP005 stays silent in pytest files (benchmarks are pytest-run)."""

    @pytest.mark.parametrize("name", ["test_fig9.py", "conftest.py"])
    def test_assert_allowed_in_pytest_modules(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("def check(flag):\n    assert flag\n")
        result = analyze_paths([path])
        assert result.findings == ()

    def test_assert_still_flagged_elsewhere(self, tmp_path):
        path = tmp_path / "pipeline.py"
        path.write_text("def check(flag):\n    assert flag\n")
        result = analyze_paths([path])
        assert {finding.rule for finding in result.findings} == {"ROP005"}


class TestRuleIdValidation:
    def test_unknown_select_id_is_rejected(self):
        with pytest.raises(ConfigurationError, match="ROP999"):
            resolve_config(select="ROP999")

    def test_unknown_ignore_id_is_rejected(self):
        with pytest.raises(ConfigurationError, match="ignore"):
            resolve_config(ignore="ROP001,ROP424")

    def test_cli_reports_usage_error_for_unknown_rule(self, capsys):
        code = main(
            [str(FIXTURES / "good_naked_rng.py"), "--select", "ROP999"]
        )
        assert code == 2
        assert "ROP999" in capsys.readouterr().err


class TestCliSelection:
    """``--select`` narrows the rule set on both entry points."""

    MODULE = str(FIXTURES / "bad_float_equality.py")  # violates ROP003 only

    def test_resolve_config_parses_comma_lists(self):
        config = resolve_config(select="ROP001,ROP002", exclude=["fixtures"])
        assert config.select == frozenset({"ROP001", "ROP002"})
        assert config.exclude == ("fixtures",)
        assert resolve_config(ignore="ROP003").ignore == frozenset({"ROP003"})

    def test_module_entry_select(self, capsys):
        assert main([self.MODULE, "--select", "ROP005"]) == 0
        assert main([self.MODULE, "--select", "ROP003"]) == 1
        assert "ROP003" in capsys.readouterr().out

    def test_ropus_lint_select(self, capsys):
        assert cli_main(["lint", self.MODULE, "--select", "ROP005"]) == 0
        assert cli_main(["lint", self.MODULE, "--select", "ROP003"]) == 1
        assert "ROP003" in capsys.readouterr().out


class TestSyntaxErrors:
    def test_unparsable_file_reports_rop000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        result = analyze_paths([path])
        assert [finding.rule for finding in result.findings] == ["ROP000"]
        assert not result.clean


class TestExitCodes:
    def test_main_clean_returns_zero(self):
        assert main([str(FIXTURES / "good_naked_rng.py")]) == 0

    def test_main_findings_return_one(self, capsys):
        code = main([str(FIXTURES / "bad_naked_rng.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "ROP001" in out

    def test_main_missing_path_returns_two(self, capsys):
        assert main(["definitely/not/a/path.py"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("ROP001", "ROP004", "ROP017"):
            assert rule_id in out

    def test_module_entry_point(self):
        """``python -m repro.analysis`` is the CI gate — must exit 0/1."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        clean = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        dirty = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                str(FIXTURES / "bad_bare_assert.py"),
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert dirty.returncode == 1, dirty.stdout + dirty.stderr


class TestExplain:
    def test_explain_prints_the_rule_card(self, capsys):
        assert main(["--explain", "ROP017"]) == 0
        out = capsys.readouterr().out
        assert "ROP017: resource-leak-on-path [error]" in out
        assert "Why it matters:" in out
        assert "Flagged:" in out
        assert "Sanctioned:" in out
        assert "Hint:" in out

    def test_explain_unknown_rule_exits_2(self, capsys):
        assert main(["--explain", "ROP999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_every_rule_renders_a_full_card(self):
        from repro.analysis.rules import registered_rules
        from repro.analysis.runner import explain_rule

        for rule_id in registered_rules():
            card = explain_rule(rule_id)
            assert "Why it matters:" in card, rule_id
            assert "Flagged:" in card, rule_id
            assert "Sanctioned:" in card, rule_id


class TestReadmeRuleTable:
    def test_readme_table_matches_registry(self):
        """README's rule table is the registry's, verbatim.

        Regenerate with:
        PYTHONPATH=src python -c "from repro.analysis.runner import \
rule_table_markdown; print(rule_table_markdown(), end='')"
        """
        from repro.analysis.runner import rule_table_markdown

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        begin = "<!-- rule-table:begin -->\n"
        end = "<!-- rule-table:end -->"
        assert begin in readme and end in readme
        table = readme.split(begin, 1)[1].split(end, 1)[0]
        assert table == rule_table_markdown()
