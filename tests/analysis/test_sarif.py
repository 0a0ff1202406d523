"""Golden-file coverage for the SARIF 2.1.0 reporter.

The golden log pins the full schema shape — run/tool/driver layout,
the reporting descriptor for every registered rule (so adding a rule
without metadata, or perturbing existing metadata, shows up as a
golden diff) and region offsets. A second test exercises the ``# ropus: ignore`` interplay:
suppressed findings must vanish from the SARIF results entirely
rather than appear with a suppression marker.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import analyze_paths, render_sarif
from repro.analysis.findings import Finding, Severity

GOLDEN = Path(__file__).parent / "golden" / "expected.sarif"


def _sample_findings() -> list[Finding]:
    """Deterministic findings with fixed paths, lines, and severities."""
    return [
        Finding(
            path="src/repro/sample/worker.py",
            line=42,
            column=7,
            rule="ROP013",
            message=(
                "'draw_worker' is submitted to an executor but is "
                "transitively impure: ambient-rng."
            ),
            hint="thread a derived generator through the arguments",
            severity=Severity.ERROR,
        ),
        Finding(
            path="src/repro/sample/report.py",
            line=7,
            column=1,
            rule="ROP002",
            message="wall-clock read time.time() in library code",
            hint="accept an injectable clock",
            severity=Severity.WARNING,
        ),
    ]


class TestGoldenLog:
    def test_sarif_matches_golden_file(self):
        rendered = render_sarif(_sample_findings())
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    def test_golden_log_shape(self):
        """Structural assertions, so a regenerated golden stays honest."""
        log = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert "sarif-2.1.0" in log["$schema"]
        assert log["version"] == "2.1.0"
        run = log["runs"][0]

        rules = run["tool"]["driver"]["rules"]
        rule_ids = [rule["id"] for rule in rules]
        assert rule_ids == sorted(rule_ids)
        assert {"ROP013", "ROP017", "ROP020"} <= set(rule_ids)
        for rule in rules:
            assert rule["name"]
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in {
                "error",
                "warning",
            }

        first, second = run["results"]
        # Findings are ordered by (path, line, column, rule).
        assert first["ruleId"] == "ROP002"
        assert first["level"] == "warning"
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 7, "startColumn": 1}
        location = second["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert location["artifactLocation"]["uri"] == (
            "src/repro/sample/worker.py"
        )
        assert location["region"] == {"startLine": 42, "startColumn": 7}


class TestInlineSuppressionInterplay:
    def test_ignored_findings_never_reach_the_log(self, tmp_path):
        subject = tmp_path / "subject.py"
        subject.write_text(
            "import time\n"
            "\n"
            "def stamped():\n"
            "    return time.time()\n"
            "\n"
            "def sanctioned():\n"
            "    return time.time()  # ropus: ignore[ROP002]\n",
            encoding="utf-8",
        )
        result = analyze_paths([subject])
        log = json.loads(render_sarif(result.findings))
        results = log["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["ROP002"]
        assert (
            results[0]["locations"][0]["physicalLocation"]["region"][
                "startLine"
            ]
            == 4
        )
        assert result.suppressed_inline == 1

    def test_ignore_of_other_rule_does_not_suppress(self, tmp_path):
        subject = tmp_path / "subject.py"
        subject.write_text(
            "import time\n"
            "\n"
            "def stamped():\n"
            "    return time.time()  # ropus: ignore[ROP001]\n",
            encoding="utf-8",
        )
        result = analyze_paths([subject])
        assert [finding.rule for finding in result.findings] == ["ROP002"]
