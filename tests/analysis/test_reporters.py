"""Reporter contracts: JSON is lossless, text stays human-readable."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import (
    analyze_paths,
    finding_to_dict,
    registered_rules,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.findings import Finding, Severity

FIXTURES = Path(__file__).parent / "fixtures"


def _sample_findings() -> list[Finding]:
    result = analyze_paths([FIXTURES / "bad_float_equality.py"])
    assert result.findings
    return list(result.findings)


class TestJsonReporter:
    def test_payload_preserves_findings(self):
        import json

        findings = _sample_findings()
        payload = json.loads(render_json(findings))
        assert payload["version"] == 1
        assert payload["findings"] == [
            finding_to_dict(finding) for finding in findings
        ]

    def test_hand_built_finding_keeps_every_field(self):
        import json

        finding = Finding(
            path="src/x.py",
            line=3,
            column=7,
            rule="ROP999",
            message="synthetic",
            hint="none",
            severity=Severity.WARNING,
        )
        (record,) = json.loads(render_json([finding]))["findings"]
        record["severity"] = Severity(record["severity"])
        assert Finding(**record) == finding


class TestSarifReporter:
    def test_emits_valid_sarif_2_1_0(self):
        import json

        log = json.loads(render_sarif(_sample_findings()))
        assert log["version"] == "2.1.0"
        assert "sarif-2.1.0" in log["$schema"]
        assert len(log["runs"]) == 1

    def test_results_carry_rule_level_and_location(self):
        import json

        findings = _sample_findings()
        results = json.loads(render_sarif(findings))["runs"][0]["results"]
        assert len(results) == len(findings)
        first, finding = results[0], findings[0]
        assert first["ruleId"] == finding.rule
        assert first["level"] == "error"
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.column
        artifact = first["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]
        assert artifact["uri"] == finding.path

    def test_driver_describes_every_registered_rule(self):
        import json

        driver = json.loads(render_sarif([]))["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-analysis"
        described = {rule["id"] for rule in driver["rules"]}
        assert described == set(registered_rules())

    def test_empty_run_has_no_results(self):
        import json

        run = json.loads(render_sarif([]))["runs"][0]
        assert run["results"] == []

    def test_runner_format_sarif_end_to_end(self, capsys):
        import json

        from repro.analysis.runner import main

        code = main(
            [
                str(FIXTURES / "bad_naked_rng.py"),
                "--format",
                "sarif",
            ]
        )
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert any(
            result["ruleId"] == "ROP001"
            for result in log["runs"][0]["results"]
        )


class TestTextReporter:
    def test_lists_location_rule_and_hint(self):
        findings = _sample_findings()
        text = render_text(findings)
        first = findings[0]
        assert first.location in text
        assert first.rule in text
        assert "hint:" in text

    def test_clean_report(self):
        assert "clean" in render_text([])

    def test_summary_counts(self):
        findings = _sample_findings()
        text = render_text(findings)
        assert f"{len(findings)} error(s), 0 warning(s)" in text
