"""Text, JSON, and SARIF rendering of analysis results.

The text reporter is for humans (``path:line:col RULE message``); the
JSON reporter is a stable machine interface — CI tooling can consume
findings without scraping text. The SARIF reporter emits a SARIF 2.1.0
log so CI can publish findings to code-scanning UIs (GitHub's
``codeql-action/upload-sarif`` consumes it directly).
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.analysis.findings import Finding, Severity

JSON_SCHEMA_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def finding_to_dict(finding: Finding) -> dict[str, Any]:
    return {
        "path": finding.path,
        "line": finding.line,
        "column": finding.column,
        "rule": finding.rule,
        "message": finding.message,
        "hint": finding.hint,
        "severity": finding.severity.value,
    }


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report; stable field order, newline-terminated."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [
            finding_to_dict(finding)
            for finding in sorted(findings, key=Finding.sort_key)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _sarif_level(severity: Severity) -> str:
    return "error" if severity is Severity.ERROR else "warning"


def _sarif_rules() -> list[dict[str, Any]]:
    """Reporting descriptors for every registered rule, sorted by id."""
    # Imported here: the registry only fills in once the rules package
    # runs, and reporters must stay importable on their own.
    from repro.analysis.rules import iter_rule_classes

    return [
        {
            "id": rule_class.rule_id,
            "name": rule_class.name,
            "shortDescription": {"text": rule_class.description},
            "help": {"text": rule_class.hint},
            "defaultConfiguration": {
                "level": _sarif_level(rule_class.default_severity)
            },
        }
        for rule_class in iter_rule_classes()
    ]


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 log of the findings, newline-terminated."""
    results = [
        {
            "ruleId": finding.rule,
            "level": _sarif_level(finding.severity),
            "message": {
                "text": (
                    f"{finding.message} ({finding.hint})"
                    if finding.hint
                    else finding.message
                )
            },
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column,
                        },
                    }
                }
            ],
        }
        for finding in sorted(findings, key=Finding.sort_key)
    ]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "semanticVersion": "1.0.0",
                        "rules": _sarif_rules(),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = []
    for finding in sorted(findings, key=Finding.sort_key):
        lines.append(
            f"{finding.location}: {finding.severity} {finding.rule} "
            f"{finding.message}"
        )
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = sum(1 for f in findings if f.severity is Severity.WARNING)
    summary = f"{errors} error(s), {warnings} warning(s)"
    lines.append(summary if findings else "clean: no findings")
    return "\n".join(lines) + "\n"
