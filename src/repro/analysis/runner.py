"""Analysis driver: file discovery, rule execution, suppression, CLI.

``python -m repro.analysis src`` (or ``ropus lint``) walks the given
paths, parses every ``.py`` file once, runs each enabled rule's
visitor over the tree, and drops findings silenced by an inline
``# ropus: ignore`` / ``# ropus: ignore[ROP001]`` comment on the flagged
line.

Exit codes: ``0`` clean, ``1`` at least one error-severity finding,
``2`` configuration/usage failure.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.config import (
    DEFAULT_EXCLUDED_DIRS,
    AnalysisConfig,
    resolve_config,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.analysis.rules.base import ModuleContext, iter_rule_classes
from repro.exceptions import ConfigurationError

#: Inline suppression marker: ``# ropus: ignore`` silences every rule on
#: the line; ``# ropus: ignore[ROP001,ROP003]`` silences the listed ids.
_IGNORE_PATTERN = re.compile(
    r"#\s*ropus:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one run produced, before rendering."""

    findings: tuple[Finding, ...]
    suppressed_inline: int
    files_analyzed: int

    @property
    def error_count(self) -> int:
        return sum(
            1 for finding in self.findings if finding.severity is Severity.ERROR
        )

    @property
    def clean(self) -> bool:
        return self.error_count == 0


def iter_python_files(
    paths: Sequence[Path], config: AnalysisConfig
) -> list[Path]:
    """Every ``.py`` file under ``paths``, deterministic order."""
    files: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if not path.exists():
            raise ConfigurationError(f"no such path: {path}")
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        else:
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not (
                    set(candidate.parts) & DEFAULT_EXCLUDED_DIRS
                )
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen or config.path_excluded(candidate):
                continue
            seen.add(resolved)
            files.append(candidate)
    return files


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def _inline_suppressed(finding: Finding, source_lines: list[str]) -> bool:
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _IGNORE_PATTERN.search(source_lines[finding.line - 1])
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    listed = {item.strip() for item in rules.split(",")}
    return finding.rule in listed


def _parse_module(path: Path) -> ModuleContext | Finding:
    """Parse one file into a ModuleContext, or a ROP000 finding."""
    display = _display_path(path)
    source = path.read_text(encoding="utf-8")
    source_lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return Finding(
            path=display,
            line=error.lineno or 1,
            column=(error.offset or 0) + 1,
            rule="ROP000",
            message=f"file does not parse: {error.msg}",
            hint="fix the syntax error; no rules were run",
        )
    return ModuleContext(
        path=path, display_path=display, tree=tree, source_lines=source_lines
    )


def _run_rules(
    context: ModuleContext, config: AnalysisConfig
) -> list[Finding]:
    raw: list[Finding] = []
    for rule_class in iter_rule_classes():
        if not config.rule_enabled(rule_class.rule_id):
            continue
        if not rule_class.applies_to(context):
            continue
        raw.extend(rule_class(context).check())
    return raw


def analyze_paths(
    paths: Sequence[str | Path], config: AnalysisConfig | None = None
) -> AnalysisResult:
    """Analyze files/directories and apply inline suppressions."""
    config = config if config is not None else AnalysisConfig()
    files = iter_python_files([Path(path) for path in paths], config)
    findings: list[Finding] = []
    suppressed = 0
    for path in files:
        context = _parse_module(path)
        if isinstance(context, Finding):
            findings.append(context)
            continue
        raw = _run_rules(context, config)
        kept = [
            finding
            for finding in raw
            if not _inline_suppressed(finding, context.source_lines)
        ]
        suppressed += len(raw) - len(kept)
        findings.extend(kept)
    return AnalysisResult(
        findings=tuple(sorted(findings, key=Finding.sort_key)),
        suppressed_inline=suppressed,
        files_analyzed=len(files),
    )


def add_analysis_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the analyzer's options on ``parser``.

    Shared between the standalone ``python -m repro.analysis`` parser
    and the ``ropus lint`` subcommand so both speak the same flags.
    """
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--exclude", action="append", default=[],
        help="path substring to skip (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )
    parser.add_argument(
        "--explain", metavar="ROPxxx", default=None,
        help=(
            "print one rule's description, rationale, and good/bad "
            "examples, then exit"
        ),
    )


def build_parser(prog: str = "repro.analysis") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "AST-based invariant linter for the R-Opus pipeline "
            "(determinism, pickle-safety, tolerance discipline)"
        ),
    )
    add_analysis_arguments(parser)
    return parser


def _list_rules() -> str:
    lines = []
    for rule_class in iter_rule_classes():
        lines.append(
            f"{rule_class.rule_id} {rule_class.name} "
            f"[{rule_class.default_severity}]"
        )
        lines.append(f"    {rule_class.description}")
    return "\n".join(lines) + "\n"


def explain_rule(rule_id: str) -> str:
    """Human-readable card for one registered rule.

    Raises :class:`ConfigurationError` for unknown ids, so both the
    CLI and the README generator share one lookup.
    """
    from repro.analysis.rules import registered_rules

    rule_class = registered_rules().get(rule_id)
    if rule_class is None:
        raise ConfigurationError(
            f"--explain names an unknown rule id: {rule_id} "
            "(see --list-rules)"
        )
    sections = [
        f"{rule_class.rule_id}: {rule_class.name} "
        f"[{rule_class.default_severity.value}]",
        "",
        rule_class.description,
    ]
    if rule_class.rationale:
        sections += ["", "Why it matters:", f"  {rule_class.rationale}"]
    if rule_class.example_bad:
        sections += ["", "Flagged:"]
        sections += [
            f"    {line}" for line in rule_class.example_bad.splitlines()
        ]
    if rule_class.example_good:
        sections += ["", "Sanctioned:"]
        sections += [
            f"    {line}" for line in rule_class.example_good.splitlines()
        ]
    if rule_class.hint:
        sections += ["", f"Hint: {rule_class.hint}"]
    return "\n".join(sections) + "\n"


def rule_table_markdown() -> str:
    """Markdown table over every registered rule, for the README.

    The README embeds this between ``<!-- rule-table:begin -->`` /
    ``<!-- rule-table:end -->`` markers and a test regenerates it from
    the registry, so the documented rule list can never drift from the
    enforced one.
    """
    rows = [
        "| Rule | Name | Severity | Checks that |",
        "| --- | --- | --- | --- |",
    ]
    for rule_class in iter_rule_classes():
        description = " ".join(rule_class.description.split())
        rows.append(
            f"| {rule_class.rule_id} | `{rule_class.name}` "
            f"| {rule_class.default_severity.value} | {description} |"
        )
    return "\n".join(rows) + "\n"


def run_analysis_command(args: argparse.Namespace) -> int:
    """Execute an already-parsed analyzer invocation."""
    if args.list_rules:
        sys.stdout.write(_list_rules())
        return 0
    if args.explain:
        try:
            sys.stdout.write(explain_rule(args.explain))
        except ConfigurationError as error:
            sys.stderr.write(f"repro.analysis: {error}\n")
            return 2
        return 0

    try:
        config = resolve_config(
            select=args.select, ignore=args.ignore, exclude=args.exclude
        )
        result = analyze_paths(args.paths, config)
    except ConfigurationError as error:
        sys.stderr.write(f"repro.analysis: {error}\n")
        return 2

    render = {"json": render_json, "sarif": render_sarif, "text": render_text}
    sys.stdout.write(render[args.format](result.findings))
    return 0 if result.clean else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    return run_analysis_command(parser.parse_args(argv))
