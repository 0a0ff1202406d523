"""Static analysis for the R-Opus pipeline's unwritten invariants.

The execution engine's correctness contract — deterministic RNG flow,
picklable work units, tolerance-based metric comparisons — cannot be
expressed in tests alone, so this package enforces it at review time
with a custom AST linter:

* :mod:`repro.analysis.rules` — one :class:`Rule` per invariant
  (ROP001-ROP006, ROP011), each a plain per-module visitor registered
  in a global registry;
* :mod:`repro.analysis.runner` — file walking, rule execution, inline
  ``# ropus: ignore`` handling, exit codes;
* :mod:`repro.analysis.reporters` — text, JSON, and SARIF 2.1.0 for
  code-scanning upload;
* :mod:`repro.analysis.sanitizer` / :mod:`repro.analysis.leaktrack` —
  the runtime counterparts, armed by ``ROPUS_SANITIZE`` /
  ``ROPUS_LEAKTRACK``.

Run it as ``python -m repro.analysis src`` or ``ropus lint``.
"""

from repro.analysis.config import AnalysisConfig, resolve_config
from repro.analysis.findings import Finding, Severity
from repro.analysis.reporters import (
    finding_to_dict,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import (
    ModuleContext,
    Rule,
    iter_rule_classes,
    register,
    registered_rules,
)
from repro.analysis.runner import AnalysisResult, analyze_paths, main

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "Finding",
    "ModuleContext",
    "Rule",
    "Severity",
    "analyze_paths",
    "finding_to_dict",
    "iter_rule_classes",
    "main",
    "register",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_config",
]
