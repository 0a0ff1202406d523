"""The unit of static-analysis output: one :class:`Finding` per defect.

A finding pins a rule violation to a ``file:line:column`` location and
carries everything a reader (human or tool) needs to act on it: the
rule id, a message describing *this* occurrence, and the rule's fix
hint describing the sanctioned alternative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How a finding affects the analysis exit code.

    ``ERROR`` findings fail the run; ``WARNING`` findings are reported
    but do not block.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    hint: str
    severity: Severity = Severity.ERROR

    @property
    def location(self) -> str:
        """``path:line:column`` — clickable in most terminals/editors."""
        return f"{self.path}:{self.line}:{self.column}"

    def sort_key(self) -> tuple[str, int, int, str]:
        """Order findings top-to-bottom per file, then by rule id."""
        return (self.path, self.line, self.column, self.rule)
