"""Analysis configuration: rule selection and path excludes.

Every registered rule runs at its default severity unless the command
line narrows the set (``--select``, ``--ignore``) or skips paths
(``--exclude``). There is no config file layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.exceptions import ConfigurationError

#: Directory names never descended into.
DEFAULT_EXCLUDED_DIRS = frozenset(
    {".git", "__pycache__", ".venv", "build", "dist", ".mypy_cache",
     ".ruff_cache", "node_modules"}
)


@dataclass
class AnalysisConfig:
    """Resolved configuration for one analysis run."""

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    exclude: tuple[str, ...] = ()

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select is not None:
            return rule_id in self.select
        return True

    def path_excluded(self, path: Path) -> bool:
        posix = path.as_posix()
        return any(pattern in posix for pattern in self.exclude)


def _parse_rule_list(value: Sequence[str] | str, option: str) -> frozenset[str]:
    """Split a comma-separated id list and reject unregistered ids.

    A typo in ``--select`` would otherwise silently run *zero* rules
    (or, in ``--ignore``, suppress nothing) — the worst possible
    failure mode for a linter gate.
    """
    if isinstance(value, str):
        value = [item.strip() for item in value.split(",") if item.strip()]
    ids = frozenset(str(item) for item in value)
    # Imported here: the registry fills in when the rules package runs,
    # and config must stay importable before that happens.
    from repro.analysis.rules import registered_rules

    unknown = sorted(ids - set(registered_rules()))
    if unknown:
        raise ConfigurationError(
            f"{option} names unknown rule id(s): {', '.join(unknown)} "
            "(see --list-rules)"
        )
    return ids


def resolve_config(
    *,
    select: Sequence[str] | str | None = None,
    ignore: Sequence[str] | str | None = None,
    exclude: Sequence[str] | None = None,
) -> AnalysisConfig:
    """Validate the command-line values into an :class:`AnalysisConfig`."""
    return AnalysisConfig(
        select=(
            _parse_rule_list(select, "select") if select is not None else None
        ),
        ignore=(
            _parse_rule_list(ignore, "ignore")
            if ignore is not None
            else frozenset()
        ),
        exclude=tuple(exclude or ()),
    )
