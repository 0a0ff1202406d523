"""Runtime resource-leak tracker.

Under ``ROPUS_LEAKTRACK=1`` the tracker monkey-patches the acquire
points of the resources that outlive a careless caller:

* ``concurrent.futures.ProcessPoolExecutor``, released by
  ``shutdown()``;
* ``tempfile.TemporaryDirectory``, released by ``cleanup()`` (the
  context-manager exit goes through ``cleanup`` too).

No module creates a shared-memory segment, so none is tracked;
``tests/test_reachability.py`` keeps it that way statically.

Every tracked acquisition records the call stack of the acquire site.
:func:`report` lists resources still open; an ``atexit`` hook prints
the report to stderr at interpreter exit, and the test suite's
conftest calls :func:`report` at pytest-session close and fails the
session when it lists anything. The tracker itself never raises and
never alters program behaviour — it is a diagnostic, mirroring the
determinism sanitizer's install/uninstall discipline
(:mod:`repro.analysis.sanitizer`) so tests can arm and disarm it freely
within one process.
"""

from __future__ import annotations

import atexit
import itertools
import os
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, TextIO

#: Environment flag consulted by :func:`maybe_install` (and therefore
#: by every pool-worker initializer and the test conftest).
ENV_FLAG = "ROPUS_LEAKTRACK"

#: Stack frames kept per acquisition (innermost last); the tracker's
#: own wrapper frame is dropped.
_STACK_DEPTH = 12


@dataclass
class LiveResource:
    """One tracked acquisition that has not been released yet."""

    token: int
    kind: str
    label: str
    stack: list[str] = field(default_factory=list)

    def format(self) -> str:
        header = f"{self.kind} {self.label!r} acquired at:"
        return header + "\n" + "".join(self.stack).rstrip("\n")


#: id(resource object) -> live record. Identity keying means the
#: tracker holds no strong reference and never extends lifetimes.
_LIVE: dict[int, LiveResource] = {}
_TOKENS = itertools.count(1)

#: (class, attribute) -> original callable, while installed.
_SAVED: dict[tuple[Any, str], Any] = {}

#: Cumulative counters, surviving deregistration (for tests/smoke).
counters: dict[str, int] = {"acquired": 0, "released": 0, "errors": 0}


def _capture_stack() -> list[str]:
    # Drop the two innermost frames: this helper and the wrapper.
    return traceback.format_stack()[-(_STACK_DEPTH + 2) : -2]


def _register(obj: Any, kind: str, label: str) -> None:
    counters["acquired"] += 1
    _LIVE[id(obj)] = LiveResource(
        token=next(_TOKENS),
        kind=kind,
        label=label,
        stack=_capture_stack(),
    )


def _deregister(obj: Any) -> None:
    if _LIVE.pop(id(obj), None) is not None:
        counters["released"] += 1


def _wrap_init(
    cls: type,
    kind: str,
    tracked: Callable[[tuple, dict], bool],
    label: Callable[[Any], str],
) -> None:
    original = cls.__init__
    key = (cls, "__init__")
    if key in _SAVED:  # pragma: no cover - guarded by installed()
        return

    def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        try:
            if tracked(args, kwargs):
                _register(self, kind, label(self))
        except Exception:  # pragma: no cover - diagnostics never raise
            counters["errors"] += 1

    _SAVED[key] = original
    cls.__init__ = wrapper  # type: ignore[method-assign]


def _wrap_release(cls: type, method: str) -> None:
    original = getattr(cls, method)
    key = (cls, method)
    if key in _SAVED:  # pragma: no cover - guarded by installed()
        return

    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        _deregister(self)
        return original(self, *args, **kwargs)

    _SAVED[key] = original
    setattr(cls, method, wrapper)


def installed() -> bool:
    """Whether the tracker is currently armed in this process."""
    return bool(_SAVED)


def install() -> None:
    """Arm the tracker in this process. Idempotent."""
    if installed():
        return

    from concurrent.futures import ProcessPoolExecutor

    _wrap_init(
        ProcessPoolExecutor,
        "process pool",
        lambda args, kwargs: True,
        lambda obj: f"{getattr(obj, '_max_workers', '?')} workers",
    )
    _wrap_release(ProcessPoolExecutor, "shutdown")

    import tempfile

    _wrap_init(
        tempfile.TemporaryDirectory,
        "temporary directory",
        lambda args, kwargs: True,
        lambda obj: getattr(obj, "name", "?"),
    )
    _wrap_release(tempfile.TemporaryDirectory, "cleanup")

    atexit.register(_atexit_report)


def uninstall() -> None:
    """Restore every patched entry point and forget live records."""
    while _SAVED:
        (cls, attribute), original = _SAVED.popitem()
        setattr(cls, attribute, original)
    _LIVE.clear()
    atexit.unregister(_atexit_report)


def maybe_install() -> bool:
    """Arm the tracker iff ``ROPUS_LEAKTRACK=1``; returns whether armed.

    Called from pool-worker initializers and the test conftest: the
    environment is inherited from the driver, so exporting the flag
    once tracks every process the run spawns.
    """
    if os.environ.get(ENV_FLAG) == "1":
        install()
        return True
    return False


def live_resources() -> list[LiveResource]:
    """Records for every tracked resource still open, oldest first."""
    return sorted(_LIVE.values(), key=lambda record: record.token)


def report(stream: TextIO | None = None) -> int:
    """Print still-open resources to ``stream``; returns their count.

    Quiet when nothing is open. Used at pytest-session close and by
    the ``atexit`` hook; diagnostic only — never raises, never exits.
    """
    records = live_resources()
    if not records:
        return 0
    out = stream if stream is not None else sys.stderr
    print(
        f"ropus leaktrack: {len(records)} resource(s) still open:",
        file=out,
    )
    for record in records:
        print(record.format(), file=out)
    return len(records)


def _atexit_report() -> None:  # pragma: no cover - interpreter exit
    try:
        report()
    except Exception:
        counters["errors"] += 1


__all__ = [
    "ENV_FLAG",
    "LiveResource",
    "counters",
    "install",
    "installed",
    "live_resources",
    "maybe_install",
    "report",
    "uninstall",
]
