"""The declarative protocol table: resource automata the checker enforces.

Each :class:`ResourceProtocol` is a two-state automaton — *open* after
the acquire call, *released* after any release operation — plus the
metadata the checker needs to recognise both ends in source form:
canonical acquire callables (resolved through each module's ImportMap,
so ``from multiprocessing import shared_memory`` and ``import
multiprocessing.shared_memory`` both match), release *methods* on the
tracked object, and release *functions* that take the object (or a
name derived from it) as an argument.

Two refinements keep the table honest against the engine's real
idioms:

* ``require_kwarg`` distinguishes owning from non-owning constructor
  forms — ``SharedMemory(create=True)`` owns a fresh segment while
  ``SharedMemory(name=...)`` merely attaches to someone else's;
* ``result_index`` tracks resources returned inside a tuple —
  ``broadcast.publish`` hands back ``(handle, segment, nbytes)`` and
  only element 1 is the caller's to release;
* ``acquire_from_arg`` tracks resources that are *arguments* rather
  than results — ``open(tmp, "w")`` creates an on-disk temp file whose
  lifecycle belongs to the **path** variable (rename-or-unlink), not
  to the returned handle. It is gated to write modes and temp-looking
  names so ordinary output files are not policed.

``neutral_methods`` are lifecycle-irrelevant calls that neither
release nor count as use-after-release — ``SharedMemory.close()``
detaches the local mapping and is legal both before and after
``unlink()``, so treating it as either a use or a release would
produce false positives on the canonical close-then-unlink sequence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

#: Substrings that mark a path variable as a temporary file (the
#: ``acquire_from_arg`` gate).
_TEMP_NAME_PARTS = ("tmp", "temp")

#: ``open()`` mode characters that create/modify the file on disk.
_WRITE_MODE_CHARS = frozenset("wxa+")


@dataclass(frozen=True)
class ResourceProtocol:
    """One resource automaton: how it is acquired and released."""

    name: str
    #: Human noun for messages ("SharedMemory segment").
    describe: str
    #: Canonical dotted callables whose call acquires the resource.
    acquire: frozenset[str]
    #: Methods on the tracked object that release it.
    release_methods: frozenset[str]
    #: Canonical functions that release it, mapped to the positional
    #: index of the argument being released.
    release_functions: Mapping[str, int] = field(
        default_factory=lambda: MappingProxyType({})
    )
    #: Methods that neither release nor constitute use.
    neutral_methods: frozenset[str] = frozenset()
    #: Keyword that must be present (and truthy-constant) for the call
    #: to count as an acquisition.
    require_kwarg: str | None = None
    #: When the acquire call returns a tuple, the element that is the
    #: resource; ``None`` means the call result itself.
    result_index: int | None = None
    #: When set, the resource is the *argument* at this index (see the
    #: module docstring); the temp-name/write-mode gates apply.
    acquire_from_arg: int | None = None
    #: Whether releasing twice is harmless (``Executor.shutdown`` is
    #: idempotent; ``SharedMemory.unlink`` raises the second time).
    double_release_ok: bool = True
    #: Whether calling other methods after release is an error worth
    #: reporting (paths and name-registries are reusable; handles are
    #: not).
    track_use: bool = True
    #: Remediation text appended to findings.
    release_hint: str = ""


KNOWN_PROTOCOLS: tuple[ResourceProtocol, ...] = (
    ResourceProtocol(
        name="shared-memory-segment",
        describe="SharedMemory segment",
        acquire=frozenset({"multiprocessing.shared_memory.SharedMemory"}),
        require_kwarg="create",
        release_methods=frozenset({"unlink"}),
        neutral_methods=frozenset({"close"}),
        release_functions=MappingProxyType(
            {"repro.engine.broadcast.release": 0}
        ),
        double_release_ok=False,
        release_hint=(
            "unlink() the segment on every path (try/finally), register "
            "it with repro.engine.broadcast, or hand it to an owner"
        ),
    ),
    ResourceProtocol(
        name="broadcast-segment",
        describe="published broadcast segment",
        acquire=frozenset({"repro.engine.broadcast.publish"}),
        result_index=1,
        release_methods=frozenset({"unlink"}),
        neutral_methods=frozenset({"close"}),
        release_functions=MappingProxyType(
            {"repro.engine.broadcast.release": 0}
        ),
        release_hint=(
            "call repro.engine.broadcast.release(segment.name) when the "
            "session ends, or store the segment on the owning session"
        ),
    ),
    ResourceProtocol(
        name="process-pool",
        describe="process pool",
        acquire=frozenset(
            {
                "concurrent.futures.ProcessPoolExecutor",
                "concurrent.futures.process.ProcessPoolExecutor",
                "concurrent.futures.ThreadPoolExecutor",
                "concurrent.futures.thread.ThreadPoolExecutor",
            }
        ),
        release_methods=frozenset({"shutdown"}),
        release_hint=(
            "shutdown() the pool on every path, or use it as a context "
            "manager"
        ),
    ),
    ResourceProtocol(
        name="engine-executor",
        describe="executor/engine",
        acquire=frozenset(
            {
                "repro.engine.core.ExecutionEngine.with_workers",
                "repro.engine.ExecutionEngine.with_workers",
            }
        ),
        release_methods=frozenset({"close"}),
        release_hint=(
            "close() the engine on every path, or use it as a context "
            "manager"
        ),
    ),
    ResourceProtocol(
        name="file-handle",
        describe="file handle",
        acquire=frozenset({"open", "io.open", "gzip.open", "bz2.open"}),
        release_methods=frozenset({"close"}),
        release_hint="use `with open(...)` or close() in a finally block",
    ),
    ResourceProtocol(
        name="temp-directory",
        describe="temporary directory",
        acquire=frozenset({"tempfile.TemporaryDirectory"}),
        release_methods=frozenset({"cleanup"}),
        release_hint=(
            "cleanup() the directory or use it as a context manager"
        ),
    ),
    ResourceProtocol(
        name="written-temp-file",
        describe="on-disk temp file",
        acquire=frozenset({"open", "io.open"}),
        acquire_from_arg=0,
        release_methods=frozenset({"unlink", "rename", "replace"}),
        release_functions=MappingProxyType(
            {
                "os.replace": 0,
                "os.rename": 0,
                "os.remove": 0,
                "os.unlink": 0,
            }
        ),
        track_use=False,
        release_hint=(
            "rename the temp file into place (os.replace) on success "
            "and unlink it on every failure path"
        ),
    ),
)


#: Union of all release-method names, used by the escape index (which
#: does not know which protocol a parameter carries).
ALL_RELEASE_METHODS: frozenset[str] = frozenset().union(
    *(protocol.release_methods for protocol in KNOWN_PROTOCOLS)
)

#: canonical release function -> (protocol, released-argument index).
RELEASE_FUNCTIONS: dict[str, tuple[ResourceProtocol, int]] = {
    canonical: (protocol, index)
    for protocol in KNOWN_PROTOCOLS
    for canonical, index in protocol.release_functions.items()
}


def _constant_truthy(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and bool(node.value)


def _open_mode(call: ast.Call) -> str | None:
    """The mode string of an ``open``-style call, when statically known."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _looks_like_temp_name(name: str) -> bool:
    lowered = name.lower()
    return any(part in lowered for part in _TEMP_NAME_PARTS)


def match_acquire(
    canonical: str | None, call: ast.Call
) -> list[tuple[ResourceProtocol, ast.expr | None]]:
    """Protocols acquired by ``call`` (usually zero or one).

    Returns ``(protocol, bound_argument)`` pairs; the bound argument is
    the path expression for ``acquire_from_arg`` protocols and ``None``
    for result-style acquisitions. A single call can acquire both — an
    ``open(tmp, "w")`` produces a file handle *and* an on-disk temp
    file.
    """
    if canonical is None:
        return []
    matches: list[tuple[ResourceProtocol, ast.expr | None]] = []
    for protocol in KNOWN_PROTOCOLS:
        if canonical not in protocol.acquire:
            continue
        if protocol.require_kwarg is not None:
            supplied = {
                keyword.arg: keyword.value for keyword in call.keywords
            }
            value = supplied.get(protocol.require_kwarg)
            if value is None or not _constant_truthy(value):
                continue
        if protocol.acquire_from_arg is not None:
            index = protocol.acquire_from_arg
            if index >= len(call.args):
                continue
            target = call.args[index]
            name = target.id if isinstance(target, ast.Name) else None
            if name is None or not _looks_like_temp_name(name):
                continue
            mode = _open_mode(call)
            if mode is None or not (set(mode) & _WRITE_MODE_CHARS):
                continue
            matches.append((protocol, target))
        else:
            matches.append((protocol, None))
    return matches


__all__ = [
    "ALL_RELEASE_METHODS",
    "KNOWN_PROTOCOLS",
    "RELEASE_FUNCTIONS",
    "ResourceProtocol",
    "match_acquire",
]
