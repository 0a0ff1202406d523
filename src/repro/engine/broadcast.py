"""Zero-copy broadcast of large array payloads to worker processes.

The pool executor broadcasts one immutable *shared payload* per
session (for placement work: the stacked per-workload cos1/cos2
allocation matrices, by far the largest state in the pipeline). The
default transport pickles the payload into every worker through the pool
initializer — one full copy per worker, serialised through a pipe.

This module publishes the payload's ndarrays through POSIX shared memory
instead (:mod:`multiprocessing.shared_memory`): the driver copies each
array once into a single segment, workers receive only a tiny picklable
:class:`SharedMemoryHandle` and map the segment, rebuilding *read-only*
ndarray views over the shared buffer. N workers then share one physical
copy with no serialisation on the critical path.

How it composes:

* :func:`publish` walks the payload (dataclasses, recursively), swaps
  every ndarray for an index slot, copies the arrays into one fresh
  segment, and returns the handle plus the driver-side segment to keep
  alive; the caller (the pool session) unlinks the segment on close.
* :func:`resolve` is its worker-side inverse, called once per process by
  the pool initializer. Attached segments are cached per process and the
  restored views are marked non-writeable, so a worker that mutates the
  "shared" payload faults immediately instead of corrupting siblings.

The pickle fallback is always preserved — :func:`publish` returns the
payload unchanged (and ``shared_bytes == 0``) when there is nothing to
gain or shared memory cannot be used:

* the payload is ``None``, not a dataclass, or contains no ndarrays
  (e.g. the failure sweep's pool/config payload before an evaluator
  payload is nested in it);
* the platform cannot allocate a segment (``/dev/shm`` missing or
  full) — the ``OSError`` is swallowed and the session degrades to the
  exact pre-existing pickle path;
* an array-stripped copy of the payload cannot be constructed (a frozen
  dataclass whose ``__post_init__`` validates the array fields).
"""

from __future__ import annotations

import atexit
import dataclasses
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Optional

import numpy as np

__all__ = ["SharedMemoryHandle", "publish", "release", "resolve"]


# Driver-side segments published and not yet released, by segment name.
# POSIX shared memory outlives the creating process: a segment whose
# session never ran close() (worker crash unwound the stack, the driver
# was interrupted mid-map) would otherwise survive in /dev/shm until
# reboot. Every publish registers here; release() (the session's close
# and degrade paths) unregisters; the atexit hook sweeps
# whatever is left when the interpreter exits.
_PUBLISHED: dict[str, shared_memory.SharedMemory] = {}


def release(name: str) -> None:
    """Close and unlink a published segment; idempotent by name.

    Unlinking while workers are still attached is safe — the kernel
    keeps the segment alive until the last mapping closes; unlinking
    just removes the name so nothing leaks.
    """
    segment = _PUBLISHED.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except OSError:  # pragma: no cover - buffer already gone
        pass
    try:
        segment.unlink()
    except OSError:  # pragma: no cover - already unlinked externally
        pass


def _release_all_published() -> None:
    """Atexit sweep: unlink every segment an aborted run left behind."""
    for name in list(_PUBLISHED):
        release(name)


atexit.register(_release_all_published)


@dataclass(frozen=True)
class _ArraySlot:
    """Placeholder for the ``index``-th array stripped out of a payload."""

    index: int


@dataclass(frozen=True)
class SharedMemoryHandle:
    """The small picklable stand-in shipped to workers.

    ``template`` is the original payload with every ndarray replaced by
    an :class:`_ArraySlot`; ``specs`` locates each array inside the
    shared segment as ``(byte offset, shape, dtype string)``.
    """

    segment_name: str
    template: Any
    specs: tuple[tuple[int, tuple[int, ...], str], ...]


def _walk(obj: Any, visit: Any) -> Any:
    """Rebuild ``obj`` with ``visit`` applied to every ndarray leaf.

    Recurses through dataclass fields only — payloads are frozen
    dataclasses by convention (the executor requires picklable,
    immutable shared state) — and returns ``obj`` itself when nothing
    underneath changed, so non-array payloads pass through untouched.
    """
    if isinstance(obj, (np.ndarray, _ArraySlot)):
        return visit(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changes = {}
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            replaced = _walk(value, visit)
            if replaced is not value:
                changes[field.name] = replaced
        return dataclasses.replace(obj, **changes) if changes else obj
    return obj


def publish(
    payload: Any,
) -> tuple[Any, Optional[shared_memory.SharedMemory], int]:
    """Move a payload's arrays into shared memory, if worthwhile.

    Returns ``(what to broadcast, driver-side segment or None, bytes
    placed in shared memory)``. The caller owns the returned segment:
    it must stay referenced while workers may attach and be
    ``close()``d + ``unlink()``ed when the session ends. On the pickle
    fallback the original payload comes back verbatim with no segment.
    """
    arrays: list[np.ndarray] = []

    def strip(leaf: Any) -> Any:
        arrays.append(np.ascontiguousarray(leaf))
        return _ArraySlot(len(arrays) - 1)

    try:
        template = _walk(payload, strip)
    except (TypeError, ValueError):
        return payload, None, 0
    total = sum(array.nbytes for array in arrays)
    if not arrays or total == 0:
        return payload, None, 0
    try:
        segment = shared_memory.SharedMemory(create=True, size=total)
    except OSError:
        return payload, None, 0
    _PUBLISHED[segment.name] = segment
    specs: list[tuple[int, tuple[int, ...], str]] = []
    offset = 0
    for array in arrays:
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf, offset=offset
        )
        view[...] = array
        specs.append((offset, array.shape, array.dtype.str))
        offset += array.nbytes
    handle = SharedMemoryHandle(
        segment_name=segment.name, template=template, specs=tuple(specs)
    )
    return handle, segment, total


# Segments this process has attached to, kept referenced so the mapped
# buffers outlive resolve() (the rebuilt views borrow their memory).
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it for cleanup.

    ``SharedMemory(name=...)`` registers the segment with the resource
    tracker, which would unlink it when the first tracked process exits
    — destroying it under the driver and the sibling workers (with
    fork-started pools the tracker is even *shared* with the driver, so
    a worker-side unregister would clobber the driver's own
    registration). Lifetime belongs to the publishing driver alone, so
    attachment suppresses registration entirely. (Python 3.13 exposes
    ``track=False`` for exactly this; this keeps 3.10–3.12 working.)
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def resolve(shared: Any) -> Any:
    """Worker-side inverse of :func:`publish`.

    Non-handle payloads (the pickle fallback, serial sessions) pass
    through unchanged. For a handle, the segment is attached once per
    process and the payload is rebuilt with read-only ndarray views over
    the shared buffer — zero copies.
    """
    if not isinstance(shared, SharedMemoryHandle):
        return shared
    segment = _ATTACHED.get(shared.segment_name)
    if segment is None:
        segment = _attach(shared.segment_name)
        _ATTACHED[shared.segment_name] = segment
    buffer = segment.buf

    def restore(slot: Any) -> Any:
        offset, shape, dtype = shared.specs[slot.index]
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buffer, offset=offset)
        view.flags.writeable = False
        return view

    return _walk(shared.template, restore)
