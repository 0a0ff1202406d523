"""Tests for the shared-memory payload broadcast.

:func:`publish`/:func:`resolve` must be exact inverses for array-bearing
dataclass payloads, must degrade to the pickle path (payload returned
verbatim, no segment) whenever shared memory cannot help, and must hand
workers *read-only* views so a mutation faults instead of corrupting
sibling processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import broadcast
from repro.engine.broadcast import (
    _ATTACHED,
    _PUBLISHED,
    _release_all_published,
    SharedMemoryHandle,
    publish,
    release,
    resolve,
)
from tests.analysis.invariant_checks import stranded_segments


@dataclass(frozen=True)
class _Inner:
    matrix: np.ndarray
    label: str


@dataclass(frozen=True)
class _Payload:
    inner: _Inner
    vector: np.ndarray
    scale: float


@pytest.fixture
def payload():
    return _Payload(
        inner=_Inner(matrix=np.arange(12.0).reshape(3, 4), label="m"),
        vector=np.linspace(0.0, 1.0, 7),
        scale=2.5,
    )


def _cleanup(segment):
    """Release driver and worker sides of a published segment."""
    name = segment.name
    attached = _ATTACHED.pop(name, None)
    if attached is not None:
        attached.close()
    segment.close()
    segment.unlink()


class TestPublish:
    def test_strips_arrays_into_one_segment(self, payload):
        shared, segment, nbytes = publish(payload)
        try:
            assert isinstance(shared, SharedMemoryHandle)
            assert nbytes == (
                payload.inner.matrix.nbytes + payload.vector.nbytes
            )
            assert len(shared.specs) == 2
            # Non-array fields ride along in the template untouched.
            assert shared.template.inner.label == "m"
            assert shared.template.scale == 2.5
        finally:
            _cleanup(segment)

    @pytest.mark.parametrize(
        "value",
        [
            None,
            {"not": "a dataclass"},
            _Inner(matrix=np.empty(0), label="empty"),
        ],
    )
    def test_falls_back_to_pickle_when_nothing_to_share(self, value):
        # Nothing shareable: publish returns segment=None, so there is
        # no resource to release on this path.
        shared, segment, nbytes = publish(value)
        assert shared is value
        assert segment is None
        assert nbytes == 0


class TestResolve:
    def test_roundtrip_restores_equal_arrays(self, payload):
        shared, segment, _ = publish(payload)
        try:
            restored = resolve(shared)
            np.testing.assert_array_equal(
                restored.inner.matrix, payload.inner.matrix
            )
            np.testing.assert_array_equal(restored.vector, payload.vector)
            assert restored.inner.label == "m"
            assert restored.scale == 2.5
        finally:
            _cleanup(segment)

    def test_restored_views_are_read_only(self, payload):
        shared, segment, _ = publish(payload)
        try:
            restored = resolve(shared)
            with pytest.raises(ValueError):
                restored.vector[0] = 99.0
            with pytest.raises(ValueError):
                restored.inner.matrix[0, 0] = 99.0
        finally:
            _cleanup(segment)

    def test_views_are_zero_copy(self, payload):
        """The restored arrays map the segment's physical memory.

        A write through the driver's own mapping must be visible through
        the worker-side view — proof the view borrows the shared buffer
        rather than holding a deserialised copy.
        """
        shared, segment, _ = publish(payload)
        try:
            restored = resolve(shared)
            offset = shared.specs[1][0]
            driver_view = np.ndarray(
                payload.vector.shape,
                dtype=payload.vector.dtype,
                buffer=segment.buf,
                offset=offset,
            )
            driver_view[0] = 123.0
            assert restored.vector[0] == 123.0
        finally:
            _cleanup(segment)

    def test_non_handle_payloads_pass_through(self, payload):
        assert resolve(payload) is payload
        assert resolve(None) is None

    def test_segment_attached_once_per_process(self, payload):
        shared, segment, _ = publish(payload)
        try:
            resolve(shared)
            first = _ATTACHED[shared.segment_name]
            resolve(shared)
            assert _ATTACHED[shared.segment_name] is first
        finally:
            _cleanup(segment)


class TestSegmentLifecycle:
    """The leak-prevention registry: nothing may outlive its session."""

    def test_publish_registers_segment(self, payload):
        shared, segment, _ = publish(payload)
        try:
            assert _PUBLISHED[segment.name] is segment
        finally:
            _cleanup(segment)
            _PUBLISHED.pop(segment.name, None)

    def test_segment_is_owned_before_it_is_filled(self, payload):
        # The publish-leak shape of tests/analysis/test_rules.py: a
        # failure while copying into a fresh segment must find the
        # segment already in the registry.
        assert stranded_segments(broadcast, payload) == []

    def test_release_unlinks_and_is_idempotent(self, payload):
        shared, segment, _ = publish(payload)
        name = segment.name
        release(name)
        assert name not in _PUBLISHED
        # A second release of the same name is a no-op, not an error.
        release(name)
        # The name is gone from /dev/shm: re-attaching must fail.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_atexit_sweep_releases_leftovers(self, payload):
        # Deliberately leave the segment to the registry sweep — the
        # sweep being exercised *is* the release.
        shared, segment, _ = publish(payload)
        name = segment.name
        assert name in _PUBLISHED
        _release_all_published()
        assert name not in _PUBLISHED

    def test_session_close_releases_segment(self, payload):
        from repro.engine import ExecutionEngine

        with ExecutionEngine.with_workers(2) as engine:
            with engine.session(shared=payload) as session:
                names = set(_PUBLISHED)
                if session.broadcast_bytes:
                    assert names
        assert not (names & set(_PUBLISHED))
