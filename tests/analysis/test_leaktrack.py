"""Tests for the runtime resource-leak tracker (``ROPUS_LEAKTRACK``)."""

from __future__ import annotations

import io
import tempfile

import pytest

from repro.analysis import leaktrack


@pytest.fixture()
def armed():
    """Install the tracker for one test, restoring originals after.

    Skipped when the whole session runs under ``ROPUS_LEAKTRACK=1``
    (the CI smoke job): uninstalling here would disarm the session-wide
    tracker these tests exist to exercise.
    """
    if leaktrack.installed():
        pytest.skip("tracker armed session-wide; not toggling it")
    leaktrack.install()
    try:
        yield
    finally:
        leaktrack.uninstall()


class TestInstall:
    def test_install_uninstall_restores_originals(self):
        if leaktrack.installed():
            pytest.skip("tracker armed session-wide; not toggling it")
        original = tempfile.TemporaryDirectory.__init__
        leaktrack.install()
        assert leaktrack.installed()
        leaktrack.install()  # idempotent
        leaktrack.uninstall()
        assert not leaktrack.installed()
        assert tempfile.TemporaryDirectory.__init__ is original

    def test_maybe_install_respects_the_flag(self, monkeypatch):
        if leaktrack.installed():
            pytest.skip("tracker armed session-wide; not toggling it")
        monkeypatch.delenv(leaktrack.ENV_FLAG, raising=False)
        assert leaktrack.maybe_install() is False
        assert not leaktrack.installed()
        monkeypatch.setenv(leaktrack.ENV_FLAG, "1")
        try:
            assert leaktrack.maybe_install() is True
            assert leaktrack.installed()
        finally:
            leaktrack.uninstall()


class TestTracking:
    def test_temp_directory_tracked_until_cleanup(self, armed):
        before = len(leaktrack.live_resources())
        tmpdir = tempfile.TemporaryDirectory()
        try:
            records = leaktrack.live_resources()
            assert len(records) == before + 1
            newest = records[-1]
            assert newest.kind == "temporary directory"
            assert newest.label == tmpdir.name
            assert newest.stack  # acquisition stack was captured
        finally:
            tmpdir.cleanup()
        assert len(leaktrack.live_resources()) == before

    def test_report_lists_open_resources(self, armed):
        tmpdir = tempfile.TemporaryDirectory()
        try:
            sink = io.StringIO()
            count = leaktrack.report(sink)
            assert count >= 1
            text = sink.getvalue()
            assert "still open" in text
            assert tmpdir.name in text
        finally:
            tmpdir.cleanup()

    def test_quiet_when_nothing_open(self, armed):
        for record in list(leaktrack.live_resources()):
            pass  # nothing acquired by this test itself
        sink = io.StringIO()
        if leaktrack.live_resources():
            pytest.skip("other live resources in this process")
        assert leaktrack.report(sink) == 0
        assert sink.getvalue() == ""

    def test_counters_accumulate(self, armed):
        acquired = leaktrack.counters["acquired"]
        released = leaktrack.counters["released"]
        tmpdir = tempfile.TemporaryDirectory()
        tmpdir.cleanup()
        assert leaktrack.counters["acquired"] == acquired + 1
        assert leaktrack.counters["released"] == released + 1
