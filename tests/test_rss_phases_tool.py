"""``tools/rss_phases.py --quick``: one marked run end to end.

The tool patches ``Instrumentation.stage`` and the correlation seed for
the rest of its process, so it runs in a subprocess of its own, on the
benchmark's tiny ensembles.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "rss_phases.py"


def _rows(stdout):
    """``(label, ru_maxrss, VmRSS)`` of each mark row of the tool's table."""
    return [
        (line[:48].strip(), float(line.split()[-3]), float(line.split()[-1]))
        for line in stdout.splitlines()[1:]
        if not line.startswith("peak ")
    ]


@pytest.fixture(scope="module")
def year_long_quick():
    done = subprocess.run(
        [sys.executable, str(_PATH), "--workload", "year_long", "--quick"],
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


class TestQuickRun:
    def test_every_mark_is_printed_in_order(self, year_long_quick):
        labels = [label for label, _, _ in _rows(year_long_quick)]
        expected = [
            "setup: imports",
            "setup: inputs",
            "cold: stage translation",
            "cold: correlation seed (4 workloads)",
            "cold: stage placement",
            "cold: validator",
            "repeat: stage translation",
            "repeat: correlation seed (4 workloads)",
            "repeat: stage placement",
            "repeat: validator",
        ]
        positions = [labels.index(label) for label in expected[:6]]
        assert positions == sorted(positions)
        assert set(expected) <= set(labels)

    def test_the_peak_never_falls_and_is_summed_up(self, year_long_quick):
        peaks = [peak for _, peak, _ in _rows(year_long_quick)]
        assert peaks == sorted(peaks) and peaks[0] > 0
        last = year_long_quick.strip().splitlines()[-1]
        assert last.startswith(f"peak {peaks[-1]:.1f} MB, first reached by ")
