"""Frozen golden reference for short runs of the benchmark suites.

``tests/golden/suites_20s.npz`` is a ``tools/suite_diff.py`` snapshot of all
32 experiments of both suites cut to 20 s. The tests take a fresh snapshot and
hold each experiment to the golden with ``suite_diff.compare``: events, R
series and text cells exactly, y, u and the numeric summary cells within
``suite_diff.ATOL``.

Check that the golden is fresh, without touching it, with

    python tools/suite_diff.py save /tmp/g.npz --seconds 20
    python tools/suite_diff.py compare tests/golden/suites_20s.npz /tmp/g.npz

which should report every experiment bit-identical; the second command's lines
are what a declared regeneration quotes as moved. Regenerate after a
deliberate behaviour change with

    python tools/suite_diff.py save tests/golden/suites_20s.npz --seconds 20
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import suite_diff  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "suites_20s.npz"
SECONDS = 20.0
NAMES = [raw["name"] for raw in suite_diff.suite_configs(ROOT)]


@pytest.fixture(scope="module")
def golden():
    return suite_diff.load(GOLDEN)


@pytest.fixture(scope="module")
def diffs(golden):
    return suite_diff.compare(golden, suite_diff.snapshot(ROOT, SECONDS))


def test_golden_covers_every_experiment(golden):
    meta = golden[0]
    assert list(meta) == NAMES
    assert sorted(run["summary"]["controller"] for run in meta.values()) == ["pac"] * 16 + ["pid"] * 16


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(name, diffs):
    line, problems = diffs[name]
    assert problems == [], line

