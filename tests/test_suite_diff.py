import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import suite_diff  # noqa: E402


def _snapshot(path: Path, runs: dict) -> Path:
    """A snapshot as ``suite_diff save`` writes it: each run is None for a divergence, else (y, R, events)."""
    arrays, meta = {}, {}
    for name, run in runs.items():
        if run is None:
            meta[name] = {"error": f"{name}: diverged at step 3"}
            continue
        y, r, events = run
        arrays[f"{name}:y"] = np.array(y, dtype=float)
        arrays[f"{name}:u"] = np.array(y, dtype=float) * 2.0
        arrays[f"{name}:R"] = np.array(r, dtype=int)
        meta[name] = {"error": None, "events": events, "summary": {"name": name, "rmse": repr(float(y[-1]))}}
    np.savez_compressed(path, meta=np.array(json.dumps(meta)), **arrays)
    return path


BASE = {
    "a_pac": ([1.0, 2.0, 3.0], [1, 2, 2], [[0.01, "GROW", 2]]),
    "b_pid": ([0.5, 0.25, 0.125], [], []),
}


@pytest.mark.parametrize(
    "change, status",
    [
        ({}, 0),
        # y and u move at round-off, a summary cell with them: a declared tolerance, not a failure
        ({"a_pac": ([1.0, 2.0, 3.0 + 4e-15], [1, 2, 2], [[0.01, "GROW", 2]])}, 0),
        ({"a_pac": ([1.0, 2.0, 3.0], [1, 2, 2], [[0.02, "GROW", 2]])}, 1),
        ({"a_pac": ([1.0, 2.0, 3.0], [1, 2, 3], [[0.01, "GROW", 2]])}, 1),
        ({"a_pac": ([1.0, 2.0], [1, 2], [[0.01, "GROW", 2]])}, 1),
        ({"b_pid": None}, 1),
        ({"c_new": BASE["b_pid"]}, 1),
    ],
    ids=["same", "round-off", "events", "R", "shorter", "diverged", "only-new"],
)
def test_compare_exits_1_when_events_or_r_differ_or_one_side_ran(tmp_path, capsys, change, status):
    old = _snapshot(tmp_path / "old.npz", BASE)
    new = _snapshot(tmp_path / "new.npz", {**BASE, **change})
    assert suite_diff.main(["compare", str(old), str(new)]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(f"{len({**BASE, **change})} experiments: ")


def test_compare_exits_0_when_both_sides_diverge(tmp_path):
    runs = {**BASE, "b_pid": None}
    old, new = _snapshot(tmp_path / "old.npz", runs), _snapshot(tmp_path / "new.npz", runs)
    assert suite_diff.main(["compare", str(old), str(new)]) == 0
