import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import suite_diff  # noqa: E402


def _snapshot(path: Path, runs: dict) -> Path:
    """A snapshot as ``suite_diff save`` writes it: each run is None for a divergence, else (y, R, events, cells)."""
    arrays, meta = {}, {}
    for name, run in runs.items():
        if run is None:
            meta[name] = {"error": f"{name}: diverged at step 3"}
            continue
        y, r, events, cells = run
        arrays[f"{name}:y"] = np.array(y, dtype=float)
        arrays[f"{name}:u"] = np.array(y, dtype=float) * 2.0
        arrays[f"{name}:R"] = np.array(r, dtype=int)
        meta[name] = {"error": None, "events": events, "summary": {"name": name, **cells}}
    suite_diff.write(path, (meta, arrays))
    return path


CELLS = {"controller": "pac", "rmse": 0.5, "rise_time_ms": "", "final_rule_count": 2}


def _a_pac(y=(1.0, 2.0, 3.0), r=(1, 2, 2), events=([0.01, "GROW", 2],), **cells):
    return {"a_pac": (list(y), list(r), list(events), {**CELLS, **cells})}


BASE = {**_a_pac(), "b_pid": ([0.5, 0.25, 0.125], [], [], {**CELLS, "controller": "pid", "final_rule_count": ""})}


@pytest.mark.parametrize(
    "change, status, identical",
    [
        ({}, 0, 2),
        # y and u move at round-off, a summary cell with them: within ATOL, not a failure, but not bit-identical
        (_a_pac(y=(1.0, 2.0, 3.0 + 4e-15), rmse=0.5 + 4e-15), 0, 1),
        (_a_pac(y=(1.0, 2.0, 3.0 + 1e-6)), 1, 1),
        (_a_pac(rmse=0.5 + 1e-6), 1, 1),
        (_a_pac(controller="pid"), 1, 1),
        (_a_pac(events=([0.02, "GROW", 2],)), 1, 1),
        (_a_pac(r=(1, 2, 3)), 1, 1),
        (_a_pac(y=(1.0, 2.0), r=(1, 2)), 1, 1),
        ({"b_pid": None}, 1, 1),
        ({"c_new": BASE["b_pid"]}, 1, 2),
    ],
    ids=["same", "round-off", "y", "cell", "text-cell", "events", "R", "shorter", "diverged", "only-new"],
)
def test_compare_exits_1_when_events_or_r_differ_or_one_side_ran(tmp_path, capsys, change, status, identical):
    old = _snapshot(tmp_path / "old.npz", BASE)
    new = _snapshot(tmp_path / "new.npz", {**BASE, **change})
    assert suite_diff.main(["compare", str(old), str(new)]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(f"{len({**BASE, **change})} experiments: ")
    assert lines[-1].endswith(f"; {identical} bit-identical")


def test_compare_exits_0_when_both_sides_diverge(tmp_path, capsys):
    # a run that diverged on both sides agrees, but has no arrays to be bit-identical
    runs = {**BASE, "b_pid": None}
    old, new = _snapshot(tmp_path / "old.npz", runs), _snapshot(tmp_path / "new.npz", runs)
    assert suite_diff.main(["compare", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 experiments: 2 agree within ATOL 1e-09, 0 disagree; 1 bit-identical"


def test_snapshot_keeps_an_empty_int_r_for_a_pid_run(tmp_path, capsys):
    # a PID logs no R column; its snapshot R is the empty int array, so a PID run stays bit-identical to itself
    run = {"plant": "double_integrator", "trajectory": {"kind": "constant", "level": 1.0}, "dt": 0.01}
    pac = {**run, "name": "di_pac", "controller": "pac", "controller_params": {"gamma": 1e-3}}
    pid = {**run, "name": "di_pid", "controller": "pid", "controller_params": {"kp": 1.0, "kd": 2.0}}
    (tmp_path / "configs").mkdir()
    for suite, raw in zip(suite_diff.SUITES, (pac, pid)):
        (tmp_path / "configs" / suite).write_text(yaml.safe_dump({"experiments": [raw]}))
    meta, arrays = suite_diff.snapshot(tmp_path, 0.5)
    assert arrays["di_pid:R"].dtype == int and arrays["di_pid:R"].shape == (0,)
    assert arrays["di_pac:R"].dtype == int and arrays["di_pac:R"].tolist() == [1] * 50
    assert [len(arrays[f"{name}:{k}"]) for name in ("di_pac", "di_pid") for k in "yu"] == [50] * 4
    assert meta["di_pid"]["events"] == [] and meta["di_pid"]["summary"]["final_rule_count"] == ""
    path = tmp_path / "snap.npz"
    suite_diff.write(path, (meta, arrays))
    assert suite_diff.main(["compare", str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("; 2 bit-identical")
