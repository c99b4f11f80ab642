import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402


def _run(normalised_wall: float, pass_walls: list[float]) -> dict:
    return {
        "context": {"passes": {"wall_s": pass_walls}},
        "result": {"metrics": {"wall_s": {"value": normalised_wall, "unit": "s"}}},
    }


def test_raw_pass_wall_is_summarised_next_to_the_normalised_metrics():
    # the normalised wall_s reads the change as slower; the raw pass walls show it faster in every pair
    pairs = [
        {"parent": _run(1.0, [3.0, 3.2, 3.1]), "change": _run(1.5, [2.6, 2.7, 2.5])},
        {"parent": _run(1.1, [3.3, 3.4, 3.5]), "change": _run(1.6, [2.8, 2.9, 3.0])},
        {"parent": _run(0.9, [3.6, 3.5, 3.4]), "change": _run(1.4, [2.7, 2.6, 2.5])},
    ]
    spec = [{"name": "wall_s", "unit": "s", "better": "lower"}, bench_pairs.RAW_PASS_WALL]
    summary = bench_pairs.compare(pairs, spec)
    assert summary["wall_s"]["change_wins"] == 0
    raw = summary["raw_pass_wall_s"]
    assert raw["change_wins"] == 3
    assert raw["parent"]["median"] == 3.4  # medians of the runs: 3.1, 3.4, 3.5
    assert raw["change"]["median"] == 2.6  # 2.6, 2.9, 2.6
    assert raw["median_gap"] == 2.6 - 3.4
    assert raw["better_by_more_than_parent_iqr"]  # parent quartiles 3.1 and 3.5
