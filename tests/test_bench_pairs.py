import hashlib
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_json  # noqa: E402
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
    assert raw["claim_rule_met"] and not summary["wall_s"]["claim_rule_met"]


def _walls(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": _run(p, [p]), "change": _run(c, [c])} for p, c in zip(parent, change)]


def test_claim_rule_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    spec = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # quartiles 10.175 and 10.725
    faster = [p - 1.0 for p in parent]
    met = bench_pairs.compare(_walls(parent, faster), spec)["wall_s"]
    assert met["change_wins"] == 10 and met["claim_rule_met"]
    # 9 of 10 pairs won still meets the rule; a tie is no win, so 8 wins and a tie do not
    nine = bench_pairs.compare(_walls(parent, faster[:9] + [parent[9] + 1.0]), spec)["wall_s"]
    assert nine["change_wins"] == 9 and nine["claim_rule_met"]
    tie = bench_pairs.compare(_walls(parent, faster[:8] + [parent[8], parent[9] + 1.0]), spec)["wall_s"]
    assert tie["change_wins"] == 8 and tie["better_by_more_than_parent_iqr"] and not tie["claim_rule_met"]
    # every pair won by less than the parent's IQR: the gap does not clear the spread
    close = bench_pairs.compare(_walls(parent, [p - 0.1 for p in parent]), spec)["wall_s"]
    assert close["change_wins"] == 10 and not close["claim_rule_met"]


def test_no_regression_verdict_takes_the_bound_relative_to_the_parent_median():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # median 10.45, IQR 0.55 (5.3 %)

    def verdict(change, bound, better="lower"):
        spec = [{"name": "wall_s", "unit": "s", "better": better, "bound": bound}]
        return bench_pairs.compare(_walls(parent, change), spec)["wall_s"]["regression"]

    assert verdict([p * 1.05 for p in parent], 0.1) == "within"  # 5 % slower against a 10 % bound
    assert verdict([p * 1.2 for p in parent], 0.1) == "worse"
    assert verdict(parent, 0.1) == "within"
    # higher is better: 20 % fewer is worse, 20 % more is within
    assert verdict([p * 0.8 for p in parent], 0.1, "higher") == "worse"
    assert verdict([p * 1.2 for p in parent], 0.1, "higher") == "within"
    # the parent's own spread exceeds a 1 % bound, so no median decides it ...
    assert verdict(parent, 0.01) == "unresolved"
    assert verdict([p * 1.2 for p in parent], 0.01) == "unresolved"
    # ... unless every change run reads better than every parent run
    assert verdict([p - 1.0 for p in parent], 0.01) == "within"
    # a metric without a bound gets no verdict
    summary = bench_pairs.compare(_walls(parent, parent), [bench_pairs.RAW_PASS_WALL])
    assert summary["raw_pass_wall_s"]["regression"] is None


def _git(repo: Path, *args: str) -> str:
    cmd = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"]
    return subprocess.run([*cmd, *args], capture_output=True, text=True, check=True).stdout


def _repo(path: Path) -> Path:
    (path / "src").mkdir(parents=True)
    (path / "src" / "a.py").write_text("x = 1\n")
    (path / "configs").mkdir()
    (path / "configs" / "c.yaml").write_text("k: 1\n")
    (path / "README.md").write_text("r\n")
    _git(path, "init", "-q")
    _git(path, "add", "-A")
    _git(path, "commit", "-q", "-m", "base")
    return path


def test_checkout_label_names_uncommitted_changes(tmp_path):
    repo = _repo(tmp_path / "repo")
    sha = _git(repo, "rev-parse", "--short", "HEAD").strip()
    assert bench_json.checkout_label(repo) == sha
    (repo / "README.md").write_text("outside the benched paths\n")
    assert bench_json.checkout_label(repo) == sha
    (repo / "src" / "a.py").write_text("x = 2\n")
    diff = subprocess.run(
        ["git", "-C", str(repo), "diff", "HEAD", "--", "src", "configs", "perfbench"], capture_output=True, check=True
    ).stdout
    first = bench_json.checkout_label(repo)
    assert first == f"{sha}+{hashlib.sha256(diff).hexdigest()[:8]}"
    (repo / "src" / "a.py").write_text("x = 3\n")
    second = bench_json.checkout_label(repo)
    assert second.startswith(f"{sha}+") and second != first
    # a new file that git does not track yet is part of the change too
    (repo / "src" / "b.py").write_text("y = 1\n")
    assert bench_json.checkout_label(repo) not in (sha, first, second)


def test_bench_pairs_refuses_two_checkouts_with_one_label(tmp_path, capsys):
    repo = _repo(tmp_path / "repo")
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "-q", str(repo), str(clone)], check=True)
    # no BENCHMARK.json in either: the refusal comes before anything is read or run
    assert bench_pairs.main([str(repo), str(clone), "--workload", "w"]) == 2
    (repo / "configs" / "c.yaml").write_text("k: 2\n")
    (clone / "configs" / "c.yaml").write_text("k: 2\n")
    assert bench_pairs.main([str(repo), str(clone), "--workload", "w"]) == 2
    assert "nothing to compare" in capsys.readouterr().err
