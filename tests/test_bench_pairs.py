"""The pair summary of ``scripts/bench_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_a_win_is_a_better_change_in_its_own_pair():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [11.0, 11.0, 12.0, 13.0, 10.0]
    higher = bench_pairs.summarize(parent, change, "higher")
    # pairs 1, 3 and 5 are better; the tie in pair 4 counts for neither side
    assert higher["change_wins"] == 3 and higher["pairs"] == 5
    assert bench_pairs.summarize(parent, change, "lower")["change_wins"] == 1
    assert higher["parent_median"] == 11.0 and higher["change_median"] == 11.0
    assert higher["median_ratio"] == 1.0 and higher["median_gap"] == 0.0
    # quartiles by linear interpolation between order statistics
    assert higher["parent_quartiles"] == [10.0, 12.0] and higher["parent_iqr"] == 2.0
    assert higher["change_quartiles"] == [11.0, 12.0]


@pytest.mark.parametrize("text, seeds", [("41-50", list(range(41, 51))), ("7", [7])])
def test_seed_ranges(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_a_tree_with_uncommitted_tracked_changes_is_refused(monkeypatch, capsys):
    # the record names HEAD, so a tree that is not HEAD is refused before any clone
    calls = []

    def fake_git(*args, cwd=bench_pairs.ROOT):
        calls.append(args[0])
        return " M src/orthojac/layers.py" if args[0] == "status" else ""

    def no_clone(*args, **kwargs):
        raise AssertionError("cloned a tree")

    monkeypatch.setattr(bench_pairs, "git", fake_git)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_clone)
    argv = ["--parent", "HEAD", "--label", "x", "--workload", "train_blobs",
            "--seeds", "1", "--seconds", "1"]
    assert bench_pairs.main(argv) == 2
    assert "uncommitted changes to tracked files" in capsys.readouterr().err
    assert calls == ["status"]


def test_all_runs_every_workload_on_both_sides_of_each_pair(monkeypatch, tmp_path):
    # a fake run_once records its calls, so no clone runs a benchmark
    declared = (_PATH.parents[1] / "BENCHMARK.json").read_text()
    (tmp_path / "BENCHMARK.json").write_text(declared)
    workloads = [w["name"] for w in json.loads(declared)["workloads"]]
    calls = []

    def fake_run_once(tree, workload, seed, seconds):
        calls.append((Path(tree).name, workload, seed))
        values = {name: {"value": float(seed)} for name in
                  ("items_per_s", "setup_s", "peak_rss_mb")}
        return {"summary": {"metrics": values}, "record": {"machine": "m", "blas": "b"}}

    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "git", lambda *args, cwd=None: "" if args[0] == "status"
                        else "rev-" + args[-1])
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: None)
    monkeypatch.setattr(bench_pairs, "src_sha256", lambda tree: Path(tree).name)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    argv = ["--parent", "p", "--label", "x", "--workload", "all", "--seeds", "1-3",
            "--seconds", "1", "--scratch", str(tmp_path)]
    assert bench_pairs.main(argv) == 0

    for i, seed in enumerate([1, 2, 3]):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = [(side, w, seed) for w in workloads for side in (first, second)]
        assert calls[len(pair) * i:len(pair) * (i + 1)] == pair
    assert len(calls) == 3 * 2 * len(workloads) == 24
    bench = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert list(bench["summary"]) == list(bench["runs"]) == workloads
    for runs in bench["runs"].values():
        assert [r["seed"] for r in runs["change"]] == [r["seed"] for r in runs["parent"]]
        assert [r["first"] for r in runs["parent"]] == ["parent", "change", "parent"]
