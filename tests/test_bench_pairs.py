"""The pair summary of ``scripts/bench_pairs.py``."""

import importlib.util
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
