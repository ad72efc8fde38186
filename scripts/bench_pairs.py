#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against HEAD.

Usage:
    python3 scripts/bench_pairs.py --parent REV --label NAME --workload W
        --seeds FIRST-LAST --seconds S [--what TEXT] [--scratch DIR]

For each seed from FIRST to LAST, ``perfbench/run.py --workload W --seed N
--seconds S --trace 0`` runs once in a clone of revision REV and once in a
clone of HEAD.  The first pair runs the parent first, the next the change
first, and so on, so a drift in machine speed reaches both sides alike.  With
``--workload all`` each seed's pair runs every workload of ``BENCHMARK.json``
in turn, each on both sides in that pair's order, in the same two clones.  Both
clones are made the same way, with ``git clone`` side by side under a fresh
directory of DIR (default: the system temporary directory), and removed at
the end; nothing runs from the working tree.  The record names HEAD by its
revision, so a working tree whose tracked files have uncommitted changes is
refused.  (Leave ``PYTHONPYCACHEPREFIX`` unset: NumPy's modules would then be
compiled afresh in every process, which multiplies ``setup_s``.)

The result is ``BENCH_<NAME>.json`` at the top of the working tree: for each
end-to-end metric of ``BENCHMARK.json``, both sides' medians and quartiles,
the ratio of the medians, the parent's interquartile range, and in how many
pairs the change was better, per workload; every run's summary line and
record; and both git revisions with a SHA-256 of each clone's ``src/``.
Running the script again with the same label, parent and HEAD adds or
replaces the entries of the workloads it runs and keeps the others'.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds <S> --trace 0"


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", "-C", cwd, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def src_sha256(tree: str) -> str:
    """SHA-256 over every file under ``tree``'s ``src/`` that git lists (tracked, or
    untracked and not ignored), in path order: its path, a NUL, its bytes, a NUL."""
    paths = sorted(git("ls-files", "--cached", "--others", "--exclude-standard", "-z",
                       "src", cwd=tree).split("\0"))
    digest = hashlib.sha256()
    for path in filter(None, paths):
        full = os.path.join(tree, path)
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                digest.update(path.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def summarize(parent: list, change: list, better: str) -> dict:
    """Both sides' medians and quartiles over paired runs, and the change's wins."""
    def quartiles(values):
        if len(values) < 2:
            return [values[0], values[0]]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return [q1, q3]

    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "median_ratio": c_med / p_med,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "parent_quartiles": p_q,
        "change_quartiles": c_q,
        "parent_iqr": p_q[1] - p_q[0],
        "median_gap": c_med - p_med,
    }


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its summary line and its record."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {done.returncode}:"
                           f" {done.stderr.strip()[-500:]}")
    with open(os.path.join(tree, ".perfbench_work", workload, "result.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    keep = ("cpu_items_per_s", "wall_items_per_s", "setup_samples_s", "loadavg_start",
            "loadavg_end", "machine", "blas")
    return {"summary": json.loads(lines[-1]), "record": {k: record.get(k) for k in keep}}


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="FIRST-LAST: one pair per seed")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--scratch", default=None,
                        help="where the two clones go (default: system temp dir)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = ([w["name"] for w in declared["workloads"]] if args.workload == "all"
                 else [args.workload])
    if git("status", "--porcelain", "--untracked-files=no"):
        print("error: the working tree has uncommitted changes to tracked files;"
              " commit them, since the record names HEAD", file=sys.stderr)
        return 2
    revisions = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
                 "change": git("rev-parse", "HEAD")}
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")

    work = tempfile.mkdtemp(prefix="bench_pairs_", dir=args.scratch)
    try:
        trees, sides = {}, {}
        for side, rev in revisions.items():
            trees[side] = os.path.join(work, side)
            subprocess.run(["git", "clone", "--quiet", "--no-checkout", ROOT, trees[side]],
                           check=True)
            git("checkout", "--quiet", "--detach", rev, cwd=trees[side])
            sides[side] = {"git_revision": rev, "src_sha256": src_sha256(trees[side])}

        bench = {}
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                bench = json.load(fh)
            if any(bench.get(side) != record for side, record in sides.items()):
                print(f"error: {out_path} records another parent or HEAD;"
                      " choose another label", file=sys.stderr)
                return 2
        bench.update(sides, command=COMMAND,
                     order="each pair runs both clones; the first pair runs the parent"
                           " first, the next the change first, and so on")
        if args.what:
            bench["what"] = args.what
        runs = {workload: {"parent": [], "change": []} for workload in workloads}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(trees[side], workload, seed, args.seconds)
                    runs[workload][side].append({"seed": seed, "first": order[0], **result})
                    values = result["summary"]["metrics"]
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{name} {values[name]['value']:.6g}" for name in metrics), flush=True)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for workload, sides_runs in runs.items():
        summary = {name: summarize(
            [r["summary"]["metrics"][name]["value"] for r in sides_runs["parent"]],
            [r["summary"]["metrics"][name]["value"] for r in sides_runs["change"]], better)
            for name, better in metrics.items()}
        bench.setdefault("summary", {})[workload] = summary
        bench.setdefault("runs", {})[workload] = sides_runs
        for name, row in summary.items():
            print(f"{workload} {name}: parent {row['parent_median']:.6g},"
                  f" change {row['change_median']:.6g} ({row['median_ratio']:.3f}x),"
                  f" change better in {row['change_wins']} of {row['pairs']}")
    record = runs[workloads[-1]]["change"][-1]["record"]
    bench.update(machine=record["machine"], blas=record["blas"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
