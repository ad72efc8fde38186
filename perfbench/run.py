"""orthojac benchmark: four CLI workloads, CPU-time throughput, traced per-module spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/``.  ``--workload all`` runs the four workloads one
after another.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run.  See perfbench/README.md for what each metric
means and which one a change to each module should move.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench_work")
# fresh processes per run that only set up
SETUP_PROCESSES = 6
PROCESS_TIMEOUT_S = 150
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, env=env, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record() -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), None)
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "git_revision": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
    }


def spawn(workload: str, work: str, tag: str, extra: list) -> dict | None:
    """Run one worker process to completion; its JSON result, or None."""
    result_path = os.path.join(work, f"{tag}.json")
    env = dict(os.environ, PYTHONHASHSEED="0", **PIN)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--config", os.path.join(work, "config.json"), "--work", work,
           "--result", result_path, *extra]
    with open(os.path.join(work, f"{tag}.log"), "w", encoding="utf-8") as log:
        try:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  timeout=PROCESS_TIMEOUT_S, check=False).returncode
        except subprocess.TimeoutExpired:
            return None
    if code != 0 or not os.path.exists(result_path):
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, machine: dict) -> dict:
    """One run: set-up samples, then the closed loop (plain or traced)."""
    workload = WORKLOADS[name]
    work = os.path.join(WORK_DIR, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(workload.make_config(seed), fh, indent=1)

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine, "loadavg_start": _read("/proc/loadavg").strip()}
    problems = []
    setups = []
    if not trace:
        for i in range(SETUP_PROCESSES):
            sample = spawn(name, work, f"setup_{i}", ["--setup-only"])
            if sample is None or sample.get("setup_s") is None:
                problems.append(f"set-up process {i} failed (see {work})")
            else:
                setups.append(sample["setup_s"])
    main = spawn(name, work, "main",
                 ["--seconds", str(seconds)] + (["--trace"] if trace else []))
    record["loadavg_end"] = _read("/proc/loadavg").strip()
    if main is None:
        raise RuntimeError(f"{name}: the benchmark worker failed; see {work}/main.log")

    invocations = main.pop("invocations")
    failed = [inv for inv in invocations if inv["problems"]]
    for inv in failed:
        problems += inv["problems"]
    if main.get("unrestored"):
        problems.append(f"tracer left patched bindings: {main['unrestored']}")
    record.update(
        blas=main["blas"],
        attempted=len(invocations),
        failed=len(failed),
        problems=problems,
        setup_samples_s=setups,
        cpu_items_per_s=main.get("cpu_items_per_s"),
        wall_items_per_s=main.get("wall_items_per_s"),
    )
    if trace:
        record["metrics"] = main["per_layer"]
        record["spans"] = main["spans"]
    else:
        record["metrics"] = {
            "items_per_s": main["items_per_s"],
            "setup_s": statistics.median(setups) if setups else None,
            "peak_rss_mb": main["peak_rss_mb"],
        }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def metric_units() -> dict:
    units = {name: unit for name, (unit, _better) in tracer.metric_units().items()}
    units.update(END_TO_END_UNITS)
    return units


def report(record: dict, units: dict) -> None:
    attempted, failed = record["attempted"], record["failed"]
    print(f"== {record['workload']} seed={record['seed']}: {attempted} invocations,"
          f" {failed} failed")
    width = max(len(name) for name in record["metrics"])
    for name, value in record["metrics"].items():
        print(f"  {name:<{width}}  {value!r} {units[name]}")
    print(f"  {'failed_frac':<{width}}  {failed / attempted!r} ({failed}/{attempted})")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}")
    env = {key: record[key] for key in ("loadavg_start", "loadavg_end", "blas",
                                        "setup_samples_s", "cpu_items_per_s",
                                        "wall_items_per_s")}
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orthojac", "cli.py")):
        print(f"error: no orthojac sources under {ROOT}/src; run from a checkout"
              " of the repository", file=sys.stderr)
        return 2

    # byte-compile once, so no set-up sample pays for compiling the package
    compileall.compile_dir(os.path.join(ROOT, "src", "orthojac"), quiet=1)
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = metric_units()
    started = time.perf_counter()
    records = []
    for name in names:
        try:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        machine))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(records[-1], units)
    print(f"total wall {time.perf_counter() - started:.1f} s")

    prefix = len(records) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + name: {"value": value,
                                                                "unit": units[name]}
               for r in records for name, value in r["metrics"].items()}
    if any(metric["value"] is None for metric in metrics.values()):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(not r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
