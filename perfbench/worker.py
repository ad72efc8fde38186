"""One benchmark process: CLI invocations of one workload, closed loop.

``run.py`` starts this in a fresh interpreter with the BLAS thread count
pinned through the environment, so process CPU time covers interpreter
start, imports and set-up.  Modes:

* ``--setup-only``: stop at the first item and report the set-up time.
* ``--seconds S``: invoke the CLI again and again for S seconds, check
  each invocation's artifacts, and report per-invocation CPU time.
  With ``--trace`` every second invocation runs with the tracer installed.

The result is written as JSON to ``--result``.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, artifact_digest  # noqa: E402

# On a shared host the work done per CPU second drifts by tens of percent
# within seconds.  A fixed kernel, timed next to every measurement, gives
# the machine's speed at that moment; CPU seconds are rescaled to the speed
# at which the kernel takes CALIBRATION_REF_S (its median on a shared 2-CPU
# Intel Xeon virtual machine), so a faster or slower moment does not move
# the metrics.
CALIBRATION_REF_S = 0.0067
_CALIBRATION_MATRIX = np.arange(1024.0).reshape(32, 32) / 1024.0


def calibration_s() -> float:
    """CPU seconds of the fixed kernel: a Python loop of small NumPy dot products."""
    rows = _CALIBRATION_MATRIX
    start = time.process_time()
    total = 0.0
    for i in range(2500):
        total += float(rows[i % 32] @ rows[(i * 7) % 32])
    return time.process_time() - start


class SetupDone(BaseException):
    """Raised at the first item in set-up-only mode; passes the CLI's handlers."""


class FirstCall:
    """Notes the process CPU time at the first call of any of some cli bindings.

    ``arm()`` wraps the bindings; the first call restores them all, so the
    rest of the invocation runs unwrapped.
    """

    def __init__(self, module, names, stop: bool = False):
        self.module = module
        self.names = names
        self.stop = stop
        self.cpu = None
        self.wall = None
        self._saved = {}

    def arm(self) -> None:
        self.cpu = None
        self.wall = None
        self._saved = {name: getattr(self.module, name) for name in self.names}
        for name, original in self._saved.items():
            setattr(self.module, name, self._trigger(original))

    def _trigger(self, original):
        def first_call(*args, **kwargs):
            self.cpu = time.process_time()
            self.wall = time.perf_counter()
            self.disarm()
            if self.stop:
                raise SetupDone()
            return original(*args, **kwargs)

        return first_call

    def disarm(self) -> None:
        for name, original in self._saved.items():
            setattr(self.module, name, original)
        self._saved = {}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_record() -> dict:
    """NumPy's BLAS build and the thread count the loaded OpenBLAS reports."""
    import numpy as np

    record = {"numpy": np.__version__,
              "env_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        record["blas"] = None
    record["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["blas_threads"] = int(getter())
                record["blas_library"] = os.path.basename(path)
                break
    return record


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


class Loop:
    """Closed-loop CLI invocations with per-invocation checks."""

    def __init__(self, workload, config_path: str, work: str, marker: FirstCall, cli):
        self.workload = workload
        self.config_path = config_path
        with open(config_path, encoding="utf-8") as fh:
            self.config = json.load(fh)
        self.work = work
        self.marker = marker
        self.cli = cli
        self.invocations = []
        self.reference_digest = None

    def invoke(self, phase: str) -> dict:
        out = os.path.join(self.work, f"out_{len(self.invocations)}")
        argv = [self.workload.command, "--config", self.config_path, "--out", out]
        calibration_before = calibration_s()
        self.marker.arm()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a dead benchmark
            code = None
            problems = ["uncaught exception: " + traceback.format_exc(limit=3)]
        cpu1 = time.process_time()
        wall1 = time.perf_counter()
        self.marker.disarm()
        speed = 2.0 * CALIBRATION_REF_S / (calibration_before + calibration_s())
        if code is not None:
            problems = self.workload.evaluate(self.config, out, code)
        record = {"phase": phase, "exit_code": code, "cpu_s": cpu1 - cpu0,
                  "wall_s": wall1 - wall0, "speed": speed, "items": 0, "bytes": 0}
        if not problems and self.marker.cpu is None:
            problems = ["the first-item marker never fired"]
        if not problems:
            record["main_cpu_s"] = cpu1 - self.marker.cpu
            record["main_ref_s"] = record["main_cpu_s"] * speed
            record["main_wall_s"] = wall1 - self.marker.wall
            record["items"] = self.workload.items(self.config, out)
            record["bytes"] = dir_bytes(out)
            digest = artifact_digest(out)
            if self.reference_digest is None:
                self.reference_digest = digest
            elif digest != self.reference_digest:
                problems = ["artifacts differ from the run's first invocation"]
        record["problems"] = problems
        shutil.rmtree(out, ignore_errors=True)
        self.invocations.append(record)
        return record

    def phase(self, phase: str, seconds: float, at_least: int) -> list:
        start = time.perf_counter()
        done = []
        while len(done) < at_least or time.perf_counter() - start < seconds:
            done.append(self.invoke(phase))
        return done


def items_per_s(records: list, clock: str = "main_ref_s") -> float | None:
    rates = [r["items"] / r[clock] for r in records if not r["problems"]]
    return statistics.median(rates) if rates else None


def run(args, workload, cli) -> dict:
    loop = Loop(workload, args.config, args.work,
                FirstCall(cli, workload.marker), cli)
    # the first invocation fills caches and is checked but not timed
    loop.phase("warmup", 0.0, 1)
    if not args.trace:
        plain = loop.phase("plain", args.seconds, 2)
        # unscaled CPU and wall-clock throughput are recorded for information only
        return {"items_per_s": items_per_s(plain),
                "cpu_items_per_s": items_per_s(plain, "main_cpu_s"),
                "wall_items_per_s": items_per_s(plain, "main_wall_s"),
                "invocations": loop.invocations}

    import tracer as tr  # only traced runs load it

    # untraced and traced invocations alternate, so a drift in machine speed
    # reaches both sides of the overhead ratio alike
    before = tr.bindings()
    tracer = tr.Tracer()
    plain, traced, changed = [], [], set()
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        plain.append(loop.invoke("plain"))
        tracer.install()
        try:
            traced.append(loop.invoke("traced"))
        finally:
            tracer.uninstall()
        changed.update(tr.changed_bindings(before, tr.bindings()))
    metrics = tr.per_layer_metrics(tracer, len(traced))
    metrics["cli.bytes_written"] = sum(r["bytes"] for r in traced) / len(traced)
    plain_rate, traced_rate = items_per_s(plain), items_per_s(traced)
    metrics["trace.overhead"] = traced_rate / plain_rate if traced_rate and plain_rate else 0.0
    tracer.write(os.path.join(args.work, "spans.tsv"))
    return {"per_layer": metrics, "spans": len(tracer.span_start),
            "unrestored": sorted(changed), "invocations": loop.invocations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    from orthojac import cli

    if args.setup_only:
        marker = FirstCall(cli, workload.marker, stop=True)
        marker.arm()
        out = os.path.join(args.work, f"setup_{os.getpid()}")
        try:
            code = cli.main([workload.command, "--config", args.config, "--out", out])
        except SetupDone:
            code = None
        marker.disarm()
        shutil.rmtree(out, ignore_errors=True)
        speed = 2.0 * CALIBRATION_REF_S / (calibration_s() + calibration_s())
        result = {"setup_cpu_s": marker.cpu, "exit_code": code, "speed": speed,
                  "setup_s": marker.cpu * speed if marker.cpu is not None else None}
    else:
        result = run(args, workload, cli)
    result["peak_rss_mb"] = peak_rss_mb()
    result["blas"] = blas_record()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
