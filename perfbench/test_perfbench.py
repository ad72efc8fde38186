"""Self-tests of the benchmark harness: ``python3 -m pytest -q perfbench``."""

import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Workload, artifact_digest  # noqa: E402

from orthojac import cli  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    assert tr.self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_spans_and_per_name_self_time():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = tr.Tracer(clock=lambda: next(ticks))
    outer, inner = tracer.intern("cli.cmd_spectrum"), tracer.intern("linalg.svd_values")
    root = tracer.open(outer)
    for _ in range(2):
        tracer.close(tracer.open(inner))      # [1, 2] then [3, 4]
    tracer.close(tracer.open(inner))          # [5, 9]
    tracer.close(root)                        # [0, 10]
    tracer.calls.update({"linalg.svd_values": 3})
    names, parents, starts, ends = tracer.arrays()
    assert parents.tolist() == [-1, 0, 0, 0]
    metrics = tr.per_layer_metrics(tracer, 1)
    assert metrics["linalg.svd_values.self_s"] == 6.0
    assert metrics["linalg.svd_values.calls"] == 3
    assert metrics["cli.cmd_spectrum.self_s"] == 4.0
    assert metrics["linalg.svd_values.p50_ms"] == 1000.0


def _tiny_verify(tmp_path, probes=3):
    config = {"command": "verify", "seed": 1, "layers": [
        {"name": "a", "probes": probes, "layer": {
            "type": "case_ii", "n": 6, "B": {"seed": 3}, "b": [0.1] * 6, "ell": 1.0,
            "c": 0.0, "d": -2.0,
            "sigma": {"breakpoints": [0.0], "slopes": [0.0, 1.0], "anchor_value": 0.0}}}]}
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(config))
    return ["verify", "--config", str(path), "--out", str(tmp_path / "out")]


def test_every_wrapper_is_restored_after_a_traced_run(tmp_path):
    import orthojac.linalg
    import orthojac.verify

    original_svd = orthojac.linalg.svd_values
    before = tr.bindings()
    tracer = tr.Tracer()
    tracer.install()
    try:
        # every binding site of a function is wrapped, not only its home module
        for module in (orthojac.linalg, orthojac.verify, cli):
            assert module.svd_values is not original_svd
        assert tr.changed_bindings(before, tr.bindings())
        assert cli.main(_tiny_verify(tmp_path)) == 0
    finally:
        tracer.uninstall()
    assert tr.changed_bindings(before, tr.bindings()) == []
    metrics = tr.per_layer_metrics(tracer, 1)
    assert metrics["linalg.svd_values.calls"] == 3
    assert metrics["verify.spectrum_probe.calls"] == 1
    assert metrics["verify.probe_yield"] == 1.0
    assert set(metrics) | {"cli.bytes_written", "trace.overhead"} == set(tr.metric_units())


def _traced_figures(tmp_path, invocations):
    """Per-layer figures of identical traced verify invocations.

    The clock advances by one tick per reading, so identical call trees
    give identical span times.
    """
    ticks = iter(range(10**9))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    for i in range(invocations):
        run_dir = tmp_path / str(i)
        run_dir.mkdir(parents=True)
        tracer.install()
        try:
            assert cli.main(_tiny_verify(run_dir)) == 0
        finally:
            tracer.uninstall()
    return tr.per_layer_metrics(tracer, invocations)


def test_per_layer_figures_do_not_grow_with_the_number_of_invocations(tmp_path):
    two = _traced_figures(tmp_path / "two", 2)
    four = _traced_figures(tmp_path / "four", 4)
    assert two["linalg.svd_values.calls"] == 3
    assert two["pwl.elements"] > 0 and two["linalg.svd_values.self_s"] > 0
    assert four == two


def _fake_workload(check):
    return Workload("fake", "fake", None, lambda config, out: 1, check, ("mark",), "")


def _fake_cli(outputs):
    """A stand-in for orthojac.cli whose main writes the next output and exits."""
    module = types.SimpleNamespace(mark=lambda: None)

    def main(argv):
        code, text = outputs.pop(0)
        out = argv[argv.index("--out") + 1]
        os.makedirs(out)
        module.mark()
        with open(os.path.join(out, "result.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
        return code

    module.main = main
    return module


def _loop(tmp_path, outputs, check=lambda config, out: []):
    config = tmp_path / "config.json"
    config.write_text("{}")
    fake = _fake_cli(outputs)
    return worker.Loop(_fake_workload(check), str(config), str(tmp_path),
                       worker.FirstCall(fake, ("mark",)), fake)


def test_nonzero_exit_and_changed_artifacts_count_as_failures(tmp_path):
    loop = _loop(tmp_path, [(0, "same"), (0, "same"), (1, "same"), (0, "other")])
    records = [loop.invoke("plain") for _ in range(4)]
    assert [bool(r["problems"]) for r in records] == [False, False, True, True]
    assert records[2]["problems"] == ["exit code 1"]
    assert "differ" in records[3]["problems"][0]
    # CPU seconds are rescaled by the machine speed measured around each call
    assert all(r["main_ref_s"] == r["main_cpu_s"] * r["speed"] for r in records[:2])
    assert worker.items_per_s(records) == pytest.approx(
        np.median([1 / r["main_ref_s"] for r in records[:2]]))


def test_spectrum_check_catches_corrupted_artifacts(tmp_path):
    workload = WORKLOADS["spectrum_deep"]
    config = workload.make_config(5)
    config["layers"] = config["layers"][:3]
    config["probes"] = 4
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--config", str(path), "--out", str(out)])
    assert workload.evaluate(config, str(out), code) == []
    digest = artifact_digest(str(out))

    probes = out / "spectrum_probes.csv"
    good = probes.read_text()
    lines = good.splitlines()
    lines[-1] = lines[-1].rsplit(",", 2)[0] + ",0.5,1.0"
    probes.write_text("\n".join(lines) + "\n")
    assert workload.evaluate(config, str(out), code)
    assert artifact_digest(str(out)) != digest
    probes.write_text(good)

    hist = out / "spectrum_histogram.csv"
    lines = hist.read_text().splitlines()
    hist.write_text("\n".join(lines[:2] + [row.rsplit(",", 1)[0] + ",0"
                                            for row in lines[2:]]) + "\n")
    assert workload.evaluate(config, str(out), code)
    hist.unlink()
    assert workload.evaluate(config, str(out), code)[0].startswith("unreadable artifact")
    assert workload.evaluate(config, str(out), 2) == ["exit code 2"]


def test_wall_clock_fields_do_not_enter_the_digest(tmp_path):
    (tmp_path / "metrics.csv").write_text("# h\nepoch,train_loss,ms_per_sample\n1,0.5,3.25\n")
    (tmp_path / "summary.json").write_text('{"best": 1, "wall_clock": {"x": 1.0}}')
    first = artifact_digest(str(tmp_path))
    (tmp_path / "metrics.csv").write_text("# h\nepoch,train_loss,ms_per_sample\n1,0.5,9.75\n")
    (tmp_path / "summary.json").write_text('{"best": 1, "wall_clock": {"x": 7.0}}')
    assert artifact_digest(str(tmp_path)) == first
    (tmp_path / "metrics.csv").write_text("# h\nepoch,train_loss,ms_per_sample\n1,0.6,9.75\n")
    assert artifact_digest(str(tmp_path)) != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_second_seed_gives_the_same_failed_frac(tmp_path, name):
    workload = WORKLOADS[name]
    failed = []
    for seed in (2, 3):
        work = tmp_path / str(seed)
        work.mkdir()
        config = work / "config.json"
        config.write_text(json.dumps(workload.make_config(seed)))
        loop = worker.Loop(workload, str(config), str(work),
                           worker.FirstCall(cli, workload.marker), cli)
        record = loop.invoke("plain")
        assert record["items"] > 0
        failed.append(len(record["problems"]))
    assert failed == [0, 0]


def test_benchmark_json_lists_what_the_harness_reports():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        tr.metric_units()
