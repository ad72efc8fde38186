"""The names the benchmark in ``perfbench/`` looks up in the package still exist,
and each of its workloads runs once, passes its own output check and writes the
artifacts pinned in ``golden_digests.json`` (seed 1).

The tracer wraps functions and methods by name, and each workload marks the
end of its set-up by a ``cli`` binding; a refactor that renames one of them,
never calls a marker or changes an output the workload checks breaks the
benchmark, not the package.  The benchmark files are read here, never edited.
"""

import importlib.util
import inspect
import json
import os
import sys

import pytest

from orthojac import cli

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
GOLDEN = os.path.join(HERE, "golden_digests.json")


def _load(name: str):
    # registered under a name of its own, so the dataclasses in it resolve
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


tracer = _load("tracer")
workloads = _load("workloads")


def _module(short: str):
    return importlib.import_module(f"{tracer.PACKAGE}.{short}")


@pytest.mark.parametrize("short", sorted(tracer.FUNCTIONS))
def test_every_traced_function_is_bound_on_its_module(short):
    module = _module(short)
    for name in tracer.FUNCTIONS[short]:
        assert callable(vars(module).get(name)), f"{short}.{name}"


@pytest.mark.parametrize("short", sorted(tracer.METHODS))
def test_every_traced_method_is_in_its_class_body(short):
    module = _module(short)
    for cls_name, methods in tracer.METHODS[short].items():
        cls = vars(module).get(cls_name)
        assert inspect.isclass(cls), f"{short}.{cls_name}"
        for method in methods:
            assert callable(vars(cls).get(method)), f"{short}.{cls_name}.{method}"


def test_every_traced_layer_class_is_bound_on_layers():
    layers = _module("layers")
    for name in tracer.LAYER_CLASSES:
        assert inspect.isclass(vars(layers).get(name)), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_marker_is_bound_on_cli(workload):
    for name in workloads.WORKLOADS[workload].marker:
        assert callable(vars(cli).get(name)), f"cli.{name}"


def run_workload(name: str, work: str):
    """Run workload ``name``'s seed-1 config through ``cli.main`` in ``work``: the
    config, the output directory and the exit code."""
    w = workloads.WORKLOADS[name]
    config = w.make_config(1)
    path = os.path.join(work, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = os.path.join(work, name)
    return config, out, cli.main([w.command, "--config", path, "--out", out])


def benchmark_digests(work: str) -> dict:
    """``artifact_digest`` of every workload's seed-1 run, by workload name."""
    return {name: workloads.artifact_digest(run_workload(name, work)[1])
            for name in sorted(workloads.WORKLOADS)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_runs_once_and_passes_its_check(workload, tmp_path, monkeypatch):
    w = workloads.WORKLOADS[workload]
    fired = []
    for name in w.marker:
        def marked(*args, _name=name, _inner=getattr(cli, name), **kwargs):
            fired.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(cli, name, marked)
    config, out, code = run_workload(workload, str(tmp_path))
    assert fired, f"no marker of {w.marker} fired"
    assert w.evaluate(config, out, code) == []
    # the bits every performance change keeps, unless it names the moved digests
    with open(GOLDEN, encoding="utf-8") as fh:
        assert workloads.artifact_digest(out) == json.load(fh)["perfbench"][workload]
