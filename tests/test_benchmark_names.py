"""The names the benchmark in ``perfbench/`` looks up in the package still exist,
and each of its workloads runs once and passes its own output check.

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

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_runs_once_and_passes_its_check(workload, tmp_path, monkeypatch):
    w = workloads.WORKLOADS[workload]
    config = w.make_config(1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    fired = []
    for name in w.marker:
        def marked(*args, _name=name, _inner=getattr(cli, name), **kwargs):
            fired.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(cli, name, marked)
    out = str(tmp_path / "out")
    code = cli.main([w.command, "--config", str(path), "--out", out])
    assert fired, f"no marker of {w.marker} fired"
    assert w.evaluate(config, out, code) == []
