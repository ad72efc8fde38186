"""End-to-end tests for the command-line interface."""

import copy
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthojac import cli, linalg, verify
from orthojac.cli import main
from orthojac.errors import ConvergenceError
from orthojac.layers import layer_from_json, layers_from_json
from orthojac.train import METRICS_HEADER
from orthojac.verify import DEFAULT_MARGIN, PASS_TOL

RELU = {"breakpoints": [0.0], "slopes": [0.0, 1.0], "anchor_value": 0.0}
LEAKY = {"breakpoints": [0.0], "slopes": [0.3, 1.0], "anchor_value": 0.0}
ABS = {"breakpoints": [0.0], "slopes": [-1.0, 1.0], "anchor_value": 0.0}
SIGMA3 = {"breakpoints": [-1.0, 0.0, 1.0], "slopes": [1.0, -1.0, 1.0, -1.0],
          "anchor_value": 1.0}

# artifact formats, pinned: verify_<name>.json and summary.json are written
# with sorted keys
VERIFY_KEYS = ("bound_epsilon", "config_sha256", "criterion", "depth", "kind",
               "max_orth_defect", "max_partial_defect", "name", "pass", "probes",
               "seed", "skipped_near_kink", "sv_max", "sv_min", "tol", "width")
SUMMARY_KEYS = ("best_epoch", "best_val_acc", "config_sha256", "epochs_run",
                "final_val_acc", "model", "stopped_early", "wall_clock",
                "weight_defect_final", "weight_defect_initial", "weight_defect_max")


def reflection_layer(n=8, seed=11, bias=0.1):
    return {"type": "case_ii", "n": n, "B": {"seed": seed}, "b": [bias] * n,
            "ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU}


def bump_limit(n=8, seed=31, bias=0.25):
    return {"type": "limit", "n": n, "B": {"seed": seed}, "b": [bias] * n,
            "m": {"kind": "gaussian_bump", "scale": 0.01},
            "q": {"kind": "constant", "value": 0.0}}


def run(tmp_path, command, config, out="out", extra=()):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / out
    code = main([command, "--config", str(path), "--out", str(out_dir), *extra])
    return code, out_dir


# ---------------------------------------------------------------------------
# config validation and exit codes
# ---------------------------------------------------------------------------


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["verify", "--config", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [
    b'{"probes": "\xff"}',
    pytest.param(b'{"probes": ' + b"1" * 5000 + b"}", marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")),
    b"[" * 100_000 + b"]" * 100_000,
], ids=["bad-utf8", "int-over-digit-limit", "deep-nesting"])
def test_undecodable_config_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    config = {"probes": 10, "turbo": True,
              "layers": [{"name": "a", "layer": reflection_layer()}]}
    code, _ = run(tmp_path, "verify", config)
    assert code == 2
    assert "turbo" in capsys.readouterr().err


def test_unknown_entry_key_exits_2(tmp_path):
    config = {"layers": [{"name": "a", "layer": reflection_layer(), "color": "red"}]}
    assert run(tmp_path, "verify", config)[0] == 2


def test_missing_required_key_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "verify", {"probes": 10})
    assert code == 2
    assert "layers" in capsys.readouterr().err


def test_command_mismatch_exits_2(tmp_path):
    config = {"command": "density",
              "layers": [{"name": "a", "layer": reflection_layer()}]}
    assert run(tmp_path, "verify", config)[0] == 2


def test_bad_criterion_duplicate_and_unsafe_names(tmp_path):
    base = {"probes": 10}
    bad_crit = {**base, "layers": [{"name": "a", "layer": reflection_layer(),
                                    "criterion": "sparkle"}]}
    assert run(tmp_path, "verify", bad_crit)[0] == 2
    dupes = {**base, "layers": [{"name": "a", "layer": reflection_layer()},
                                {"name": "a", "layer": reflection_layer(seed=12)}]}
    assert run(tmp_path, "verify", dupes)[0] == 2
    unsafe = {**base, "layers": [{"name": "../escape", "layer": reflection_layer()}]}
    assert run(tmp_path, "verify", unsafe)[0] == 2


@pytest.mark.parametrize("command, config, what", [
    ("spectrum", {"layers": [5]}, "a layer spec"),
    ("verify", {"layers": [{"name": "a", "layer": 7}]}, "a layer spec"),
    ("density", {"layer": [1]}, "a layer spec"),
    ("spectrum", {"layers": [{"type": "composed", "n": 8, "rotation": {"seed": 1},
                              "inner": [1]}]}, "a layer spec"),
    ("density", {"layer": dict(bump_limit(), m=[1])}, "a slope field"),
])
def test_non_object_layer_spec_exits_2(tmp_path, capsys, command, config, what):
    assert run(tmp_path, command, config)[0] == 2
    assert f"{what} must be a JSON object" in capsys.readouterr().err


# a non-orthogonal B: as a non-strict case-ii layer its singular values leave 1
SHEAR = [[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 0.0, 1.0]]


@pytest.mark.parametrize("strict", ["", 0, [], "false", None])
def test_strict_must_be_a_json_bool(tmp_path, capsys, strict):
    layer = dict(reflection_layer(n=4), B=SHEAR, strict=strict)
    assert run(tmp_path, "spectrum", {"probes": 20, "layers": [layer]})[0] == 2
    assert "strict must be a bool" in capsys.readouterr().err
    # the same spec runs when it says false, and the singular values show why
    # strict mode would have refused it
    code, out_dir = run(tmp_path, "spectrum",
                        {"probes": 20, "layers": [dict(layer, strict=False)]})
    assert code == 0
    rows = (out_dir / "spectrum_probes.csv").read_text().splitlines()[2:]
    assert max(float(row.split(",")[2]) for row in rows) > 1.5
    assert run(tmp_path, "spectrum", {"probes": 20, "layers": [dict(layer, strict=True)]})[0] == 2


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_strict_layer_passes(tmp_path, capsys):
    config = {"seed": 3, "probes": 200,
              "layers": [{"name": "reflection", "layer": reflection_layer()}]}
    code, out_dir = run(tmp_path, "verify", config)
    assert code == 0
    assert "reflection: pass" in capsys.readouterr().out
    report = json.loads((out_dir / "verify_reflection.json").read_text())
    assert tuple(report) == VERIFY_KEYS
    assert report["kind"] == "CaseIILayer"
    assert report["pass"] is True
    assert report["max_orth_defect"] <= 1e-10
    assert report["probes"] == 200
    assert len(report["config_sha256"]) == 64


def test_probe_settings_fall_back_from_entry_to_config_to_probe_request(tmp_path, capsys):
    config = {"tol": 1e-9, "layers": [
        {"name": "a", "layer": reflection_layer(n=4)},
        {"name": "b", "layer": reflection_layer(n=4), "seed": 4, "probes": 5}]}
    code, out_dir = run(tmp_path, "verify", config)
    assert code == 0
    reports = [json.loads((out_dir / f"verify_{name}.json").read_text()) for name in "ab"]
    assert [(r["probes"] + r["skipped_near_kink"], r["seed"], r["tol"], r["criterion"])
            for r in reports] == [(1000, 0, 1e-9, "orthogonal"), (5, 4, 1e-9, "orthogonal")]
    capsys.readouterr()
    code, out_dir = run(tmp_path, "spectrum", {"layers": [reflection_layer(n=4)]})
    assert code == 0
    kept = len((out_dir / "spectrum_probes.csv").read_text().splitlines()) - 2
    assert f"{kept} probes ({1000 - kept} skipped near kinks)" in capsys.readouterr().out


def test_verify_unchecked_leaky_fails(tmp_path):
    layer = dict(reflection_layer(seed=15, bias=0.0), strict=False, sigma=LEAKY)
    config = {"seed": 3, "probes": 50,
              "layers": [{"name": "leaky", "layer": layer}]}
    code, out_dir = run(tmp_path, "verify", config)
    assert code == 1
    report = json.loads((out_dir / "verify_leaky.json").read_text())
    assert report["pass"] is False
    assert report["max_orth_defect"] >= 0.5


def test_verify_isometry_criterion(tmp_path):
    config = {"seed": 5, "probes": 100,
              "layers": [{"name": "bump", "criterion": "isometry",
                          "layer": bump_limit(n=16)}]}
    code, out_dir = run(tmp_path, "verify", config)
    assert code == 0
    report = json.loads((out_dir / "verify_bump.json").read_text())
    assert tuple(report) == VERIFY_KEYS
    assert report["kind"] == "LimitLayer"
    assert report["criterion"] == "sv_interval"
    assert report["bound_epsilon"] is not None
    assert 1.0 - report["bound_epsilon"] <= report["sv_min"]


def test_verify_isometry_needs_limit_layer(tmp_path):
    config = {"layers": [{"name": "a", "layer": reflection_layer(),
                          "criterion": "isometry"}]}
    assert run(tmp_path, "verify", config)[0] == 2


def test_verify_seed_override_changes_hash(tmp_path):
    config = {"seed": 3, "probes": 20,
              "layers": [{"name": "reflection", "layer": reflection_layer()}]}
    _, out_a = run(tmp_path, "verify", config, out="a")
    _, out_b = run(tmp_path, "verify", config, out="b", extra=("--seed", "9"))
    rep_a = json.loads((out_a / "verify_reflection.json").read_text())
    rep_b = json.loads((out_b / "verify_reflection.json").read_text())
    assert rep_a["config_sha256"] != rep_b["config_sha256"]
    assert rep_b["seed"] == 9


def test_verify_rerun_byte_identical(tmp_path):
    config = {"seed": 3, "probes": 50,
              "layers": [{"name": "reflection", "layer": reflection_layer()}]}
    _, out_a = run(tmp_path, "verify", config, out="a")
    _, out_b = run(tmp_path, "verify", config, out="b")
    assert ((out_a / "verify_reflection.json").read_bytes()
            == (out_b / "verify_reflection.json").read_bytes())


def test_verify_svd_convergence_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    layer = dict(reflection_layer(seed=15), strict=False, sigma=LEAKY)
    config = {"seed": 3, "probes": 4,
              "layers": [{"name": "leaky", "layer": layer,
                          "criterion": "sv_interval", "epsilon": 0.7}]}
    code, _ = run(tmp_path, "verify", config)
    assert code == 1
    assert "did not converge in 1 sweeps" in capsys.readouterr().err


def test_verify_sv_interval_without_epsilon_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the entry was built or probed before it was checked")

    monkeypatch.setattr(cli, "layer_from_json", never)
    monkeypatch.setattr(cli, "layers_from_json", never)
    monkeypatch.setattr(verify, "stack_jacobian", never)
    config = {"probes": 50, "layers": [{"name": "leaky", "layer": reflection_layer(),
                                        "criterion": "sv_interval"}]}
    code, _ = run(tmp_path, "verify", config)
    assert code == 2
    assert "sv_interval criterion needs epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ({"criterion": "sv_interval"}, "'c': sv_interval criterion needs epsilon"),
    ({"probes": 0}, "c.probes must be a positive integer"),
    ({"criterion": "sv_interval", "epsilon": "0.7"}, "'c': epsilon must be a number"),
    ({"margin": "x"}, "'c': margin must be a number"),
    ({"tol": "x"}, "'c': tol must be a number"),
    ({"seed": 1.5}, "'c': seed must be an integer"),
    ({"input_scale": [1]}, "'c': input_scale must be a number"),
    ({"margin": 10**400}, "'c': margin must be finite"),
])
def test_verify_late_bad_entry_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, bad, message):
    def never(*args):
        raise AssertionError("an entry was built or probed before all were checked")

    for name in ("layer_from_json", "layers_from_json", "spectrum_probe"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(verify, "stack_jacobian", never)
    entries = [{"name": "a", "layer": reflection_layer()},
               {"name": "b", "layer": reflection_layer(seed=12)},
               dict(bad, name="c", layer=reflection_layer(seed=13))]
    code, out_dir = run(tmp_path, "verify", {"probes": 10, "layers": entries})
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(out_dir.glob("verify_*.json"))


def test_verify_batch_matches_each_entry_alone(tmp_path, monkeypatch):
    svd_widths, builds = [], []

    def counted_svd(m, *args, **kwargs):
        svd_widths.append(m.shape[-1])
        return linalg.svd_values(m, *args, **kwargs)

    def counted_build(specs):
        builds.append(len(specs))
        return layers_from_json(specs)

    monkeypatch.setattr(verify, "svd_values", counted_svd)
    monkeypatch.setattr(cli, "layers_from_json", counted_build)
    partial = {"type": "case_i", "n": 32, "A": {"seed": 41}, "B": {"seed": 42},
               "b": [0.2] * 32, "c": 0.0, "d": 1.0, "sigma": RELU, "strict": False}
    leaky = dict(reflection_layer(n=16, seed=15), strict=False, sigma=LEAKY)
    entries = [
        {"name": "orthogonal16", "layer": reflection_layer(n=16)},
        {"name": "partial32", "layer": partial, "criterion": "partial", "seed": 4},
        {"name": "leaky16", "layer": leaky, "criterion": "sv_interval",
         "epsilon": 0.7, "probes": 7},
        {"name": "bump32", "layer": bump_limit(n=32), "criterion": "isometry"},
        # a wide margin skips some probes, so the kept indices have gaps
        {"name": "none32", "layer": reflection_layer(n=32, seed=12),
         "criterion": "none", "margin": 0.05},
    ]
    code, out_dir = run(tmp_path, "verify", {"seed": 3, "probes": 20, "layers": entries})
    # "none" records without judging, so the run cannot pass
    assert code == 1
    assert sorted(svd_widths) == [16, 32]
    assert builds == [len(entries)]

    for entry in entries:
        layer = layer_from_json(entry["layer"])
        args = (layer, entry.get("probes", 20), entry.get("seed", 3))
        margin = entry.get("margin", DEFAULT_MARGIN)
        if entry.get("criterion") == "isometry":
            alone = verify.check_dynamical_isometry(*args, margin=margin, tol=PASS_TOL)
        else:
            [alone] = verify.spectrum_probe([verify.ProbeRequest(
                *args, margin=margin, criterion=entry.get("criterion", "orthogonal"),
                epsilon=entry.get("epsilon"))])
        report = json.loads((out_dir / f"verify_{entry['name']}.json").read_text())
        assert report.pop("name") == entry["name"]
        report.pop("config_sha256")
        assert report == alone.to_json()
    assert json.loads((out_dir / "verify_none32.json").read_text())["skipped_near_kink"] > 0


def test_verify_batched_convergence_failure_names_its_entry(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    leaky = dict(reflection_layer(seed=15), strict=False, sigma=LEAKY)
    config = {"seed": 3, "probes": 4,
              "layers": [{"name": "strict", "layer": reflection_layer()},
                         {"name": "leaky", "layer": leaky,
                          "criterion": "sv_interval", "epsilon": 0.7}]}
    code, out_dir = run(tmp_path, "verify", config)
    assert code == 1
    err = capsys.readouterr().err
    found = re.search(r"did not converge in 1 sweeps at probe (\d+) of 'leaky'"
                      r" \(residual ", err)
    assert found, err
    assert not list(out_dir.glob("verify_*.json"))
    # the named probe is one of the entry's own that fails alone
    monkeypatch.undo()
    [(kept, jacs, _)] = verify.probe_spectra(
        [verify.ProbeRequest([layer_from_json(leaky)], 4, 3, 1.0, DEFAULT_MARGIN)],
        verify.stack_jacobian)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        linalg.svd_values(jacs[kept.index(int(found.group(1)))])


def test_verify_entry_without_a_kept_probe_is_named(tmp_path, capsys):
    entries = [{"name": "a", "layer": reflection_layer()},
               {"name": "b", "layer": reflection_layer(seed=12), "margin": 1e9}]
    code, out_dir = run(tmp_path, "verify", {"probes": 10, "layers": entries})
    assert code == 1
    assert "'b': all 10 probes fell within the kink margin" in capsys.readouterr().err
    assert not list(out_dir.glob("verify_*.json"))


def test_verify_report_kind_of_every_family(tmp_path):
    n = 8
    b = [0.1] * n
    skip = {"ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU}
    layers = {
        "case_i": {"type": "case_i", "n": n, "A": {"seed": 1}, "B": {"seed": 2},
                   "b": b, "c": 0.0, "d": 1.0, "sigma": ABS},
        "case_ii": reflection_layer(),
        "gated": {"type": "gated", "n": n, "B": {"seed": 3}, "b": b,
                  "gate": [1.0] + [0.5] * (n - 1), "sigma": RELU},
        "composed": {"type": "composed", "n": n, "rotation": {"seed": 4},
                     "inner": reflection_layer()},
        "partitioned": {"type": "partitioned", "n": n, "A": {"seed": 5},
                        "B": {"seed": 5}, "b": b,
                        "hyperplanes": [{"normal": [1.0] * n, "offset": 0.0}],
                        "regions": [dict(skip, signs=[1]),
                                    {"signs": [-1], "ell": 0.0, "c": 0.0, "d": 1.0,
                                     "sigma": ABS}]},
        "limit": bump_limit(),
    }
    entries = [{"name": name, "layer": layer} for name, layer in layers.items()]
    entries[-1]["criterion"] = "isometry"
    code, out_dir = run(tmp_path, "verify", {"seed": 2, "probes": 8, "layers": entries})
    assert code == 0
    kinds = {name: json.loads((out_dir / f"verify_{name}.json").read_text())["kind"]
             for name in layers}
    assert kinds == {"case_i": "CaseILayer", "case_ii": "CaseIILayer",
                     "gated": "GatedLayer", "composed": "ComposedLayer",
                     "partitioned": "PartitionedLayer", "limit": "LimitLayer"}


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def spectrum_config(probes=100, **extra):
    return {"seed": 5, "probes": probes,
            "layers": [reflection_layer(seed=21, bias=0.05),
                       reflection_layer(seed=22, bias=0.05)], **extra}


def test_spectrum_strict_stack_single_bin(tmp_path):
    code, out_dir = run(tmp_path, "spectrum", spectrum_config())
    assert code == 0
    lines = (out_dir / "spectrum_probes.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "probe,sv_min,sv_max"
    assert len(lines) == 102
    hist_lines = (out_dir / "spectrum_histogram.csv").read_text().splitlines()
    assert hist_lines[0] == lines[0]
    assert hist_lines[1] == "bin_low,bin_high,count"
    hist = [line.split(",") for line in hist_lines[2:]]
    assert len(hist) == 64
    nonzero = [(float(lo), float(hi), int(c)) for lo, hi, c in hist if int(c) > 0]
    assert len(nonzero) == 1
    low, high, count = nonzero[0]
    assert low <= 1.0 < high
    assert count == 100 * 8


def test_spectrum_prints_a_collapsed_sv_range_in_e_notation(tmp_path, capsys):
    # three non-strict layers x -> 0.001 x: every singular value is 1e-9,
    # which a fixed-point format would print as 0.000000
    shrink = dict(reflection_layer(n=4), ell=0.001, d=0.0, strict=False)
    code, _ = run(tmp_path, "spectrum", {"seed": 5, "probes": 10, "layers": [shrink] * 3})
    assert code == 0
    assert ("spectrum: 10 probes (0 skipped near kinks), sv range"
            " [1.000000e-09, 1.000000e-09]") in capsys.readouterr().out


def test_spectrum_counts_huge_singular_values_in_the_last_bin(tmp_path):
    # 20 non-strict case-i layers that scale each coordinate by 9 or 11: every
    # singular value lies in [9**20, 11**20], past the int64 range once scaled
    # to bins, and still counts in the last bin
    n = 4
    eye = [[float(i == j) for j in range(n)] for i in range(n)]
    layer = {"type": "case_i", "n": n, "A": eye, "B": eye, "b": [0.0] * n,
             "c": 0.0, "d": 1.0, "strict": False,
             "sigma": {"breakpoints": [0.0], "slopes": [9.0, 11.0], "anchor_value": 0.0}}
    code, out_dir = run(tmp_path, "spectrum", {"seed": 5, "probes": 4, "layers": [layer] * 20})
    assert code == 0
    hist_lines = (out_dir / "spectrum_histogram.csv").read_text().splitlines()[2:]
    counts = [int(line.split(",")[2]) for line in hist_lines]
    assert counts == [0] * 63 + [4 * n]


def test_spectrum_all_probes_skipped_exits_1(tmp_path, capsys):
    code, _ = run(tmp_path, "spectrum", spectrum_config(probes=5, margin=1e9))
    assert code == 1
    assert "probes" in capsys.readouterr().err


def test_spectrum_agrees_with_spectrum_probe(tmp_path):
    # a margin that rejects some probes, so the kept indices have gaps
    config = spectrum_config(probes=60, margin=0.02)
    code, out_dir = run(tmp_path, "spectrum", config)
    assert code == 0
    lines = (out_dir / "spectrum_probes.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    stack = [layer_from_json(spec) for spec in config["layers"]]
    [report] = verify.spectrum_probe([verify.ProbeRequest(stack, 60, seed=5, margin=0.02)])
    assert 0 < report.skipped_near_kink < 60
    [(kept, jacs, _)] = verify.probe_spectra(
        [verify.ProbeRequest(stack, 60, 5, 1.0, 0.02)], verify.stack_jacobian)
    values = linalg.svd_values(jacs)
    assert len(rows) == len(values) == report.probes
    assert [int(row[0]) for row in rows] == kept
    for (_, lo, hi), sv in zip(rows, values):
        assert (float(lo), float(hi)) == (sv.min(), sv.max())
    assert min(float(row[1]) for row in rows) == report.sv_min
    assert max(float(row[2]) for row in rows) == report.sv_max


def test_spectrum_convergence_failure_names_its_probe(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    leaky = dict(reflection_layer(seed=15, bias=0.3), strict=False, sigma=LEAKY)
    config = {"seed": 2, "probes": 20, "margin": 0.05, "layers": [leaky]}
    code, out_dir = run(tmp_path, "spectrum", config)
    assert code == 1
    err = capsys.readouterr().err
    assert "did not converge in 1 sweeps at probe 13 (residual " in err, err
    assert not list(out_dir.glob("spectrum_*.csv"))
    # the margin skips probes, so the probe index is not the position in the
    # kept stack; the named probe is kept, and its Jacobian fails alone
    monkeypatch.undo()
    [(kept, jacs, _)] = verify.probe_spectra(
        [verify.ProbeRequest([layer_from_json(leaky)], 20, 2, margin=0.05)],
        verify.stack_jacobian)
    assert kept.index(13) != 13
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        linalg.svd_values(jacs[kept.index(13)])


def test_spectrum_factors_its_stack_in_one_batch(tmp_path, monkeypatch):
    calls = []

    def counted(n, seeds):
        calls.append((n, list(seeds)))
        return linalg.random_orthogonal_batch(n, seeds)

    monkeypatch.setattr("orthojac.layers.random_orthogonal_batch", counted)
    config = spectrum_config()
    config["layers"].append({"type": "composed", "n": 8, "rotation": {"seed": 23},
                             "inner": reflection_layer(seed=21, bias=0.05)})
    code, _ = run(tmp_path, "spectrum", config)
    assert code == 0
    assert calls == [(8, [21, 22, 23, 21])]


@pytest.mark.parametrize("bad, message", [
    ({"input_scale": [1]}, "input_scale must be a number"),
    ({"margin": "x"}, "margin must be a number"),
])
def test_spectrum_bad_setting_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, bad, message):
    def never(*args):
        raise AssertionError("the stack was built or probed before its settings were checked")

    monkeypatch.setattr(cli, "layers_from_json", never)
    monkeypatch.setattr(cli, "stack_jacobian", never)
    code, out_dir = run(tmp_path, "spectrum", spectrum_config(**bad))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(out_dir.glob("spectrum_*.csv"))


def test_spectrum_stack_of_mixed_widths_exits_2(tmp_path, capsys):
    config = {"seed": 5, "probes": 10, "layers": [reflection_layer(n=4), reflection_layer(n=5)]}
    code, out_dir = run(tmp_path, "spectrum", config)
    assert code == 2
    err = capsys.readouterr().err
    assert "error: layer 1 of the stack has width 5, layer 0 has width 4\n" in err, err
    assert not list(out_dir.glob("spectrum_*.csv"))


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_constant_fields_measure_zero(tmp_path):
    layer = dict(bump_limit(), m={"kind": "constant", "value": 1.0})
    config = {"seed": 7, "probes": 50, "radius": 1.5, "layer": layer}
    code, out_dir = run(tmp_path, "density", config)
    assert code == 0
    lines = (out_dir / "density.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "resolution,measured_gap,theoretical_bound"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [2, 4, 8, 16]
    assert all(float(r[1]) == 0.0 for r in rows)


def test_density_bump_rows_bounded_and_refining(tmp_path):
    config = {"seed": 7, "probes": 100, "radius": 1.5,
              "layer": bump_limit(bias=0.3536)}
    code, out_dir = run(tmp_path, "density", config)
    assert code == 0
    rows = [line.split(",") for line
            in (out_dir / "density.csv").read_text().splitlines()[2:]]
    measured = [float(r[1]) for r in rows]
    bounds = [float(r[2]) for r in rows]
    assert all(m <= b for m, b in zip(measured, bounds))
    assert measured[-1] <= measured[0]


def test_density_rejects_non_limit_layer(tmp_path):
    config = {"layer": reflection_layer()}
    assert run(tmp_path, "density", config)[0] == 2


@pytest.mark.parametrize("bad, message", [
    ({"radius": float("nan")}, "radius must be a positive finite number"),
    ({"radius": -1.5}, "radius must be a positive finite number"),
    ({"radius": True}, "radius must be a positive finite number"),
    ({"seed": True}, "seed must be an integer"),
    # density_gap checks these too, before any probe is drawn
    ({"probes": 0}, "probes must be a positive integer"),
    ({"resolutions": []}, "resolutions must be a non-empty list"),
    ({"resolutions": [4, "2"]}, "resolution must be a positive integer"),
])
def test_density_bad_radius_or_seed_exits_2(tmp_path, capsys, bad, message):
    config = dict({"seed": 7, "probes": 50, "radius": 1.5, "layer": bump_limit()}, **bad)
    code, out_dir = run(tmp_path, "density", config)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(out_dir.iterdir())


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def train_config(**overrides):
    config = {"model": "resnet_relu", "width": 8, "depth": 10, "lr0": 0.01,
              "epochs": 15, "batch_size": 32, "seed": 9,
              "data": {"kind": "blobs", "classes": 2, "dim": 8,
                       "per_class": 100, "spread": 0.1, "val_fraction": 0.2}}
    config.update(overrides)
    return config


def test_train_blobs_smoke(tmp_path, capsys):
    code, out_dir = run(tmp_path, "train", train_config())
    assert code == 0
    assert "best_val_acc=" in capsys.readouterr().out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert tuple(summary) == SUMMARY_KEYS
    assert tuple(summary["wall_clock"]) == ("ms_per_sample_mean",)
    assert summary["best_val_acc"] >= 0.95
    assert summary["model"] == "resnet_relu"
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == METRICS_HEADER == (
        "epoch,train_loss,train_acc,val_acc,lr,grad_ratio,ms_per_sample")
    assert (out_dir / "snapshot.bin").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_1(tmp_path, capsys):
    config = train_config(model="resnet_AB_baseline", depth=30, lr0=1e6,
                          epochs=3)
    code, _ = run(tmp_path, "train", config)
    assert code == 1
    assert "diverged at epoch" in capsys.readouterr().err


def test_train_rerun_identical_outputs(tmp_path):
    config = train_config(epochs=4)
    _, out_a = run(tmp_path, "train", config, out="a")
    _, out_b = run(tmp_path, "train", config, out="b")

    def stable_csv(out_dir):
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        return [lines[0], lines[1]] + [l.rsplit(",", 1)[0] for l in lines[2:]]

    assert stable_csv(out_a) == stable_csv(out_b)
    sum_a = json.loads((out_a / "summary.json").read_text())
    sum_b = json.loads((out_b / "summary.json").read_text())
    sum_a.pop("wall_clock"), sum_b.pop("wall_clock")
    assert sum_a == sum_b
    assert ((out_a / "snapshot.bin").read_bytes()
            == (out_b / "snapshot.bin").read_bytes())


def test_train_fashion_without_data_root_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORTHOJAC_DATA", raising=False)
    config = train_config(data={"kind": "fashion_mnist"})
    code, _ = run(tmp_path, "train", config)
    assert code == 2
    assert "ORTHOJAC_DATA" in capsys.readouterr().err


def test_train_unknown_model_is_named_before_the_data_root_is_missing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORTHOJAC_DATA", raising=False)
    config = train_config(model="mystery", data={"kind": "fashion_mnist"})
    code, _ = run(tmp_path, "train", config)
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown model 'mystery'" in err and "ORTHOJAC_DATA" not in err


def test_train_missing_dataset_files_exit_2(tmp_path, capsys):
    config = train_config(data={"kind": "fashion_mnist"})
    code, _ = run(tmp_path, "train", config,
                  extra=("--data", str(tmp_path / "nowhere")))
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_train_unknown_data_kind_exits_2(tmp_path):
    config = train_config(data={"kind": "clouds"})
    assert run(tmp_path, "train", config)[0] == 2


def test_train_unknown_model_exits_2(tmp_path):
    assert run(tmp_path, "train", train_config(model="mystery"))[0] == 2


@pytest.mark.parametrize("bad, message", [
    ({"alpha": float("nan")}, "alpha must be a non-negative finite number"),
    ({"lr0": float("nan")}, "lr0 must be a positive finite number"),
    ({"lr0": float("inf")}, "lr0 must be a positive finite number"),
    ({"lr0": "0.001"}, "lr0 must be a positive finite number"),
    ({"lr0": True}, "lr0 must be a positive finite number"),
    ({"seed": True}, "seed must be an integer"),
    ({"model": "mystery"}, "unknown model 'mystery'"),
    ({"model": ["resnet_relu"]}, "unknown model ['resnet_relu']"),
    ({"width": 0}, "width must be a positive integer"),
    ({"depth": -1}, "depth must be a non-negative integer"),
])
def test_train_bad_setting_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, bad, message):
    def never(*args):
        raise AssertionError("data or network built before the settings were checked")

    monkeypatch.setattr(cli, "_load_train_data", never)
    monkeypatch.setattr(cli, "make_network", never)
    # json.dumps writes the NaN and Infinity literals that json.load accepts
    code, out_dir = run(tmp_path, "train", train_config(**bad))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(out_dir.iterdir())



@pytest.mark.parametrize("key, value", [
    ("spread", "0.1"), ("spread", True), ("spread", float("nan")),
    ("val_fraction", "0.2"), ("seed", 1.5), ("classes", 2.0),
])
def test_train_bad_data_setting_exits_2(tmp_path, capsys, key, value):
    config = train_config()
    config["data"][key] = value
    code, out_dir = run(tmp_path, "train", config)
    assert code == 2
    assert f"data.{key} must be" in capsys.readouterr().err
    assert not list(out_dir.iterdir())


# ---------------------------------------------------------------------------
# config fuzz
# ---------------------------------------------------------------------------

# small valid configs: width 4, a few probes, so no mutation allocates much
FUZZ_N = 4
FUZZ_LIMIT = {"type": "limit", "n": FUZZ_N, "B": {"seed": 3}, "b": [0.2] * FUZZ_N,
              "m": {"kind": "mini_net", "n": FUZZ_N, "hidden": 2, "seed": 4,
                    "init_std": 0.05},
              "q": {"kind": "constant", "value": 0.0}}
FUZZ_CONFIGS = {
    "verify": {
        "command": "verify", "seed": 1, "probes": 2, "criterion": "orthogonal",
        "tol": 1e-10, "margin": 1e-6, "input_scale": 1.0,
        "layers": [
            {"name": "a", "layer": {"type": "composed", "n": FUZZ_N,
                                    "rotation": {"seed": 7},
                                    "inner": reflection_layer(n=FUZZ_N, seed=8)}},
            {"name": "b", "layer": FUZZ_LIMIT, "criterion": "isometry", "probes": 2},
            {"name": "c", "criterion": "sv_interval", "epsilon": 0.5,
             "layer": {"type": "case_i", "n": FUZZ_N, "A": {"seed": 1},
                       "B": {"seed": 2}, "b": [0.1] * FUZZ_N, "c": 0.0, "d": 1.0,
                       "sigma": ABS, "strict": True}},
            {"name": "d", "criterion": "partial", "seed": 2,
             "layer": {"type": "partitioned", "n": FUZZ_N, "A": {"seed": 5},
                       "B": {"seed": 5}, "b": [0.1] * FUZZ_N,
                       "hyperplanes": [{"normal": [1.0] * FUZZ_N, "offset": 0.0}],
                       "regions": [{"signs": [1], "ell": 1.0, "c": 0.0, "d": -2.0,
                                    "sigma": RELU},
                                   {"signs": [-1], "ell": 0.0, "c": 0.0, "d": 1.0,
                                    "sigma": ABS}]}},
        ],
    },
    "spectrum": {
        "command": "spectrum", "seed": 1, "probes": 2, "margin": 1e-6,
        "input_scale": 1.0,
        "layers": [reflection_layer(n=FUZZ_N, seed=9),
                   {"type": "gated", "n": FUZZ_N, "B": {"seed": 6},
                    "b": [0.1] * FUZZ_N, "gate": [1.0, 0.5, 0.5, 0.5],
                    "sigma": RELU}],
    },
    "density": {
        "command": "density", "seed": 1, "probes": 5, "radius": 1.5,
        "resolutions": [1, 2],
        "layer": dict(FUZZ_LIMIT, m={"kind": "gaussian_bump", "scale": 0.01},
                      q={"kind": "mini_net", "n": FUZZ_N, "hidden": 2, "seed": 4}),
    },
    "train": {
        "command": "train", "model": "resnet_relu", "width": FUZZ_N, "depth": 1,
        "lr0": 0.01, "epochs": 1, "batch_size": 8, "alpha": 0.0, "patience": 1, "seed": 1,
        "data": {"kind": "blobs", "classes": 2, "dim": FUZZ_N, "per_class": 8,
                 "spread": 0.1, "val_fraction": 0.25, "seed": 3},
    },
}
# one or a few small values of each JSON type; a number is only ever replaced
# by a value of another type, so no magnitude is fuzzed
FUZZ_VALUES = (0, 1, -1, "", "x", "1", True, False, [], [0], ["x"], None, {}, {"seed": 1})


def _node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _json_type(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value)


@st.composite
def mutated_configs(draw):
    """A fuzz config with one node, the root included, replaced by a value of
    another type, or with one key of an object deleted; returns the command,
    the config and whether a number or a bool was replaced."""
    command = draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    config = copy.deepcopy(FUZZ_CONFIGS[command])
    path = draw(st.sampled_from(list(_node_paths(config))))
    parent, old = None, config
    for key in path:
        parent, old = old, old[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
        return command, config, False
    value = copy.deepcopy(draw(st.sampled_from(
        [v for v in FUZZ_VALUES if _json_type(v) != _json_type(old)])))
    typed = _json_type(old) in ("number", bool)
    if parent is None:
        return command, value, typed
    parent[path[-1]] = value
    return command, config, typed


def test_fuzz_configs_are_valid(tmp_path):
    assert [run(tmp_path, command, config)[0]
            for command, config in sorted(FUZZ_CONFIGS.items())] == [0, 0, 0, 0]


@settings(deadline=None, max_examples=300)
@given(case=mutated_configs())
def test_config_fuzz_exits_0_1_or_2(case):
    """Nothing escapes ``main``, and a number or bool of another type is a
    config error: JSON values are never coerced."""
    command, config, typed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        code = main(argv)
    assert code == 2 if typed else code in (0, 1, 2)
