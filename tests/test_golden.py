"""Golden artifact digests: the bits of four small CLI runs, pinned across commits.

Each config below runs through ``cli.main``; every artifact it writes is
hashed with its wall-clock fields removed, and the digests must equal the
ones in ``golden_digests.json``.  Its ``perfbench`` section holds the digest
of each benchmark workload's seed-1 run, which ``test_benchmark_names.py``
checks.  A change that moves artifact bits on purpose regenerates that file
and says which digests moved and why; regenerating prints each digest that
moved as ``command/file old->new``:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import tempfile

import pytest

from orthojac.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

RELU = {"breakpoints": [0.0], "slopes": [0.0, 1.0], "anchor_value": 0.0}
RELU3 = {"breakpoints": [-1.0, 0.0, 1.0], "slopes": [0.0, 1.0, 0.0, 1.0],
         "anchor_value": 0.0}
ABS = {"breakpoints": [0.0], "slopes": [-1.0, 1.0], "anchor_value": 0.0}
LEAKY = {"breakpoints": [0.0], "slopes": [0.3, 1.0], "anchor_value": 0.0}


def _bias(n, k):
    return [round(0.37 * ((i * 7 + k) % 5) - 0.7, 2) for i in range(n)]


def _families(n):
    """One spec of each layer family at width n."""
    case_ii = {"type": "case_ii", "n": n, "B": {"seed": 3}, "b": _bias(n, 1),
               "ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU3}
    return {
        "case_i": {"type": "case_i", "n": n, "A": {"seed": 1}, "B": {"seed": 2},
                   "b": _bias(n, 0), "c": 0.0, "d": 1.0, "sigma": ABS},
        "case_ii": case_ii,
        "gated": {"type": "gated", "n": n, "B": {"seed": 4}, "b": _bias(n, 2),
                  "gate": _bias(n, 3), "sigma": RELU},
        "composed": {"type": "composed", "n": n, "rotation": {"seed": 5},
                     "inner": case_ii},
        "partitioned": {
            "type": "partitioned", "n": n, "A": {"seed": 6}, "B": {"seed": 6},
            "b": _bias(n, 4),
            "hyperplanes": [{"normal": _bias(n, 5), "offset": 0.1}],
            "regions": [
                {"signs": [1], "ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU},
                {"signs": [-1], "ell": 0.0, "c": 0.0, "d": 1.0, "sigma": ABS},
            ],
        },
        "limit": {"type": "limit", "n": n, "B": {"seed": 7}, "b": _bias(n, 6),
                  "m": {"kind": "mini_net", "n": n, "hidden": 6, "seed": 8,
                        "init_std": 0.3},
                  "q": {"kind": "gaussian_bump", "scale": 0.01}},
    }


def _verify_config():
    fams = _families(8)
    entries = [{"name": name, "layer": spec} for name, spec in fams.items()
               if name != "limit"]
    entries.append({"name": "limit", "criterion": "isometry", "layer": fams["limit"]})
    leaky = dict(fams["case_i"], sigma=LEAKY, strict=False)
    entries.append({"name": "leaky", "criterion": "sv_interval", "epsilon": 0.7,
                    "probes": 6, "layer": leaky})
    return {"seed": 11, "probes": 20, "margin": 0.01, "layers": entries}


CONFIGS = {
    "verify": _verify_config(),
    # an odd width pins the padding column of the probe stream
    "spectrum": {"seed": 12, "probes": 40, "margin": 0.02,
                 "layers": list(_families(7).values())},
    "density": {"seed": 13, "probes": 200, "radius": 1.5, "resolutions": [2, 4, 8],
                "layer": _families(6)["limit"]},
    "train": {"model": "ff_sigma3", "width": 8, "depth": 4, "lr0": 2e-3,
              "epochs": 2, "batch_size": 32, "seed": 14,
              "data": {"kind": "blobs", "classes": 3, "dim": 6, "per_class": 30,
                       "spread": 0.3, "val_fraction": 0.2}},
}


def _deterministic_bytes(path: str) -> bytes:
    """File content without the wall-clock fields."""
    with open(path, "rb") as fh:
        raw = fh.read()
    name = os.path.basename(path)
    if name == "metrics.csv":
        # ms_per_sample is the last column
        return b"\n".join(line.rsplit(b",", 1)[0] for line in raw.split(b"\n"))
    if name == "summary.json":
        summary = json.loads(raw)
        del summary["wall_clock"]
        return json.dumps(summary, sort_keys=True).encode()
    return raw


def artifact_digests(command: str, work: str) -> dict:
    """Run one config through the CLI; the SHA-256 of each artifact by file name."""
    config_path = os.path.join(work, f"{command}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(CONFIGS[command], fh)
    out = os.path.join(work, command)
    code = main([command, "--config", config_path, "--out", out])
    assert code == 0, f"{command} exited {code}"
    return {name: hashlib.sha256(_deterministic_bytes(os.path.join(out, name))).hexdigest()
            for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_artifacts_match_golden_digests(command, tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert artifact_digests(command, str(tmp_path)) == golden[command]


def moved_digests(old: dict, new: dict) -> list:
    """``command/file old->new`` for each digest that differs, appears or goes."""
    lines = []
    for command in sorted(old.keys() | new.keys()):
        before, after = old.get(command, {}), new.get(command, {})
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) != after.get(name):
                lines.append(f"{command}/{name} {before.get(name)}->{after.get(name)}")
    return lines


if __name__ == "__main__":
    from test_benchmark_names import benchmark_digests

    with tempfile.TemporaryDirectory() as work:
        digests = {command: artifact_digests(command, work) for command in sorted(CONFIGS)}
        digests["perfbench"] = benchmark_digests(work)
    previous = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            previous = json.load(fh)
    for line in moved_digests(previous, digests):
        print(line)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
