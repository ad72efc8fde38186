"""The four benchmark workloads: configs made from a seed, item counts, output checks.

Each workload is one ``orthojac`` CLI command on a generated config.  The
program sees only the config file; every number in it is drawn from the
benchmark seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

WIDTH_PROBE = 32
WIDTH_TRAIN = 64
WIDTH_DENSITY = 16
DEPTH_SPECTRUM = 20
PROBES_SPECTRUM = 60

RELU = {"breakpoints": [0.0], "slopes": [0.0, 1.0], "anchor_value": 0.0}
ABS = {"breakpoints": [0.0], "slopes": [-1.0, 1.0], "anchor_value": 0.0}
LEAKY = {"breakpoints": [0.0], "slopes": [0.3, 1.0], "anchor_value": 0.0}
# leaky slopes 0.3 and 1 keep every singular value in [0.3, 1]
LEAKY_EPSILON = 0.7
SV_TOL = 1e-10


def _vec(rng: random.Random, n: int, scale: float) -> list:
    return [rng.uniform(-scale, scale) for _ in range(n)]


def _seed(rng: random.Random) -> dict:
    return {"seed": rng.randrange(1, 2**31)}


def _case_ii(rng: random.Random, n: int) -> dict:
    return {"type": "case_ii", "n": n, "B": _seed(rng), "b": _vec(rng, n, 0.5),
            "ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU}


def strict_families(rng: random.Random, n: int) -> list:
    """One layer spec of each strict family, as (name, spec) pairs."""
    shared = _seed(rng)
    return [
        ("case_i", {"type": "case_i", "n": n, "A": _seed(rng), "B": _seed(rng),
                    "b": _vec(rng, n, 0.5), "c": 0.0, "d": 1.0, "sigma": ABS}),
        ("case_ii", _case_ii(rng, n)),
        ("gated", {"type": "gated", "n": n, "B": _seed(rng), "b": _vec(rng, n, 0.5),
                   "gate": _vec(rng, n, 1.0), "sigma": RELU}),
        ("composed", {"type": "composed", "n": n, "rotation": _seed(rng),
                      "inner": _case_ii(rng, n)}),
        # one hyperplane: a region with a skip term and one without
        ("partitioned", {
            "type": "partitioned", "n": n, "A": shared, "B": shared,
            "b": _vec(rng, n, 0.5),
            "hyperplanes": [{"normal": _vec(rng, n, 1.0), "offset": 0.0}],
            "regions": [
                {"signs": [1], "ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU},
                {"signs": [-1], "ell": 0.0, "c": 0.0, "d": 1.0, "sigma": ABS},
            ],
        }),
    ]


def _limit(rng: random.Random, n: int, init_std: float) -> dict:
    return {"type": "limit", "n": n, "B": _seed(rng), "b": _vec(rng, n, 0.5),
            "m": {"kind": "mini_net", "n": n, "hidden": 16,
                  "seed": rng.randrange(1, 2**31), "init_std": init_std},
            "q": {"kind": "constant", "value": 0.0}}


def verify_config(seed: int) -> dict:
    rng = random.Random(seed)
    entries = [{"name": name, "layer": spec, "probes": 16}
               for name, spec in strict_families(rng, WIDTH_PROBE)]
    # Jacobi's sweep count, and so its cost, differs from one non-orthogonal
    # layer to the next; several layers per seed keep the mean steady
    for i in range(4):
        entries.append({"name": f"limit_mini_net_{i}", "criterion": "isometry",
                        "probes": 4, "layer": _limit(rng, WIDTH_PROBE, 0.05)})
        leaky = {"type": "case_i", "n": WIDTH_PROBE, "A": _seed(rng), "B": _seed(rng),
                 "b": _vec(rng, WIDTH_PROBE, 0.5), "c": 0.0, "d": 1.0,
                 "sigma": LEAKY, "strict": False}
        entries.append({"name": f"leaky_case_i_{i}", "criterion": "sv_interval",
                        "epsilon": LEAKY_EPSILON, "probes": 1, "layer": leaky})
    return {"command": "verify", "seed": rng.randrange(2**31), "layers": entries}


def spectrum_config(seed: int) -> dict:
    rng = random.Random(seed)
    stack = []
    while len(stack) < DEPTH_SPECTRUM:
        stack += [spec for _, spec in strict_families(rng, WIDTH_PROBE)]
    return {"command": "spectrum", "seed": rng.randrange(2**31),
            "probes": PROBES_SPECTRUM, "layers": stack[:DEPTH_SPECTRUM]}


def density_config(seed: int) -> dict:
    rng = random.Random(seed)
    return {"command": "density", "seed": rng.randrange(2**31), "probes": 1000,
            "radius": 1.5, "resolutions": [2, 4, 8, 16, 32],
            "layer": _limit(rng, WIDTH_DENSITY, 0.5)}


def train_config(seed: int) -> dict:
    rng = random.Random(seed)
    return {"command": "train", "model": "resnet_relu", "width": WIDTH_TRAIN,
            "depth": 50, "lr0": 2e-3, "epochs": 2, "batch_size": 128,
            "seed": rng.randrange(2**31),
            "data": {"kind": "blobs", "classes": 4, "dim": 32, "per_class": 200,
                     "spread": 0.3, "val_fraction": 0.2}}


# ---------------------------------------------------------------------------
# items: the unit of work each invocation completes
# ---------------------------------------------------------------------------


def _verify_items(config: dict, out_dir: str) -> int:
    return sum(entry["probes"] for entry in config["layers"])


def _spectrum_items(config: dict, out_dir: str) -> int:
    return config["probes"]


def _density_items(config: dict, out_dir: str) -> int:
    return config["probes"] * len(config["resolutions"])


def _train_items(config: dict, out_dir: str) -> int:
    data = config["data"]
    total = data["classes"] * data["per_class"]
    train_size = total - int(round(total * data["val_fraction"]))
    return train_size * len(_csv_rows(os.path.join(out_dir, "metrics.csv")))


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure reasons (empty when correct)
# ---------------------------------------------------------------------------


def _csv_rows(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_verify(config: dict, out_dir: str) -> list:
    problems = []
    for entry in config["layers"]:
        path = os.path.join(out_dir, f"verify_{entry['name']}.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("pass") is not True:
            problems.append(f"{entry['name']}: pass is {report.get('pass')!r}")
    return problems


def _check_spectrum(config: dict, out_dir: str) -> list:
    problems = []
    rows = _csv_rows(os.path.join(out_dir, "spectrum_probes.csv"))
    if not rows:
        problems.append("no probe rows")
    for row in rows:
        for key in ("sv_min", "sv_max"):
            if not abs(float(row[key]) - 1.0) <= SV_TOL:
                problems.append(f"probe {row['probe']}: {key}={row[key]}")
    hist = _csv_rows(os.path.join(out_dir, "spectrum_histogram.csv"))
    counted = sum(int(row["count"]) for row in hist)
    width = config["layers"][0]["n"]
    if counted != len(rows) * width:
        problems.append(f"histogram holds {counted} values, expected"
                        f" {len(rows)} x {width}")
    return problems


def _check_density(config: dict, out_dir: str) -> list:
    rows = _csv_rows(os.path.join(out_dir, "density.csv"))
    problems = [f"resolution {r['resolution']}: gap above bound" for r in rows
                if not float(r["measured_gap"]) <= float(r["theoretical_bound"])]
    if len(rows) != len(config["resolutions"]):
        problems.append(f"{len(rows)} density rows for"
                        f" {len(config['resolutions'])} resolutions")
    elif not float(rows[-1]["measured_gap"]) <= float(rows[0]["measured_gap"]):
        problems.append("finest grid gap is above the coarsest")
    return problems


def _check_train(config: dict, out_dir: str) -> list:
    rows = _csv_rows(os.path.join(out_dir, "metrics.csv"))
    losses = [float(row["train_loss"]) for row in rows]
    if len(losses) < 2:
        return [f"{len(losses)} epochs recorded, need at least 2"]
    problems = [f"non-finite loss {x!r}" for x in losses if not math.isfinite(x)]
    if not losses[-1] < losses[0]:
        problems.append(f"last train_loss {losses[-1]!r} not below first {losses[0]!r}")
    return problems


def _deterministic_bytes(path: str) -> bytes:
    """File content with the documented wall-clock fields removed."""
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    if name == "metrics.csv":
        # ms_per_sample is the last column
        return b"\n".join(line.rsplit(b",", 1)[0] for line in raw.split(b"\n")
                          if not line.startswith(b"#"))
    if name == "summary.json":
        summary = json.loads(raw)
        summary.pop("wall_clock", None)
        return json.dumps(summary, sort_keys=True).encode()
    return raw


def artifact_digest(out_dir: str) -> str:
    """SHA-256 over every deterministic artifact in ``out_dir``."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        digest.update(_deterministic_bytes(os.path.join(out_dir, name)))
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class Workload:
    """One CLI command on generated configs, with its item count and checks."""

    name: str
    command: str
    make_config: Callable[[int], dict]
    items: Callable[[dict, str], int]
    check: Callable[[dict, str], list]
    # cli bindings whose first call ends set-up and starts the items
    marker: tuple
    why: str

    def evaluate(self, config: dict, out_dir: str, exit_code: int) -> list:
        """Failure reasons for one invocation's exit code and artifacts."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            return self.check(config, out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable artifact: {type(exc).__name__}: {exc}"]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify_families", "verify", verify_config, _verify_items,
            _check_verify, ("spectrum_probe", "check_dynamical_isometry"),
            "verify on one width-32 entry per layer family; the only workload"
            " with defects and Jacobi SVD on non-orthogonal Jacobians",
        ),
        Workload(
            "spectrum_deep", "spectrum", spectrum_config, _spectrum_items,
            _check_spectrum, ("stack_jacobian",),
            "spectrum on a depth-20 width-32 strict stack; depth scaling of the"
            " single-sample Jacobian chain and the CLI probe loop",
        ),
        Workload(
            "train_blobs", "train", train_config, _train_items, _check_train,
            ("train",),
            "train resnet_relu width 64 depth 50 on blobs; batched forward/VJP,"
            " Adam and serial, and no SVD",
        ),
        Workload(
            "density_grid", "density", density_config, _density_items,
            _check_density, ("density_gap",),
            "density on a width-16 mini-net limit layer at five resolutions;"
            " dominated by ball sampling, no SVD or single-sample Jacobian",
        ),
    )
}
