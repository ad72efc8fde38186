"""Command-line front end: verification, spectrum studies, density tables, training.

Each subcommand reads a JSON config, validates it (unknown keys are
rejected), and writes its artifacts under --out.  Every output file embeds
the SHA-256 of the resolved config (after any --seed override) so artifacts
can be traced back to the exact run that produced them.

Exit codes: 0 success, 1 check, solver or training failure, 2 usage/config error.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys

import numpy as np

from .data import load_idx, synthetic_blobs, train_val_split
from .errors import (
    ConfigError,
    ConvergenceError,
    NoValidProbeError,
    OrthojacError,
    TrainingDivergedError,
)
from .layers import LimitLayer, layer_from_json, layers_from_json
from .linalg import checked
from .rng import SplitMix64, derive_seed
from .train import TrainConfig, check_model, make_network, save_snapshot, train
# check_dynamical_isometry is not called here, but the probe entry points
# stay bound on this module, where perfbench's first-item marker wraps them
from .verify import (
    ProbeRequest,
    check_dynamical_isometry,
    density_gap,
    probe_spectra,
    spectrum_probe,
    stack_jacobian,
)

HISTOGRAM_BINS = 64
HISTOGRAM_RANGE = 2.0
# values this close to a bin edge count toward the upper bin, so spectra
# sitting exactly on an edge (orthogonal stacks at 1.0) pool into one bin
EDGE_SNAP = 1e-9
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(command: str, config: dict) -> str:
    return hashlib.sha256(
        _canonical({"command": command, **config}).encode()
    ).hexdigest()


def _check_keys(obj, context: str, required: tuple, optional: tuple = ()) -> None:
    checked(obj, context, "a JSON object", ConfigError)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{context}: missing keys {missing}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    # ValueError covers bad UTF-8, bad JSON and integers over the digit limit;
    # deeply nested JSON exhausts the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc})") from exc
    return checked(config, f"{path}: top level", "a JSON object", ConfigError)


def _write_text(out_dir: str, filename: str, text: str) -> str:
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# the probe settings a verify config or entry may set; each is the entry's
# value, else the config's, else ProbeRequest's default
PROBE_KEYS = ("criterion", "probes", "seed", "margin", "input_scale", "tol", "epsilon")
# config keys whose keyword has another name
_KEYWORDS = {"probes": "n_probes", "epochs": "total_epochs"}


def _settings(keys: tuple, *sources) -> dict:
    """The ``keys`` that ``sources`` set (a later source wins), as keywords of
    ProbeRequest or TrainConfig, which own the defaults of the keys left out."""
    return {_KEYWORDS.get(key, key): source[key]
            for source in sources for key in keys if key in source}


def cmd_verify(config: dict, out_dir: str, digest: str) -> int:
    _check_keys(config, "verify config", ("layers",), ("command", *PROBE_KEYS))
    entries = checked(config["layers"], "layers", "a non-empty list", ConfigError)

    # every entry is checked, with its spec standing in for its layer, then
    # every layer is built, before the first probe
    names, requests = [], []
    for entry in entries:
        _check_keys(entry, "layer entry", ("name", "layer"), PROBE_KEYS)
        name = entry["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ConfigError(f"layer entry name {name!r} is not filename-safe")
        if name in names:
            raise ConfigError(f"duplicate layer entry name {name!r}")
        names.append(name)
        requests.append(ProbeRequest(entry["layer"], name=name,
                                     **_settings(PROBE_KEYS, config, entry)))

    layers = layers_from_json([req.target for req in requests])
    reports = spectrum_probe([dataclasses.replace(req, target=layer)
                              for req, layer in zip(requests, layers)])

    for name, report in zip(names, reports):
        blob = dict(report.to_json(), name=name, config_sha256=digest)
        _write_text(out_dir, f"verify_{name}.json",
                    json.dumps(blob, sort_keys=True, indent=2) + "\n")
        verdict = "pass" if report.passed else "FAIL"
        print(f"{name}: {verdict} (max_orth_defect={report.max_orth_defect:.3e},"
              f" max_partial_defect={report.max_partial_defect:.3e})")
    return 0 if all(report.passed for report in reports) else 1


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(config: dict, out_dir: str, digest: str) -> int:
    keys = ("seed", "probes", "margin", "input_scale")
    _check_keys(config, "spectrum config", ("layers",), ("command", *keys))
    specs = checked(config["layers"], "layers", "a non-empty list", ConfigError)
    # the settings are checked, with the specs standing in for the stack,
    # before any layer is built
    req = ProbeRequest(specs, criterion="none", **_settings(keys, config))
    req = dataclasses.replace(req, target=layers_from_json(specs))

    # stack_jacobian is looked up here per block, so a wrapper put on or taken off
    # this binding mid-run (perfbench's first-item marker) sees only its own calls
    [(kept, _, values)] = probe_spectra([req], lambda *args: stack_jacobian(*args))
    rows = [(index, float(sv.min()), float(sv.max()))
            for index, sv in zip(kept, values)]
    scale = HISTOGRAM_BINS / HISTOGRAM_RANGE
    # clipped before the cast: a value past the int64 range would wrap
    bins = np.clip((values + EDGE_SNAP) * scale, 0, HISTOGRAM_BINS - 1).astype(np.int64)
    counts = np.bincount(bins.ravel(), minlength=HISTOGRAM_BINS)
    skipped = req.n_probes - len(kept)

    header = f"# config_sha256={digest}\n"
    probe_lines = [header, "probe,sv_min,sv_max\n"]
    probe_lines += [f"{i},{lo!r},{hi!r}\n" for i, lo, hi in rows]
    _write_text(out_dir, "spectrum_probes.csv", "".join(probe_lines))

    hist_lines = [header, "bin_low,bin_high,count\n"]
    for k in range(HISTOGRAM_BINS):
        low = k * HISTOGRAM_RANGE / HISTOGRAM_BINS
        high = (k + 1) * HISTOGRAM_RANGE / HISTOGRAM_BINS
        hist_lines.append(f"{low!r},{high!r},{counts[k]}\n")
    _write_text(out_dir, "spectrum_histogram.csv", "".join(hist_lines))

    print(f"spectrum: {len(rows)} probes ({skipped} skipped near kinks),"
          f" sv range [{min(r[1] for r in rows):.6e},"
          f" {max(r[2] for r in rows):.6e}]")
    return 0


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def cmd_density(config: dict, out_dir: str, digest: str) -> int:
    _check_keys(config, "density config", ("layer",),
                ("command", "seed", "probes", "radius", "resolutions"))
    layer = layer_from_json(config["layer"])
    if not isinstance(layer, LimitLayer):
        raise ConfigError("density config: 'layer' must be a limit layer spec")
    reports = density_gap(layer, config.get("resolutions", [2, 4, 8, 16]),
                          config.get("radius", 1.5), config.get("probes", 400),
                          config.get("seed", 0))

    lines = [f"# config_sha256={digest}\n", "resolution,measured_gap,theoretical_bound\n"]
    for rep in reports:
        lines.append(f"{rep.resolution},{rep.measured_gap!r},{rep.theoretical_bound!r}\n")
    _write_text(out_dir, "density.csv", "".join(lines))

    bounded = all(rep.measured_gap <= rep.theoretical_bound for rep in reports)
    refines = reports[-1].measured_gap <= reports[0].measured_gap
    for rep in reports:
        print(f"resolution {rep.resolution}: measured={rep.measured_gap:.6e}"
              f" bound={rep.theoretical_bound:.6e}")
    if not bounded:
        print("density: measured gap exceeded the theoretical bound")
    if not refines:
        print("density: gap did not shrink from coarsest to finest grid")
    return 0 if bounded and refines else 1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

FASHION_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")


def _load_train_data(section: dict, seed: int, data_root) -> tuple:
    _check_keys(section, "data section", ("kind",),
                ("classes", "dim", "per_class", "spread", "val_fraction",
                 "train_size", "val_size", "seed"))

    def setting(key, rule, default):
        return checked(section.get(key, default), f"data.{key}", rule, ConfigError)

    kind = section.get("kind")
    if kind == "blobs":
        dataset = synthetic_blobs(
            setting("classes", "a positive integer", 2),
            setting("dim", "a positive integer", 8),
            setting("per_class", "a positive integer", 100),
            setting("spread", "a finite number", 0.1),
            setting("seed", "an integer", derive_seed(seed, 0xDA)),
        )
        return train_val_split(dataset, setting("val_fraction", "a finite number", 0.2),
                               derive_seed(seed, 0xDB))
    if kind == "fashion_mnist":
        if not data_root:
            raise ConfigError(
                "fashion_mnist data needs --data DIR or the ORTHOJAC_DATA"
                " environment variable"
            )
        images = os.path.join(data_root, FASHION_FILES[0])
        labels = os.path.join(data_root, FASHION_FILES[1])
        for path in (images, labels):
            if not os.path.exists(path):
                raise ConfigError(f"dataset file not found: {path}")
        full = load_idx(images, labels)
        train_size = setting("train_size", "a positive integer", 10000)
        val_size = setting("val_size", "a positive integer", 2000)
        if train_size + val_size > full.size:
            raise ConfigError(
                f"requested {train_size}+{val_size} examples but the dataset"
                f" has {full.size}"
            )
        perm = SplitMix64(derive_seed(seed, 0xDC)).permutation(full.size)
        return (full.subset(perm[:train_size]),
                full.subset(perm[train_size:train_size + val_size]))
    raise ConfigError(f"data section: unknown kind {kind!r}")


def cmd_train(config: dict, out_dir: str, digest: str, data_root) -> int:
    optional = ("batch_size", "alpha", "patience", "seed")
    _check_keys(config, "train config", ("model", "width", "depth", "lr0",
                                         "epochs", "data"), ("command", *optional))
    # the settings are checked before any data is loaded or layer built
    train_cfg = TrainConfig(**_settings(("lr0", "epochs", *optional), config))
    model = check_model(config["model"])
    width = checked(config["width"], "width", "a positive integer", ConfigError)
    depth = checked(config["depth"], "depth", "a non-negative integer", ConfigError)
    train_set, val_set = _load_train_data(config["data"], train_cfg.seed, data_root)
    network = make_network(model, width, depth,
                           train_set.class_count, train_set.dim, train_cfg.seed)

    try:
        metrics = train(network, train_cfg, train_set, val_set)
    except TrainingDivergedError as exc:
        print(f"training diverged at epoch {exc.epoch}, batch {exc.batch}",
              file=sys.stderr)
        return 1

    _write_text(out_dir, "metrics.csv",
                f"# config_sha256={digest}\n" + metrics.to_csv())
    summary = dict(metrics.summary(), model=model, config_sha256=digest)
    _write_text(out_dir, "summary.json",
                json.dumps(summary, sort_keys=True, indent=2) + "\n")
    save_snapshot(os.path.join(out_dir, "snapshot.bin"), network,
                  meta={"model": model, "config_sha256": digest})
    print(f"best_val_acc={metrics.best_val_acc!r} best_epoch={metrics.best_epoch}"
          f" epochs_run={len(metrics.rows)} stopped_early={metrics.stopped_early}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthojac",
        description="Orthogonal-Jacobian layer toolkit: verification,"
                    " spectrum studies, density tables, and training runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "check layer specs against defect/spectrum criteria"),
        ("spectrum", "probe a layer stack and write singular-value tables"),
        ("density", "run the grid-refinement gap experiment"),
        ("train", "train a model and write metrics, summary, and snapshot"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        if name == "train":
            cmd.add_argument("--data", default=None,
                             help="dataset root (default: $ORTHOJAC_DATA)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        declared = config.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares command {declared!r} but {args.command!r}"
                " was requested"
            )
        if args.seed is not None:
            config["seed"] = args.seed
        digest = _config_hash(args.command, config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "verify":
            return cmd_verify(config, args.out, digest)
        if args.command == "spectrum":
            return cmd_spectrum(config, args.out, digest)
        if args.command == "density":
            return cmd_density(config, args.out, digest)
        data_root = args.data or os.environ.get("ORTHOJAC_DATA")
        return cmd_train(config, args.out, digest, data_root)
    except (NoValidProbeError, ConvergenceError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OrthojacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
