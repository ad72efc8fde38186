"""Network container and training loop.

Backpropagation is hand-chained through the layer VJPs; the optimizer
is bias-corrected Adam under a cosine learning-rate decay computed over
the total planned steps (max epochs times batches per epoch), so early
stopping never changes the schedule.  Kinks are not rejected during
training: the right-slope convention of the scalar activations yields a
deterministic subgradient-style update on that measure-zero set.

All randomness (initialization, shuffling) flows through the portable
RNG, and gradient accumulation follows a fixed order, so identical
configs reproduce identical metrics byte for byte (wall-clock fields
aside).
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import Dataset, batches
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    TrainingDivergedError,
    check_shape,
)
from .layers import layers_from_json
from .linalg import checked, frobenius_defect, random_orthogonal
from .pwl import make_relu_k, make_sigma_k, make_two_slope
from .rng import SplitMix64, derive_seed
from .serial import load_arrays, save_arrays

MAX_EPOCHS = 400
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the largest gradient entry whose square, in adam_step, is finite
ADAM_MAX_GRAD = float(np.sqrt(np.finfo(np.float64).max))
# rows evaluated per forward pass
EVAL_CHUNK = 1024


# ---------------------------------------------------------------------------
# loss, regularizer, schedule, optimizer
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, label: int):
    """Stabilized cross-entropy loss and its logit gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[-1]:
        raise DimensionError(f"label {label} out of range for {logits.shape[-1]} classes")
    shifted = logits - np.max(logits)
    log_z = np.log(np.sum(np.exp(shifted)))
    loss = float(log_z - shifted[label])
    dlogits = np.exp(shifted - log_z)
    dlogits[label] -= 1.0
    return loss, dlogits


def softmax_cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean loss over a batch and the matching mean-scaled gradient."""
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise DimensionError(f"labels out of range for {k} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    rows = np.arange(n)
    loss = float(np.mean(log_z - shifted[rows, labels]))
    dlogits = np.exp(shifted - log_z[:, np.newaxis])
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / n


def ortho_regularizer(w: np.ndarray, alpha: float):
    """Penalty alpha*||WW^T - I||_F^2 and its gradient 4*alpha*(WW^T - I)W.

    The squared norm is used so the gradient exists at the orthogonal
    manifold itself, where training starts.
    """
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"regularizer needs a square matrix, got {w.shape}")
    resid = w @ w.T
    resid[np.diag_indices_from(resid)] -= 1.0
    value = alpha * float(np.sum(resid * resid))
    return value, (4.0 * alpha) * (resid @ w)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    if total_steps < 1 or not 0 <= step <= total_steps:
        raise DimensionError(f"bad schedule position {step}/{total_steps}")
    return float(lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps)))


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the param dict."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict):
        state = cls()
        for name, arr in params.items():
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        return state


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, applied to the arrays in place."""
    state.step += 1
    t = state.step
    scale1 = 1.0 - ADAM_BETA1**t
    scale2 = 1.0 - ADAM_BETA2**t
    for name in sorted(params):
        g = grads[name]
        if g.shape != params[name].shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter"
                f" {name!r} shape {params[name].shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        tmp = g * g
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        # lr * (m / scale1) / (sqrt(v / scale2) + eps) in that operation
        # order, in two buffers
        step = m / scale1
        step *= lr
        np.divide(v, scale2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        params[name] -= step


# ---------------------------------------------------------------------------
# input adapter and network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputAdapter:
    """Fixed (non-trainable) map from raw input dim to the network width.

    kind "identity" passes through, "pad" appends zeros, and "project"
    applies the first ``width`` rows of a seeded random orthogonal
    matrix so the projection is an exact partial isometry.
    """

    kind: str
    raw_dim: int
    width: int
    matrix: np.ndarray | None = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        if X.ndim != 2 or X.shape[1] != self.raw_dim:
            raise DimensionError(
                f"adapter expects (*, {self.raw_dim}) inputs, got {X.shape}"
            )
        if self.kind == "identity":
            return X
        if self.kind == "pad":
            out = np.zeros((X.shape[0], self.width))
            out[:, : self.raw_dim] = X
            return out
        return X @ self.matrix.T


def make_input_adapter(raw_dim: int, width: int, seed: int = 0) -> InputAdapter:
    if width == raw_dim:
        return InputAdapter("identity", raw_dim, width)
    if width > raw_dim:
        return InputAdapter("pad", raw_dim, width)
    matrix = random_orthogonal(raw_dim, derive_seed(seed, 0xAD))[:width]
    return InputAdapter("project", raw_dim, width, matrix)


class Network:
    """Layer stack plus a trainable linear classifier head."""

    def __init__(self, adapter: InputAdapter, layers: list, head_w: np.ndarray,
                 head_b: np.ndarray):
        width = adapter.width
        for layer in layers:
            if layer.width != width:
                raise DimensionError(
                    f"layer width {layer.width} does not match network width {width}"
                )
        if head_w.ndim != 2 or head_w.shape[1] != width:
            raise DimensionError(f"head shape {head_w.shape} does not match width {width}")
        if head_b.shape != (head_w.shape[0],):
            raise DimensionError("head bias does not match head rows")
        self.adapter = adapter
        self.layers = list(layers)
        self.head_w = head_w
        self.head_b = head_b

    @property
    def width(self) -> int:
        return self.adapter.width

    @property
    def class_count(self) -> int:
        return self.head_w.shape[0]

    def params(self) -> dict:
        out = {"head.w": self.head_w, "head.b": self.head_b}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                out[f"layers.{i}.{name}"] = arr
        return out

    def square_weights(self) -> dict:
        """The layers' A and B weights (targets of the orthogonality penalty),
        keyed like ``params()``; the head and field weights are not among them."""
        return {f"layers.{i}.{name}": arr
                for i, layer in enumerate(self.layers)
                for name, arr in layer.params().items() if name in ("A", "B")}

    def forward_cache(self, X_raw: np.ndarray):
        """Forward pass for ``backward_batch``: ``(logits, stack output, cache)``, where
        the cache holds one ``(X, kept)`` per layer, its input and the ``kept`` of its
        ``forward_batch(X)``, which its ``vjp_batch`` reads."""
        cur = self.adapter.apply(np.asarray(X_raw, dtype=np.float64))
        cache = []
        for layer in self.layers:
            out, kept = layer.forward_batch(cur)
            cache.append((cur, kept))
            cur = out
        logits = cur @ self.head_w.T + self.head_b
        return logits, cur, cache

    def forward_batch(self, X_raw: np.ndarray) -> np.ndarray:
        """Logits only: each layer's ``kept`` is dropped as soon as it is made."""
        cur = self.adapter.apply(np.asarray(X_raw, dtype=np.float64))
        for layer in self.layers:
            cur = layer.forward_batch(cur)[0]
        return cur @ self.head_w.T + self.head_b

    def backward_batch(self, cache: list, stack_out: np.ndarray,
                       dlogits: np.ndarray):
        """Chain VJPs from logit cotangents down to the stack input.

        Pops each layer's entry off ``forward_cache``'s ``cache`` as it uses
        it, so the cache is empty on return.  Returns (grads keyed like
        params(), stack-input cotangent, stack-output cotangent).
        """
        grads = {
            "head.w": dlogits.T @ stack_out,
            "head.b": dlogits.sum(axis=0),
        }
        cot_out = dlogits @ self.head_w
        cot = cot_out
        for i in range(len(self.layers) - 1, -1, -1):
            X, kept = cache.pop()
            cot, layer_grads = self.layers[i].vjp_batch(X, cot, kept)
            for name, g in layer_grads.items():
                grads[f"layers.{i}.{name}"] = g
        return grads, cot, cot_out


def evaluate(network: Network, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions (ties go to the lowest class)."""
    if dataset.size == 0:
        raise DimensionError("cannot evaluate on an empty dataset")
    correct = 0
    for start in range(0, dataset.size, EVAL_CHUNK):
        X = dataset.features[start : start + EVAL_CHUNK]
        y = dataset.labels[start : start + EVAL_CHUNK]
        logits = network.forward_batch(X)
        correct += int(np.sum(np.argmax(logits, axis=1) == y))
    return correct / dataset.size


# ---------------------------------------------------------------------------
# model menu
# ---------------------------------------------------------------------------

_RELU = make_relu_k([0.0]).to_json()
_ZERO = {"kind": "constant", "value": 0.0}

# each model's layer spec without ``n`` and the weights; ``_layer_spec`` adds them
MODELS = {
    "resnet_relu": {"type": "case_ii", "ell": 1.0, "d": -2.0, "sigma": _RELU},
    "resnet_relu3": {"type": "case_ii", "ell": 1.0, "d": -2.0,
                     "sigma": make_relu_k([-1.0, 0.0, 1.0]).to_json()},
    "ff_sigma1": {"type": "case_i", "d": 1.0, "sigma": make_sigma_k([0.0]).to_json()},
    "ff_sigma3": {"type": "case_i", "d": 1.0,
                  "sigma": make_sigma_k([-1.0, 0.0, 1.0]).to_json()},
    "resnet_AB_baseline": {"type": "partitioned", "strict": False, "regions": [
        {"signs": [], "ell": 1.0, "c": 0.0, "d": 2.0, "sigma": _RELU}]},
    "ff_relu_partial": {"type": "case_i", "d": 1.0, "sigma": _RELU, "strict": False},
    "ff_leakyrelu": {"type": "case_i", "d": 1.0,
                     "sigma": make_two_slope(0.3, 1.0, [0.0]).to_json(), "strict": False},
    "resnet_B_partial": {"type": "case_ii", "ell": 1.0, "d": -1.0, "sigma": _RELU,
                         "strict": False},
    "limit_m1": {"type": "limit", "m": {"kind": "constant", "value": 1.0}, "q": _ZERO},
    "limit_m2": {"type": "limit", "m": {"kind": "gaussian_bump", "scale": 0.01}, "q": _ZERO},
    "limit_m3": {"type": "limit", "m": {"kind": "mini_net"}, "q": _ZERO},
    "gaussian_ff_baseline": {"type": "case_i", "d": 1.0, "sigma": _RELU, "strict": False},
}
MODEL_NAMES = tuple(MODELS)


def check_model(model) -> str:
    """``model`` if it names a model of MODELS, else ConfigError."""
    # a tuple, not the dict: an unhashable model is just not a name
    if model not in MODEL_NAMES:
        raise ConfigError(f"unknown model {model!r} (choose from {', '.join(MODEL_NAMES)})")
    return model


def _layer_spec(model: str, width: int, seed: int) -> dict:
    """One layer of ``model`` as a spec: its MODELS entry, ``n`` and its weights.  Each seeded
    weight has its own derived seed (B 0, A 1, the mini-net 2), so a skipped one moves none."""
    spec = dict(MODELS[model], n=width, B={"seed": derive_seed(seed, 0)})
    if model == "gaussian_ff_baseline":
        W = SplitMix64(derive_seed(seed, 3)).gaussian_matrix(width, width)
        W /= np.sqrt(width)
        spec.update(A=np.eye(width), B=W)
    elif spec["type"] in ("case_i", "partitioned"):
        spec["A"] = {"seed": derive_seed(seed, 1)}
    elif model == "limit_m3":
        spec["m"] = dict(spec["m"], n=width, seed=derive_seed(seed, 2))
    return spec


def make_network(model: str, width: int, depth: int, class_count: int,
                 raw_dim: int, seed: int) -> Network:
    """A model-menu network with a fresh head; its layers are one ``layers_from_json``
    call on their specs, which factors every orthogonal weight in one batch."""
    check_model(model)
    # before any spec is built: a network holds a width x width weight per layer
    check_shape((depth, width, width), f"a depth-{depth} network of width {width}")
    layers = layers_from_json([_layer_spec(model, width, derive_seed(seed, 0x7A, i))
                               for i in range(depth)])
    head_w = SplitMix64(derive_seed(seed, 0x4E)).gaussian_matrix(class_count, width)
    head_w /= np.sqrt(width)
    adapter = make_input_adapter(raw_dim, width, seed)
    return Network(adapter, layers, head_w, np.zeros(class_count))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one training run, checked on construction (ConfigError)."""

    lr0: float
    epochs: int
    batch_size: int = 512
    alpha: float = 0.0
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        checked(self.lr0, "lr0", "a positive finite number", ConfigError)
        checked(self.epochs, "epochs", "a positive integer", ConfigError)
        if self.epochs > MAX_EPOCHS:
            raise ConfigError(f"epochs must be at most {MAX_EPOCHS}, got {self.epochs}")
        checked(self.batch_size, "batch_size", "a positive integer", ConfigError)
        checked(self.alpha, "alpha", "a non-negative finite number", ConfigError)
        checked(self.patience, "patience", "a positive integer", ConfigError)
        checked(self.seed, "seed", "an integer", ConfigError)


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    lr: float
    grad_ratio: float
    ms_per_sample: float

    def csv_row(self) -> str:
        epoch, *values = astuple(self)
        return ",".join([str(epoch), *(repr(float(v)) for v in values)])


METRICS_HEADER = ",".join(f.name for f in fields(EpochRow))


@dataclass
class Metrics:
    # one EpochRow per epoch run, at least one
    rows: list
    best_epoch: int
    best_val_acc: float
    stopped_early: bool
    # max defect over trainable square weights: the pre-training value
    # first, then one entry per completed epoch
    weight_defects: list

    def to_csv(self) -> str:
        lines = [METRICS_HEADER]
        lines.extend(row.csv_row() for row in self.rows)
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "epochs_run": len(self.rows),
            "best_epoch": self.best_epoch,
            "best_val_acc": self.best_val_acc,
            "final_val_acc": self.rows[-1].val_acc,
            "stopped_early": self.stopped_early,
            "weight_defect_initial": self.weight_defects[0],
            "weight_defect_max": max(self.weight_defects),
            "weight_defect_final": self.weight_defects[-1],
            "wall_clock": {"ms_per_sample_mean": float(np.mean([r.ms_per_sample for r in self.rows]))},
        }


def _batch_grad_ratio(cot_in: np.ndarray, cot_out: np.ndarray) -> float:
    """Mean per-sample ||input cotangent|| / ||output cotangent||."""
    out_norm = np.sqrt(np.sum(cot_out * cot_out, axis=1))
    in_norm = np.sqrt(np.sum(cot_in * cot_in, axis=1))
    live = out_norm > 0.0
    if not np.any(live):
        return 1.0
    return float(np.mean(in_norm[live] / out_norm[live]))


def _max_weight_defect(network: Network) -> float:
    squares = list(network.square_weights().values())
    return float(np.max(frobenius_defect(np.stack(squares)))) if squares else 0.0


def train(network: Network, config: TrainConfig, train_set: Dataset,
          val_set: Dataset) -> Metrics:
    """Run the full loop; the best-validation snapshot is restored at exit."""
    if train_set.size == 0 or val_set.size == 0:
        raise DimensionError("datasets must be non-empty")
    params = network.params()
    state = AdamState.for_params(params)
    batches_per_epoch = -(-train_set.size // config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    global_step = 0

    rows: list = []
    defects: list = [_max_weight_defect(network)]
    best_val = -1.0
    best_epoch = 0
    best_params = {k: v.copy() for k, v in params.items()}
    bad_epochs = 0
    stopped_early = False

    for epoch in range(1, config.epochs + 1):
        tic = time.perf_counter()
        epoch_lr = cosine_lr(global_step, total_steps, config.lr0)
        loss_sum = 0.0
        correct = 0
        ratio_sum = 0.0
        n_batches = 0
        epoch_seed = derive_seed(config.seed, 0xE9, epoch)
        for batch_idx, (X, y) in enumerate(batches(train_set, config.batch_size,
                                                   epoch_seed)):
            # a diverging run overflows here; the loss check reports it, not NumPy
            with np.errstate(over="ignore", invalid="ignore"):
                logits, stack_out, cache = network.forward_cache(X)
                loss, dlogits = softmax_cross_entropy_batch(logits, y)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, batch_idx)
            grads, cot_in, cot_out = network.backward_batch(cache, stack_out, dlogits)
            if config.alpha > 0.0:
                for name, w in network.square_weights().items():
                    value, grad = ortho_regularizer(w, config.alpha)
                    loss += value
                    grads[name] = grads[name] + grad
                    # before Adam, whose moment of a larger entry is inf and its step 0
                    if not (np.isfinite(loss) and (np.abs(grads[name]) <= ADAM_MAX_GRAD).all()):
                        raise TrainingDivergedError(epoch, batch_idx)
            lr = cosine_lr(global_step, total_steps, config.lr0)
            adam_step(params, grads, state, lr)
            global_step += 1

            loss_sum += loss * len(y)
            correct += int(np.sum(np.argmax(logits, axis=1) == y))
            ratio_sum += _batch_grad_ratio(cot_in, cot_out)
            n_batches += 1

        val_acc = evaluate(network, val_set)
        elapsed_ms = (time.perf_counter() - tic) * 1000.0
        rows.append(EpochRow(
            epoch=epoch,
            train_loss=loss_sum / train_set.size,
            train_acc=correct / train_set.size,
            val_acc=val_acc,
            lr=epoch_lr,
            grad_ratio=ratio_sum / n_batches,
            ms_per_sample=elapsed_ms / train_set.size,
        ))
        defects.append(_max_weight_defect(network))

        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            for name, arr in params.items():
                best_params[name][...] = arr
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                stopped_early = True
                break

    for name, arr in params.items():
        arr[...] = best_params[name]
    return Metrics(rows, best_epoch, best_val, stopped_early, defects)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def save_snapshot(path, network: Network, meta: dict | None = None) -> None:
    save_arrays(path, network.params(), meta=meta)


def load_snapshot(path, network: Network) -> dict:
    """Load parameters into a structurally matching network, in place."""
    arrays, meta = load_arrays(path)
    params = network.params()
    if set(arrays) != set(params):
        missing = set(params) ^ set(arrays)
        raise DataFormatError(f"snapshot keys do not match network: {sorted(missing)}")
    for name, arr in arrays.items():
        if arr.shape != params[name].shape:
            raise DataFormatError(
                f"snapshot array {name!r} has shape {arr.shape}, expected"
                f" {params[name].shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DataFormatError(f"snapshot array {name!r} has non-finite entries")
    # every array is checked before any is written, so a rejected
    # snapshot leaves the network as it was
    for name, arr in arrays.items():
        params[name][...] = arr
    return meta
