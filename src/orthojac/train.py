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
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, batches
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    TrainingDivergedError,
)
from .layers import (
    ConstantField,
    GaussianBumpField,
    make_case_i,
    make_case_ii,
    make_limit,
    make_mini_net_field,
    make_partitioned,
    RegionCoeffs,
)
from .linalg import (frobenius_defect, is_finite_number, is_integer, random_orthogonal,
                     random_orthogonal_batch)
from .pwl import make_relu_k, make_sigma_k, make_two_slope
from .rng import SplitMix64, derive_seed
from .serial import load_arrays, save_arrays

MAX_EPOCHS = 400
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# rows evaluated per forward pass
EVAL_CHUNK = 1024
METRICS_HEADER = "epoch,train_loss,train_acc,val_acc,lr,grad_ratio,ms_per_sample"

MODEL_NAMES = (
    "resnet_relu",
    "resnet_relu3",
    "ff_sigma1",
    "ff_sigma3",
    "resnet_AB_baseline",
    "ff_relu_partial",
    "ff_leakyrelu",
    "resnet_B_partial",
    "limit_m1",
    "limit_m2",
    "limit_m3",
    "gaussian_ff_baseline",
)


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

    @property
    def depth(self) -> int:
        return len(self.layers)

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
        """Forward pass keeping each layer's input for the backward pass."""
        cur = self.adapter.apply(np.asarray(X_raw, dtype=np.float64))
        inputs = []
        for layer in self.layers:
            inputs.append(cur)
            cur = layer.forward_batch(cur)
        logits = cur @ self.head_w.T + self.head_b
        return logits, cur, inputs

    def forward_batch(self, X_raw: np.ndarray) -> np.ndarray:
        """Logits only: the forward pass without keeping layer inputs."""
        cur = self.adapter.apply(np.asarray(X_raw, dtype=np.float64))
        for layer in self.layers:
            cur = layer.forward_batch(cur)
        return cur @ self.head_w.T + self.head_b

    def backward_batch(self, inputs: list, stack_out: np.ndarray,
                       dlogits: np.ndarray):
        """Chain VJPs from logit cotangents down to the stack input.

        Returns (grads keyed like params(), stack-input cotangent,
        stack-output cotangent).
        """
        grads = {
            "head.w": dlogits.T @ stack_out,
            "head.b": dlogits.sum(axis=0),
        }
        cot_out = dlogits @ self.head_w
        cot = cot_out
        for i in range(len(self.layers) - 1, -1, -1):
            cot, layer_grads = self.layers[i].vjp_batch(inputs[i], cot)
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

DEFAULT_NODES = (-1.0, 0.0, 1.0)


def _relu(nodes=(0.0,)):
    return make_relu_k(list(nodes))


# models whose layers use A as well as B; gaussian_ff_baseline uses neither
_A_MODELS = ("ff_sigma1", "ff_sigma3", "resnet_AB_baseline", "ff_relu_partial",
             "ff_leakyrelu")


def _orthogonal_seeds(model: str, seed: int) -> list:
    """Seeds of the orthogonal weights one layer of ``model`` uses: B, then A.

    Every weight has its own derived seed, so skipping an unused one shifts
    nothing.
    """
    if model == "gaussian_ff_baseline":
        return []
    if model in _A_MODELS:
        return [derive_seed(seed, 0), derive_seed(seed, 1)]
    return [derive_seed(seed, 0)]


def _make_layer(model: str, width: int, seed: int, weights):
    """One layer of ``model``; ``weights`` are its orthogonal matrices, in
    ``_orthogonal_seeds`` order."""
    b = np.zeros(width)
    if model == "gaussian_ff_baseline":
        W = SplitMix64(derive_seed(seed, 3)).gaussian_matrix(width, width)
        W /= np.sqrt(width)
        return make_case_i(np.eye(width), W, b, c=0.0, d=1.0, sigma=_relu(),
                           strict=False)
    B = weights[0]
    if model == "resnet_relu":
        return make_case_ii(B, b, ell=1.0, c=0.0, d=-2.0, sigma=_relu())
    if model == "resnet_relu3":
        return make_case_ii(B, b, ell=1.0, c=0.0, d=-2.0, sigma=_relu(DEFAULT_NODES))
    if model == "resnet_B_partial":
        return make_case_ii(B, b, ell=1.0, c=0.0, d=-1.0, sigma=_relu(), strict=False)
    if model == "limit_m1":
        return make_limit(B, b, ConstantField(1.0), ConstantField(0.0))
    if model == "limit_m2":
        return make_limit(B, b, GaussianBumpField(0.01), ConstantField(0.0))
    if model == "limit_m3":
        m = make_mini_net_field(width, seed=derive_seed(seed, 2))
        return make_limit(B, b, m, ConstantField(0.0))
    A = weights[1]
    if model == "ff_sigma1":
        return make_case_i(A, B, b, c=0.0, d=1.0, sigma=make_sigma_k([0.0]))
    if model == "ff_sigma3":
        return make_case_i(A, B, b, c=0.0, d=1.0, sigma=make_sigma_k(list(DEFAULT_NODES)))
    if model == "resnet_AB_baseline":
        coeffs = RegionCoeffs(ell=1.0, c=0.0, d=2.0, sigma=_relu())
        return make_partitioned(A, B, b, [], {(): coeffs}, strict=False)
    if model == "ff_relu_partial":
        return make_case_i(A, B, b, c=0.0, d=1.0, sigma=_relu(), strict=False)
    # ff_leakyrelu
    sigma = make_two_slope(0.3, 1.0, [0.0])
    return make_case_i(A, B, b, c=0.0, d=1.0, sigma=sigma, strict=False)


def make_network(model: str, width: int, depth: int, class_count: int,
                 raw_dim: int, seed: int) -> Network:
    """Build a model-menu network with seeded weights and a fresh head.

    The orthogonal weights of every layer are factored in one batch.
    """
    if model not in MODEL_NAMES:
        raise ConfigError(f"unknown model {model!r} (choose from {', '.join(MODEL_NAMES)})")
    seeds = [derive_seed(seed, 0x7A, i) for i in range(depth)]
    wanted = [_orthogonal_seeds(model, layer_seed) for layer_seed in seeds]
    weights = iter(random_orthogonal_batch(width, [k for ks in wanted for k in ks]))
    layers = [_make_layer(model, width, layer_seed, [next(weights) for _ in ks])
              for layer_seed, ks in zip(seeds, wanted)]
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
    total_epochs: int
    batch_size: int = 512
    alpha: float = 0.0
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        # each rule tests the type first, so a range test sees only numbers;
        # bools are neither numbers nor integers here
        rules = {
            "lr0": (is_finite_number(self.lr0) and self.lr0 > 0, "a positive finite number"),
            "total_epochs": (is_integer(self.total_epochs)
                             and 1 <= self.total_epochs <= MAX_EPOCHS,
                             f"an integer in [1, {MAX_EPOCHS}]"),
            "batch_size": (is_integer(self.batch_size) and self.batch_size > 0,
                           "a positive integer"),
            "alpha": (is_finite_number(self.alpha) and self.alpha >= 0,
                      "a non-negative finite number"),
            "patience": (is_integer(self.patience) and self.patience > 0, "a positive integer"),
            "seed": (is_integer(self.seed), "an integer"),
        }
        for key, (ok, rule) in rules.items():
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)!r}")


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
        return (
            f"{self.epoch},{float(self.train_loss)!r},{float(self.train_acc)!r},"
            f"{float(self.val_acc)!r},{float(self.lr)!r},{float(self.grad_ratio)!r},"
            f"{float(self.ms_per_sample)!r}"
        )


@dataclass
class Metrics:
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
            "final_val_acc": self.rows[-1].val_acc if self.rows else None,
            "stopped_early": self.stopped_early,
            "weight_defect_initial": self.weight_defects[0] if self.weight_defects else None,
            "weight_defect_max": max(self.weight_defects) if self.weight_defects else None,
            "weight_defect_final": self.weight_defects[-1] if self.weight_defects else None,
            "wall_clock": {
                "ms_per_sample_mean": (
                    float(np.mean([r.ms_per_sample for r in self.rows]))
                    if self.rows else None
                ),
            },
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
    total_steps = config.total_epochs * batches_per_epoch
    global_step = 0

    rows: list = []
    defects: list = [_max_weight_defect(network)]
    best_val = -1.0
    best_epoch = 0
    best_params = {k: v.copy() for k, v in params.items()}
    bad_epochs = 0
    stopped_early = False

    for epoch in range(1, config.total_epochs + 1):
        tic = time.perf_counter()
        epoch_lr = cosine_lr(global_step, total_steps, config.lr0)
        loss_sum = 0.0
        correct = 0
        ratio_sum = 0.0
        n_batches = 0
        epoch_seed = derive_seed(config.seed, 0xE9, epoch)
        for batch_idx, (X, y) in enumerate(batches(train_set, config.batch_size,
                                                   epoch_seed)):
            logits, stack_out, inputs = network.forward_cache(X)
            loss, dlogits = softmax_cross_entropy_batch(logits, y)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, batch_idx)
            grads, cot_in, cot_out = network.backward_batch(inputs, stack_out,
                                                            dlogits)
            if config.alpha > 0.0:
                for name, w in network.square_weights().items():
                    value, grad = ortho_regularizer(w, config.alpha)
                    loss += value
                    grads[name] = grads[name] + grad
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
