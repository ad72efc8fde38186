"""Acceptance suite: one test per guaranteed behavior of the package.

Running with ``pytest -v`` yields one pass/fail line per criterion.  The
Fashion-MNIST trainability check needs the IDX files on disk (point
ORTHOJAC_DATA at them, e.g. after running scripts/fetch_fashion_mnist.py);
it is skipped when the dataset is absent.
"""

import json
import os

import numpy as np
import pytest

from orthojac import layers as ly
from orthojac import pwl
from orthojac.cli import main as cli_main
from orthojac.data import load_idx
from orthojac.linalg import random_orthogonal
from orthojac.rng import SplitMix64, derive_seed
from orthojac.train import (
    InputAdapter,
    Network,
    TrainConfig,
    make_network,
    ortho_regularizer,
    softmax_cross_entropy_batch,
    train,
)
from orthojac.verify import (
    check_dynamical_isometry,
    density_gap,
    fd_jacobian,
    orthogonality_defect,
    partial_isometry_defect,
    stack_jacobian,
)

N = 16
PROBES = 1000

RELU = pwl.make_relu_k([0.0])
RELU3 = pwl.make_relu_k([-1.0, 0.0, 1.0])
SIGMA3 = pwl.make_sigma_k([-1.0, 0.0, 1.0])
ABS = pwl.make_two_slope(-1.0, 1.0, [0.0])
LEAKY = pwl.make_two_slope(0.3, 1.0, [0.0])


def strict_families(n: int, seed: int) -> dict:
    """One strict representative of each orthogonal layer family."""
    A = random_orthogonal(n, derive_seed(seed, 1))
    B = random_orthogonal(n, derive_seed(seed, 2))
    R = random_orthogonal(n, derive_seed(seed, 3))
    b = 0.3 * SplitMix64(derive_seed(seed, 4)).gaussian(n)
    gate = SplitMix64(derive_seed(seed, 5)).gaussian(n)
    inner = ly.make_case_ii(B, b, 1.0, 0.0, -2.0, RELU)
    regions = {
        (1,): ly.RegionCoeffs(1.0, 0.0, 1.0, pwl.make_two_slope(0.0, -2.0, [-1.0, 0.0, 1.0])),
        (-1,): ly.RegionCoeffs(-1.0, 0.0, 1.0, pwl.make_two_slope(0.0, 2.0, [-1.0, 0.0, 1.0])),
    }
    return {
        "abs_rotation": ly.make_case_i(A, B, b, 0.5, 1.0, ABS),
        "sigma3_rotation": ly.make_case_i(A, B, b, 0.0, 1.0, SIGMA3),
        "residual_relu": inner,
        "residual_relu3": ly.make_case_ii(B, b, 1.0, 0.0, -2.0, RELU3),
        "gated": ly.make_gated(B, b, gate, RELU3),
        "composed": ly.ComposedLayer(R, inner),
        "two_region": ly.make_partitioned(B, B, b, [(gate, 0.0)], regions),
    }


def margin_probes(layer, count: int, seed: int):
    """The first `count` inputs of the Gaussian stream of `seed` that lie outside
    the kink margin, and their Jacobians, as `(count, n)` and `(count, n, n)`
    arrays.  The stream is drawn in blocks of `count` rows and each block goes
    through one `stack_jacobian` call; `n` is even, so row i is the i-th
    `gaussian(n)` draw."""
    gen = SplitMix64(seed)
    xs, jacs = [], []
    while sum(map(len, xs)) < count:
        X = gen.gaussian(count * layer.width).reshape(count, layer.width)
        kept, block = stack_jacobian([layer], X)
        xs.append(X[kept])
        jacs.append(block)
    return np.concatenate(xs)[:count], np.concatenate(jacs)[:count]


# ---------------------------------------------------------------------------
# 1. strict layers have exactly orthogonal Jacobians
# ---------------------------------------------------------------------------


def test_criterion1_strict_families_give_orthogonal_jacobians():
    worst = 0.0
    for seed in range(5):
        for name, layer in strict_families(N, seed).items():
            _, jacs = margin_probes(layer, PROBES, derive_seed(seed, 0xA1))
            defect = float(np.max(orthogonality_defect(jacs)))
            worst = max(worst, defect)
            assert defect <= 1e-10, (name, seed, defect)
    print(f"max orthogonality defect over 7 families x 5 seeds x {PROBES}"
          f" probes: {worst:.3e}")


# ---------------------------------------------------------------------------
# 2. a leaky slope destroys orthogonality by a quantified amount
# ---------------------------------------------------------------------------


def test_criterion2_leaky_slopes_break_orthogonality():
    B = random_orthogonal(N, 71)
    b = 0.3 * SplitMix64(72).gaussian(N)
    layer = ly.make_case_ii(B, b, 1.0, 0.0, -2.0, LEAKY, strict=False)
    # per leaky unit the Gram matrix shifts by 4*0.3*(0.3-1) = -0.84
    X, jacs = margin_probes(layer, PROBES, 73)
    defects = orthogonality_defect(jacs)
    n_leaky = np.sum(X @ B.T + b < 0.0, axis=1)
    leaky = n_leaky >= 1
    assert np.all(defects[leaky] >= 0.5)
    assert np.all(np.abs(defects[leaky] - 0.84 * np.sqrt(n_leaky[leaky])) <= 1e-9)
    assert np.all(defects[~leaky] <= 1e-10)
    leaky_seen = int(np.sum(leaky))
    assert leaky_seen >= PROBES * 0.9
    print(f"{leaky_seen}/{PROBES} probes had leaky units; defect matched"
          f" 0.84*sqrt(#leaky) on all of them")


# ---------------------------------------------------------------------------
# 3. projection-style layers are exact partial isometries
# ---------------------------------------------------------------------------


def test_criterion3_projection_families_are_partial_isometries():
    A = random_orthogonal(N, 81)
    B = random_orthogonal(N, 82)
    b = 0.3 * SplitMix64(83).gaussian(N)
    relu_rotation = ly.make_case_i(A, B, b, 0.2, 1.0, RELU, strict=False)
    relu_residual = ly.make_case_ii(B, b, 1.0, 0.0, -1.0, RELU, strict=False)
    worst = 0.0
    for tag, layer in (("rotation", relu_rotation), ("residual", relu_residual)):
        _, jacs = margin_probes(layer, PROBES, 84)
        defect = float(np.max(partial_isometry_defect(jacs)))
        worst = max(worst, defect)
        assert defect <= 1e-10, (tag, defect)

    # leaky-slope arithmetic: per leaky unit |s^4 - s^2| = 0.0819 at s = 0.3
    leaky_rotation = ly.make_case_i(A, B, b, 0.0, 1.0, LEAKY, strict=False)
    X, jacs = margin_probes(leaky_rotation, PROBES, 85)
    n_leaky = np.sum(X @ B.T + b < 0.0, axis=1)
    defects = partial_isometry_defect(jacs)
    assert np.all(np.abs(defects - 0.0819 * np.sqrt(n_leaky)) <= 1e-6)
    print(f"max partial-isometry defect over 2 relu families: {worst:.3e};"
          f" leaky defect matched 0.0819*sqrt(#leaky) on {PROBES} probes")


# ---------------------------------------------------------------------------
# 4. gradient norms survive deep strict stacks unchanged
# ---------------------------------------------------------------------------


def make_strict_stack(depth: int, seed: int) -> list:
    stack = []
    for i in range(depth):
        B = random_orthogonal(N, derive_seed(seed, i, 0))
        b = 0.3 * SplitMix64(derive_seed(seed, i, 1)).gaussian(N)
        if i % 2 == 0:
            stack.append(ly.make_case_ii(B, b, 1.0, 0.0, -2.0, RELU))
        else:
            A = random_orthogonal(N, derive_seed(seed, i, 2))
            stack.append(ly.make_case_i(A, B, b, 0.0, 1.0, SIGMA3))
    return stack


def test_criterion4_gradient_norms_stable_at_depth(backward_ratios):
    worst = 0.0
    for depth in (10, 50, 200):
        stack = make_strict_stack(depth, depth)
        # 100 (x, v) pairs, drawn in turn
        pairs = SplitMix64(derive_seed(0xCAFE, depth)).gaussian(100 * 2 * N).reshape(100, 2, N)
        gap = float(np.max(np.abs(backward_ratios(stack, pairs[:, 0], pairs[:, 1]) - 1.0)))
        worst = max(worst, gap)
        assert gap <= 1e-8, (depth, gap)
    print(f"max |gradient norm ratio - 1| over depths 10/50/200 x 100"
          f" pairs: {worst:.3e}")


def test_criterion4_every_strict_family_keeps_gradient_norms(backward_ratios):
    # a depth-50 stack cycling through the strict families, one seed per cycle;
    # the case-i offset and |x| move the rows off the origin as they go deeper,
    # so the layers cut by planes come first, where the block is centred
    names = ["gated", "two_region", "abs_rotation", "sigma3_rotation", "residual_relu",
             "residual_relu3", "composed"]
    families = [strict_families(N, seed) for seed in range(8)]
    stack = [families[k // 7][names[k % 7]] for k in range(50)]
    pairs = SplitMix64(0xC4).gaussian(100 * 2 * N).reshape(100, 2, N)
    straddled = set()
    cur = pairs[:, 0]
    for k, layer in enumerate(stack):
        if getattr(layer, "hyperplanes", ()) and len({layer.sign_vector(x) for x in cur}) > 1:
            straddled.add(names[k % 7])
        cur = layer.forward_batch(cur)[0]
    # the one-pass VJP of a block whose rows lie in different cells is covered
    assert straddled == {"gated", "two_region"}
    gap = float(np.max(np.abs(backward_ratios(stack, pairs[:, 0], pairs[:, 1]) - 1.0)))
    assert gap <= 1e-8, gap
    print(f"max |gradient norm ratio - 1| over a depth-50 stack of every strict"
          f" family x 100 pairs: {gap:.3e}")


# ---------------------------------------------------------------------------
# 5. smooth coefficient fields keep singular values in a provable band
# ---------------------------------------------------------------------------


def test_criterion5_smooth_coefficient_fields_bound_singular_values():
    B = random_orthogonal(N, 91)
    b = SplitMix64(92).gaussian(N)
    b /= np.linalg.norm(b)

    bump = ly.LimitLayer(B, b, ly.GaussianBumpField(0.01), ly.ConstantField(0.0))
    report = check_dynamical_isometry(bump, PROBES, seed=93)
    expected_eps = 2.0 * np.sqrt(2.0) * np.exp(-0.5) / 100.0
    assert abs(report.bound_epsilon - expected_eps) <= 1e-12
    assert expected_eps <= 0.01716
    assert report.passed
    assert report.sv_min >= 1.0 - 0.01716
    assert report.sv_max <= 1.0 + 0.01716

    constant = ly.LimitLayer(B, b, ly.ConstantField(1.0), ly.ConstantField(0.0))
    flat = check_dynamical_isometry(constant, PROBES, seed=94, tol=1e-9)
    assert flat.passed
    assert flat.sv_min >= 1.0 - 1e-9
    assert flat.sv_max <= 1.0 + 1e-9
    print(f"bump spectrum in [{report.sv_min:.6f}, {report.sv_max:.6f}]"
          f" within 1 +/- {expected_eps:.6f}; constant spectrum at 1 +/- 1e-9")


# ---------------------------------------------------------------------------
# 6. grid quantization gap stays under its bound and shrinks on refinement
# ---------------------------------------------------------------------------


def test_criterion6_grid_quantization_gap_respects_bound():
    B = random_orthogonal(N, 101)
    b = SplitMix64(103).gaussian(N)
    b /= np.linalg.norm(b)
    layer = ly.LimitLayer(B, b, ly.GaussianBumpField(0.01),
                          ly.ConstantField(0.0))
    reports = {rep.resolution: rep for rep in density_gap(layer, [2, 4, 8, 16], 1.5, 400, 107)}
    for res, rep in reports.items():
        # measured_gap is the sup over probes, so this covers every probe
        assert rep.measured_gap <= rep.theoretical_bound, res
    assert reports[16].measured_gap <= reports[2].measured_gap
    print("gap by resolution: "
          + ", ".join(f"{res}: {rep.measured_gap:.3e} <= {rep.theoretical_bound:.3e}"
                      for res, rep in sorted(reports.items())))


# ---------------------------------------------------------------------------
# 7. analytic derivatives agree with finite differences
# ---------------------------------------------------------------------------


def far_from_kinks(layer, seed: int, floor: float = 1e-3) -> np.ndarray:
    gen = SplitMix64(seed)
    while True:
        x = gen.gaussian(layer.width)
        if layer.kink_distance(x) > floor:
            return x


def test_criterion7_analytic_derivatives_match_finite_differences():
    families = dict(strict_families(N, 0))
    families["limit_bump"] = ly.LimitLayer(
        random_orthogonal(N, 111), 0.3 * SplitMix64(112).gaussian(N),
        ly.GaussianBumpField(0.01), ly.ConstantField(0.0))
    families["limit_mini_net"] = ly.LimitLayer(
        random_orthogonal(N, 113), 0.3 * SplitMix64(114).gaussian(N),
        ly.make_mini_net_field(N, seed=115), ly.ConstantField(0.0),
        strict=False)
    families["leaky_unchecked"] = ly.make_case_ii(
        random_orthogonal(N, 116), 0.3 * SplitMix64(117).gaussian(N),
        1.0, 0.0, -2.0, LEAKY, strict=False)

    worst_jac = 0.0
    for index, (name, layer) in enumerate(families.items()):
        x = far_from_kinks(layer, derive_seed(0x7D, index))
        gap = np.max(np.abs(layer.jacobian(x) - fd_jacobian(layer.forward, x)))
        if gap > worst_jac:
            worst_jac = gap
        assert gap <= 1e-5, (name, gap)

    worst_param = _param_gradient_worst_error()
    assert worst_param <= 1e-4
    print(f"max Jacobian FD gap over {len(families)} families:"
          f" {worst_jac:.3e}; worst parameter-gradient relative error:"
          f" {worst_param:.3e}")


def _param_gradient_worst_error() -> float:
    """Full-loss parameter gradients vs central differences, 3-layer net."""
    n, classes, rows = 6, 3, 5
    alpha, h = 0.001, 1e-5
    layers = [
        ly.make_case_i(random_orthogonal(n, 1), random_orthogonal(n, 2),
                       0.3 * SplitMix64(3).gaussian(n), 0.1, 1.0, SIGMA3),
        ly.make_case_ii(random_orthogonal(n, 4),
                        0.2 * SplitMix64(5).gaussian(n),
                        1.0, 0.0, -2.0, RELU),
        ly.LimitLayer(random_orthogonal(n, 6),
                      0.3 * SplitMix64(7).gaussian(n),
                      ly.make_mini_net_field(n, seed=8),
                      ly.ConstantField(0.0), strict=False),
    ]
    head_w = SplitMix64(9).gaussian_matrix(classes, n) / np.sqrt(n)
    net = Network(InputAdapter("identity", n, n), layers, head_w,
                  np.zeros(classes))
    X = SplitMix64(10).gaussian_matrix(rows, n)
    y = np.array([0, 1, 2, 1, 0])

    def total_loss() -> float:
        logits = net.forward_batch(X)
        loss, _ = softmax_cross_entropy_batch(logits, y)
        for w in net.square_weights().values():
            loss += ortho_regularizer(w, alpha)[0]
        return loss

    logits, stack_out, inputs = net.forward_cache(X)
    _, dlogits = softmax_cross_entropy_batch(logits, y)
    grads, _, _ = net.backward_batch(inputs, stack_out, dlogits)
    for name, w in net.square_weights().items():
        grads[name] = grads[name] + ortho_regularizer(w, alpha)[1]

    worst = 0.0
    params = net.params()
    for name in sorted(params):
        arr = params[name]
        grad = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            loss_plus = total_loss()
            arr[idx] = old - h
            loss_minus = total_loss()
            arr[idx] = old
            fd = (loss_plus - loss_minus) / (2.0 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / denom)
    return worst


# ---------------------------------------------------------------------------
# 8. scaled trainability on Fashion-MNIST
# ---------------------------------------------------------------------------


def _fashion_root():
    root = os.environ.get("ORTHOJAC_DATA")
    if not root:
        return None
    paths = [os.path.join(root, name) for name in
             ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")]
    return root if all(os.path.exists(p) for p in paths) else None


FASHION_ROOT = _fashion_root()


@pytest.mark.skipif(FASHION_ROOT is None,
                    reason="Fashion-MNIST IDX files not found; set"
                           " ORTHOJAC_DATA (see scripts/fetch_fashion_mnist.py)")
def test_criterion8_fashion_mnist_trainability():
    full = load_idx(os.path.join(FASHION_ROOT, "train-images-idx3-ubyte"),
                    os.path.join(FASHION_ROOT, "train-labels-idx1-ubyte"))
    seed = 0
    perm = SplitMix64(derive_seed(seed, 0xDC)).permutation(full.size)
    train_set = full.subset(perm[:10000])
    val_set = full.subset(perm[10000:12000])

    def run(model: str, alpha: float):
        net = make_network(model, 64, 50, train_set.class_count,
                           train_set.dim, seed)
        cfg = TrainConfig(lr0=5e-5, epochs=60, batch_size=512,
                          alpha=alpha, patience=10, seed=seed)
        return train(net, cfg, train_set, val_set)

    acc_resnet = run("resnet_relu", 0.0).best_val_acc
    acc_sigma = run("ff_sigma1", 0.0).best_val_acc
    acc_gauss = run("gaussian_ff_baseline", 0.0).best_val_acc
    reg_metrics = run("resnet_relu", 0.001)
    acc_reg = reg_metrics.best_val_acc

    assert acc_resnet >= 0.80, acc_resnet
    assert acc_sigma >= 0.78, acc_sigma
    assert acc_gauss <= 0.30, acc_gauss
    assert abs(acc_resnet - acc_reg) <= 0.03, (acc_resnet, acc_reg)
    # the regularizer keeps every square weight near orthogonal throughout
    assert max(reg_metrics.weight_defects) <= reg_metrics.weight_defects[0] + 0.5
    print(f"val acc: resnet_relu={acc_resnet:.4f} ff_sigma1={acc_sigma:.4f}"
          f" gaussian={acc_gauss:.4f} regularized={acc_reg:.4f}")


# ---------------------------------------------------------------------------
# 9. identical seeds give byte-identical artifacts
# ---------------------------------------------------------------------------


RELU_JSON = {"breakpoints": [0.0], "slopes": [0.0, 1.0], "anchor_value": 0.0}


def _cli_twice(tmp_path, command, config):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{command}_{tag}"
        code = cli_main([command, "--config", str(path), "--out", str(out)])
        assert code == 0, command
        outs.append(out)
    return outs


def test_criterion9_reruns_byte_identical(tmp_path):
    reflection = {"type": "case_ii", "n": 8, "B": {"seed": 11}, "b": [0.1] * 8,
           "ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU_JSON}
    limit = {"type": "limit", "n": 8, "B": {"seed": 12}, "b": [0.3] * 8,
             "m": {"kind": "gaussian_bump", "scale": 0.01},
             "q": {"kind": "constant", "value": 0.0}}

    out_a, out_b = _cli_twice(tmp_path, "verify", {
        "seed": 3, "probes": 100,
        "layers": [{"name": "reflection", "layer": reflection}]})
    assert ((out_a / "verify_reflection.json").read_bytes()
            == (out_b / "verify_reflection.json").read_bytes())

    out_a, out_b = _cli_twice(tmp_path, "spectrum", {
        "seed": 5, "probes": 50, "layers": [reflection, dict(reflection, B={"seed": 13})]})
    for name in ("spectrum_probes.csv", "spectrum_histogram.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    out_a, out_b = _cli_twice(tmp_path, "density", {
        "seed": 7, "probes": 60, "radius": 1.5, "layer": limit})
    assert ((out_a / "density.csv").read_bytes()
            == (out_b / "density.csv").read_bytes())

    out_a, out_b = _cli_twice(tmp_path, "train", {
        "model": "resnet_relu", "width": 8, "depth": 5, "lr0": 0.01,
        "epochs": 4, "batch_size": 32, "seed": 9,
        "data": {"kind": "blobs", "classes": 2, "dim": 8, "per_class": 50,
                 "spread": 0.1, "val_fraction": 0.2}})
    strip_clock = lambda p: [line.rsplit(",", 1)[0]
                             for line in p.read_text().splitlines()]
    assert strip_clock(out_a / "metrics.csv") == strip_clock(out_b / "metrics.csv")
    sum_a = json.loads((out_a / "summary.json").read_text())
    sum_b = json.loads((out_b / "summary.json").read_text())
    sum_a.pop("wall_clock"), sum_b.pop("wall_clock")
    assert sum_a == sum_b
    assert ((out_a / "snapshot.bin").read_bytes()
            == (out_b / "snapshot.bin").read_bytes())
    print("verify/spectrum/density/train artifacts byte-identical across"
          " reruns (wall-clock columns excluded)")
