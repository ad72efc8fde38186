"""Tests for the network container, optimizer pieces, and training loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthojac.data import synthetic_blobs, train_val_split
from orthojac.errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    TrainingDivergedError,
)
from orthojac import layers as layers_module
from orthojac.layers import (
    ConstantField,
    GaussianBumpField,
    LimitLayer,
    RegionCoeffs,
    make_case_i,
    make_case_ii,
    make_mini_net_field,
    layers_from_json,
    make_partitioned,
)
from orthojac.linalg import frobenius_defect, random_orthogonal, random_orthogonal_batch
from orthojac.pwl import make_relu_k, make_sigma_k, make_two_slope
from orthojac.rng import SplitMix64, derive_seed
from orthojac.serial import save_arrays
from orthojac.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    METRICS_HEADER,
    MODEL_NAMES,
    AdamState,
    EpochRow,
    InputAdapter,
    Network,
    TrainConfig,
    adam_step,
    check_model,
    cosine_lr,
    evaluate,
    load_snapshot,
    make_input_adapter,
    make_network,
    ortho_regularizer,
    save_snapshot,
    softmax_cross_entropy,
    softmax_cross_entropy_batch,
    train,
)

# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------


def test_ce_uniform_logits():
    loss, dlogits = softmax_cross_entropy(np.zeros(10), 3)
    assert loss == pytest.approx(np.log(10.0), abs=1e-12)
    assert dlogits[3] == pytest.approx(0.1 - 1.0, abs=1e-12)


def test_ce_saturated_correct_prediction():
    logits = np.zeros(10)
    logits[2] = 30.0
    loss, _ = softmax_cross_entropy(logits, 2)
    assert 0.0 <= loss <= 1e-9


def test_ce_gradient_sums_to_zero():
    gen = SplitMix64(1)
    for _ in range(20):
        _, dlogits = softmax_cross_entropy(50.0 * gen.gaussian(7), 4)
        assert abs(dlogits.sum()) <= 1e-12


def test_ce_extreme_logits_stay_finite():
    logits = np.array([1e4, -1e4, 0.0])
    loss, dlogits = softmax_cross_entropy(logits, 1)
    assert np.isfinite(loss) and np.all(np.isfinite(dlogits))


def test_ce_rejects_bad_label():
    with pytest.raises(DimensionError):
        softmax_cross_entropy(np.zeros(5), 5)
    with pytest.raises(DimensionError):
        softmax_cross_entropy(np.zeros(5), -1)


def test_ce_batch_matches_vector_version():
    gen = SplitMix64(2)
    logits = gen.gaussian_matrix(6, 4)
    labels = np.array([0, 1, 2, 3, 1, 0])
    loss, dlogits = softmax_cross_entropy_batch(logits, labels)
    singles = [softmax_cross_entropy(logits[i], labels[i]) for i in range(6)]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), abs=1e-12)
    stacked = np.stack([s[1] for s in singles]) / 6.0
    assert np.max(np.abs(dlogits - stacked)) <= 1e-14


def test_ce_batch_rejects_bad_labels():
    with pytest.raises(DimensionError):
        softmax_cross_entropy_batch(np.zeros((2, 3)), np.array([0, 3]))


# ---------------------------------------------------------------------------
# regularizer
# ---------------------------------------------------------------------------


def test_regularizer_zero_on_orthogonal():
    w = random_orthogonal(6, 11)
    value, grad = ortho_regularizer(w, 0.5)
    assert value <= 1e-24
    assert np.max(np.abs(grad)) <= 1e-12


def test_regularizer_hand_oracle():
    value, grad = ortho_regularizer(2.0 * np.eye(2), 1.0)
    assert value == 18.0
    assert np.array_equal(grad, 24.0 * np.eye(2))


def test_regularizer_matches_finite_differences():
    w = SplitMix64(12).gaussian_matrix(4, 4)
    alpha = 0.7
    _, grad = ortho_regularizer(w, alpha)
    h = 1e-6
    for i in range(4):
        for j in range(4):
            w_p = w.copy()
            w_p[i, j] += h
            w_m = w.copy()
            w_m[i, j] -= h
            fd = (ortho_regularizer(w_p, alpha)[0]
                  - ortho_regularizer(w_m, alpha)[0]) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, abs=1e-5)


def test_regularizer_rejects_nonsquare():
    with pytest.raises(DimensionError):
        ortho_regularizer(np.ones((2, 3)), 1.0)


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.1) == 0.1
    assert cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05, abs=1e-15)


def test_cosine_rejects_bad_positions():
    with pytest.raises(DimensionError):
        cosine_lr(5, 0, 0.1)
    with pytest.raises(DimensionError):
        cosine_lr(-1, 10, 0.1)
    with pytest.raises(DimensionError):
        cosine_lr(11, 10, 0.1)


def test_adam_zero_gradient_keeps_params():
    params = {"x": np.array([5.0, -2.0])}
    state = AdamState.for_params(params)
    adam_step(params, {"x": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(params["x"], [5.0, -2.0])
    assert state.step == 1


def test_adam_first_step_oracle():
    params = {"x": np.array([0.0])}
    state = AdamState.for_params(params)
    adam_step(params, {"x": np.array([1.0])}, state, lr=0.001)
    # m_hat = v_hat = 1 exactly, so the update is -lr / (1 + eps)
    assert params["x"][0] == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-18)


def test_adam_constant_gradient_approaches_lr_steps():
    params = {"x": np.array([0.0])}
    state = AdamState.for_params(params)
    prev = 0.0
    for _ in range(200):
        prev = params["x"][0]
        adam_step(params, {"x": np.array([1.0])}, state, lr=0.01)
    last_step = abs(params["x"][0] - prev)
    assert last_step == pytest.approx(0.01, rel=0.05)


def test_adam_rejects_shape_mismatch():
    params = {"x": np.zeros((2, 2))}
    state = AdamState.for_params(params)
    with pytest.raises(DimensionError):
        adam_step(params, {"x": np.zeros(3)}, state, lr=0.1)


def reference_adam_step(params, grads, state, lr):
    """The update as first written: one expression per parameter."""
    state.step += 1
    t = state.step
    scale1 = 1.0 - ADAM_BETA1**t
    scale2 = 1.0 - ADAM_BETA2**t
    for name in sorted(params):
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        params[name] -= lr * (m / scale1) / (np.sqrt(v / scale2) + ADAM_EPS)


def test_adam_step_bitwise_matches_reference_over_several_steps():
    gen = SplitMix64(77)
    shapes = {"w": (5, 5), "b": (5,), "head.w": (3, 5)}

    def draw(scale):
        return {k: scale * gen.gaussian(int(np.prod(s))).reshape(s)
                for k, s in shapes.items()}

    params = draw(1.0)
    ref_params = {k: v.copy() for k, v in params.items()}
    state = AdamState.for_params(params)
    ref_state = AdamState.for_params(ref_params)
    for step in range(6):
        grads = draw(10.0 ** (step - 3))
        lr = 1e-3 * (step + 1)
        adam_step(params, grads, state, lr)
        reference_adam_step(ref_params, grads, ref_state, lr)
        for got, want in ((params, ref_params), (state.m, ref_state.m),
                          (state.v, ref_state.v)):
            for k in shapes:
                assert np.array_equal(got[k].view(np.int64), want[k].view(np.int64))


# ---------------------------------------------------------------------------
# input adapter
# ---------------------------------------------------------------------------


def test_adapter_identity_passthrough():
    adapter = make_input_adapter(5, 5)
    X = SplitMix64(21).gaussian_matrix(3, 5)
    assert adapter.kind == "identity"
    assert adapter.apply(X) is X


def test_adapter_pad_appends_zeros():
    adapter = make_input_adapter(3, 6)
    X = SplitMix64(22).gaussian_matrix(4, 3)
    out = adapter.apply(X)
    assert adapter.kind == "pad"
    assert np.array_equal(out[:, :3], X)
    assert np.all(out[:, 3:] == 0.0)


def test_adapter_projection_is_partial_isometry():
    adapter = make_input_adapter(16, 6, seed=23)
    assert adapter.kind == "project"
    gram = adapter.matrix @ adapter.matrix.T
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-12
    X = SplitMix64(24).gaussian_matrix(5, 16)
    out = adapter.apply(X)
    assert out.shape == (5, 6)
    assert np.all(np.linalg.norm(out, axis=1) <= np.linalg.norm(X, axis=1) + 1e-12)


def test_adapter_deterministic():
    a = make_input_adapter(12, 4, seed=25)
    b = make_input_adapter(12, 4, seed=25)
    assert np.array_equal(a.matrix, b.matrix)


def test_adapter_rejects_wrong_input_dim():
    adapter = make_input_adapter(4, 4)
    with pytest.raises(DimensionError):
        adapter.apply(np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# network container
# ---------------------------------------------------------------------------


def small_strict_layer(n, seed):
    return make_case_ii(random_orthogonal(n, seed), np.zeros(n),
                        ell=1.0, c=0.0, d=-2.0, sigma=make_relu_k([0.0]))


def test_network_validates_layer_width():
    with pytest.raises(DimensionError):
        Network(make_input_adapter(4, 4), [small_strict_layer(5, 1)],
                np.zeros((3, 4)), np.zeros(3))


def test_network_validates_head_shape():
    with pytest.raises(DimensionError):
        Network(make_input_adapter(4, 4), [], np.zeros((3, 5)), np.zeros(3))
    with pytest.raises(DimensionError):
        Network(make_input_adapter(4, 4), [], np.zeros((3, 4)), np.zeros(2))


def test_network_param_keys_and_square_weights():
    # the second has a square head (10 classes at width 10), the third square
    # mini-net field weights (16 hidden units at width 16); neither counts
    for model, width, classes, seed in (("resnet_relu", 8, 10, 31),
                                        ("resnet_relu", 10, 10, 1),
                                        ("limit_m3", 16, 4, 1)):
        net = make_network(model, width, 3, classes, 8, seed=seed)
        keys = set(net.params())
        assert {"head.w", "head.b", "layers.0.B", "layers.2.b"} <= keys
        squares = net.square_weights()
        assert set(squares) == {"layers.0.B", "layers.1.B", "layers.2.B"}
        assert all(w.shape == (width, width) for w in squares.values())
        assert max(frobenius_defect(w) for w in squares.values()) <= 1e-12


def test_network_first_batch_gradient_ratio_is_one():
    net = make_network("resnet_relu", 16, 30, 4, 8, seed=32)
    ds = synthetic_blobs(4, 8, 30, 0.2, seed=33)
    logits, stack_out, inputs = net.forward_cache(ds.features)
    _, dlogits = softmax_cross_entropy_batch(logits, ds.labels)
    _, cot_in, cot_out = net.backward_batch(inputs, stack_out, dlogits)
    in_norm = np.linalg.norm(cot_in, axis=1)
    out_norm = np.linalg.norm(cot_out, axis=1)
    assert np.max(np.abs(in_norm / out_norm - 1.0)) <= 1e-8


def test_evaluate_constant_logits_breaks_ties_to_class_zero():
    n = 6
    net = Network(make_input_adapter(n, n), [], np.zeros((10, n)), np.zeros(10))
    feats = SplitMix64(34).gaussian_matrix(50, n)
    labels = np.repeat(np.arange(10, dtype=np.int64), 5)
    from orthojac.data import Dataset
    ds = Dataset(feats, labels, 10)
    assert evaluate(net, ds) == pytest.approx(0.1)


def test_evaluate_perfect_logits():
    n = 4
    head = np.zeros((3, n))
    ds = synthetic_blobs(3, n, 10, 0.0, seed=35)
    for c in range(3):
        head[c] = ds.features[ds.labels == c][0]
    net = Network(make_input_adapter(n, n), [], 100.0 * head, np.zeros(3))
    assert evaluate(net, ds) == 1.0


def test_evaluate_invariant_to_logit_shift():
    net = make_network("ff_sigma1", 8, 2, 4, 8, seed=36)
    ds = synthetic_blobs(4, 8, 20, 0.3, seed=37)
    base = evaluate(net, ds)
    net.head_b += 7.5
    assert evaluate(net, ds) == base


def test_evaluate_rejects_empty_dataset():
    from orthojac.data import Dataset
    net = make_network("resnet_relu", 4, 1, 2, 4, seed=38)
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, np.int64), 2)
    with pytest.raises(DimensionError):
        evaluate(net, empty)


# ---------------------------------------------------------------------------
# model menu
# ---------------------------------------------------------------------------


def test_every_model_builds_and_runs():
    X = SplitMix64(41).gaussian_matrix(4, 6)
    assert len(MODEL_NAMES) == 12
    for model in MODEL_NAMES:
        net = make_network(model, 8, 2, 3, 6, seed=42)
        logits = net.forward_batch(X)
        assert logits.shape == (4, 3)
        assert np.all(np.isfinite(logits))
        # layers_from_json refuses a spec key its type does not take, at any width
        assert [layer.width for layer in make_network(model, 4, 2, 3, 4, seed=43).layers] == [4, 4]


def test_forward_batch_bitwise_matches_forward_cache():
    X = SplitMix64(44).gaussian_matrix(9, 6)
    for model in MODEL_NAMES:
        net = make_network(model, 8, 3, 3, 6, seed=45)
        got = net.forward_batch(X)
        assert np.array_equal(got.view(np.int64),
                              net.forward_cache(X)[0].view(np.int64)), model


# ---------------------------------------------------------------------------
# the backward pass reads what the forward pass kept
# ---------------------------------------------------------------------------


def _recomputed_vjp(layer, X, V):
    """A layer's VJP computed from its rows alone: ``Z = X B^T + b``, then each row's
    region coefficients and ``sigma.value``/``sigma.deriv`` of its Z row, and one sum
    over the block; a limit layer evaluates its fields from X."""
    if isinstance(layer, layers_module.ComposedLayer):
        return _recomputed_vjp(layer.inner, X, V @ layer.rotation)
    if isinstance(layer, LimitLayer):
        dX, grads = _recomputed_vjp(layer.reflection, X, V)
        m, q = layer.m, layer.q
        v_sum, v_pull = V.sum(axis=1), V @ (layer.B.T @ layer.b)
        H_m, H_q = m.hidden_batch(X), q.hidden_batch(X)
        dX += v_sum[:, np.newaxis] * q.grad_batch(X, H_q)
        dX -= v_pull[:, np.newaxis] * m.grad_batch(X, H_m)
        one_minus_m = (1.0 - m.eval_batch(X, H_m))[:, np.newaxis] * V
        grads["B"] += np.outer(layer.b, one_minus_m.sum(axis=0))
        grads["b"] += (one_minus_m @ layer.B.T).sum(axis=0)
        grads.update({f"m.{k}": g for k, g in m.param_grads_batch(X, -v_pull, H_m).items()})
        grads.update({f"q.{k}": g for k, g in q.param_grads_batch(X, v_sum, H_q).items()})
        return dX, grads
    keys = [()] * len(X)
    if layer.hyperplanes:
        normals = np.stack([normal for normal, _ in layer.hyperplanes])
        offsets = np.array([offset for _, offset in layer.hyperplanes])
        keys = [tuple(1 if a else -1 for a in row) for row in (X @ normals.T - offsets >= 0.0)]
    coeffs = [layer.regions.get(key, layer.default) for key in keys]
    ell, d = (np.array([[getattr(co, name)] for co in coeffs]).reshape(len(X), 1)
              for name in ("ell", "d"))
    Z = X @ layer.B.T + layer.b
    S = np.array([co.sigma.value(z) for co, z in zip(coeffs, Z)]).reshape(Z.shape)
    slope = np.array([co.sigma.deriv(z) for co, z in zip(coeffs, Z)]).reshape(Z.shape)
    W = slope * ((d * V) @ layer.A.T)
    dX = W @ layer.B
    skip = ell[:, 0] != 0.0
    dX[skip] += ell[skip] * V[skip]
    gA, gB, gb = S.T @ (d * V), W.T @ X, W.sum(axis=0)
    if layer.shared_weights:
        return dX, {"B": gA + gB, "b": gb}
    return dX, {"A": gA, "B": gB, "b": gb}


def assert_same_bits(got, want, what=""):
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64)), what


def _uncached_backward(net, X_raw, dlogits):
    """``backward_batch``'s gradients and input cotangent, chained by hand through
    ``vjp_batch``, each layer given the kept values of a fresh ``forward_batch`` of its
    own input; each layer's VJP is also checked against ``_recomputed_vjp``."""
    inputs, cur = [], net.adapter.apply(X_raw)
    for layer in net.layers:
        inputs.append(cur)
        cur = layer.forward_batch(cur)[0]
    grads = {"head.w": dlogits.T @ cur, "head.b": dlogits.sum(axis=0)}
    cot = dlogits @ net.head_w
    for i in range(len(net.layers) - 1, -1, -1):
        want_cot, want_grads = _recomputed_vjp(net.layers[i], inputs[i], cot)
        kept = net.layers[i].forward_batch(inputs[i])[1]
        cot, layer_grads = net.layers[i].vjp_batch(inputs[i], cot, kept)
        assert_same_bits(cot, want_cot, i)
        assert list(layer_grads) == list(want_grads)
        for name, g in layer_grads.items():
            assert_same_bits(g, want_grads[name], (i, name))
            grads[f"layers.{i}.{name}"] = g
    return grads, cot


def assert_cached_backward_is_uncached(net, X, seed):
    logits, stack_out, cache = net.forward_cache(X)
    dlogits = SplitMix64(seed).gaussian_matrix(*logits.shape)
    grads, cot_in, _ = net.backward_batch(cache, stack_out, dlogits)
    assert cache == []
    want_grads, want_cot = _uncached_backward(net, X, dlogits)
    assert_same_bits(cot_in, want_cot)
    assert list(grads) == list(want_grads)
    for name, g in grads.items():
        assert_same_bits(g, want_grads[name], name)


def _one_layer_network(layer, classes=3, seed=46):
    n = layer.width
    head = SplitMix64(seed).gaussian_matrix(classes, n)
    return Network(make_input_adapter(n, n), [layer], head, np.zeros(classes))


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_cached_backward_matches_uncached_vjp_for_every_model(model):
    net = make_network(model, 8, 3, 3, 6, seed=47)
    assert_cached_backward_is_uncached(net, SplitMix64(48).gaussian_matrix(11, 6), 49)


def _straddling_layers(n=6):
    B, b = random_orthogonal(n, 50), 0.3 * SplitMix64(51).gaussian(n)
    gate = SplitMix64(52).gaussian(n)
    regions = {(1,): RegionCoeffs(1.0, 0.0, -2.0, make_relu_k([0.0])),
               (-1,): RegionCoeffs(0.0, 0.2, 1.0, make_two_slope(-1.0, 1.0, [0.0]))}
    return {
        "partitioned": make_partitioned(B, B, b, [(gate, 0.0)], regions),
        "gated": layers_module.make_gated(B, b, gate, make_relu_k([-1.0, 0.0, 1.0])),
        "composed": layers_module.ComposedLayer(
            random_orthogonal(n, 53), make_case_ii(B, b, 1.0, 0.0, -2.0, make_relu_k([0.0]))),
        "limit_mini_nets": LimitLayer(B, b, make_mini_net_field(n, 5, 54, 0.3),
                                      make_mini_net_field(n, 4, 55, 0.3)),
        "limit_bump_q": LimitLayer(B, b, make_mini_net_field(n, 5, 56, 0.3),
                                   GaussianBumpField(0.05)),
        "relu3": make_case_ii(B, b, 1.0, 0.0, -2.0, make_relu_k([-1.0, 0.0, 1.0])),
        "sigma3": make_case_i(random_orthogonal(n, 57), B, b, 0.0, 1.0,
                              make_sigma_k([-1.0, 0.0, 1.0])),
    }


@pytest.mark.parametrize("name", list(_straddling_layers()))
def test_cached_backward_matches_uncached_vjp_for_each_layer_kind(name):
    layer = _straddling_layers()[name]
    X = SplitMix64(58).gaussian_matrix(16, layer.width)
    if name in ("partitioned", "gated"):
        # the batch has rows in both cells
        signs = X @ layer.hyperplanes[0][0] >= 0.0
        assert 0 < signs.sum() < len(X)
    assert_cached_backward_is_uncached(_one_layer_network(layer), X, 59)


def test_cached_backward_of_a_zero_row_batch():
    layers = list(_straddling_layers().values())
    head = SplitMix64(60).gaussian_matrix(3, 6)
    net = Network(make_input_adapter(6, 6), layers, head, np.zeros(3))
    assert_cached_backward_is_uncached(net, np.empty((0, 6)), 61)
    logits, stack_out, cache = net.forward_cache(np.empty((0, 6)))
    grads, cot_in, _ = net.backward_batch(cache, stack_out, np.empty((0, 3)))
    assert cot_in.shape == (0, 6)
    assert all(not np.any(g) for g in grads.values())


def test_backward_batch_releases_the_forward_cache():
    import weakref

    net = make_network("resnet_relu", 8, 4, 3, 6, seed=62)
    logits, stack_out, cache = net.forward_cache(SplitMix64(63).gaussian_matrix(10, 6))

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from arrays(item)

    kept = [weakref.ref(a) for _, layer_kept in cache for a in arrays(layer_kept)]
    assert len(kept) >= 2 * len(net.layers)
    net.backward_batch(cache, stack_out, np.ones_like(logits))
    assert cache == []
    assert all(ref() is None for ref in kept)


def test_cached_backward_makes_no_activation_lookup(monkeypatch):
    from orthojac import pwl

    layers = list(_straddling_layers().values())
    head = SplitMix64(64).gaussian_matrix(3, 6)
    net = Network(make_input_adapter(6, 6), layers, head, np.zeros(3))
    logits, stack_out, cache = net.forward_cache(SplitMix64(65).gaussian_matrix(12, 6))

    def forbidden(*args, **kwargs):
        raise AssertionError("the backward pass recomputed forward work")

    for name in ("value", "deriv", "value_and_piece", "linearize", "distance_to_breakpoint"):
        monkeypatch.setattr(pwl.PwlScalar, name, forbidden)
    monkeypatch.setattr(layers_module.MiniNetField, "hidden_batch", forbidden)
    for cls in (layers_module.PartitionedLayer, LimitLayer, layers_module.ComposedLayer):
        monkeypatch.setattr(cls, "forward_batch", forbidden)
    grads, _, _ = net.backward_batch(cache, stack_out, np.ones_like(logits))
    assert set(grads) == set(net.params())


def test_model_menu_deterministic():
    a = make_network("limit_m3", 8, 2, 3, 6, seed=43)
    b = make_network("limit_m3", 8, 2, 3, 6, seed=43)
    for key, arr in a.params().items():
        assert np.array_equal(arr, b.params()[key])


def parent_make_layer(model, width, seed):
    """One layer of ``model`` from the layer constructors, drawing each of A and B
    alone, as the model menu built it before its layers were specs: the oracle."""
    B = random_orthogonal(width, derive_seed(seed, 0))
    b = np.zeros(width)
    relu = make_relu_k([0.0])
    if model in ("resnet_relu", "resnet_relu3"):
        sigma = relu if model == "resnet_relu" else make_relu_k([-1.0, 0.0, 1.0])
        return make_case_ii(B, b, ell=1.0, c=0.0, d=-2.0, sigma=sigma)
    A = random_orthogonal(width, derive_seed(seed, 1))
    if model in ("ff_sigma1", "ff_sigma3"):
        nodes = [0.0] if model == "ff_sigma1" else [-1.0, 0.0, 1.0]
        return make_case_i(A, B, b, c=0.0, d=1.0, sigma=make_sigma_k(nodes))
    if model == "resnet_AB_baseline":
        coeffs = RegionCoeffs(ell=1.0, c=0.0, d=2.0, sigma=relu)
        return make_partitioned(A, B, b, [], {(): coeffs}, strict=False)
    if model in ("ff_relu_partial", "ff_leakyrelu"):
        sigma = relu if model == "ff_relu_partial" else make_two_slope(0.3, 1.0, [0.0])
        return make_case_i(A, B, b, c=0.0, d=1.0, sigma=sigma, strict=False)
    if model == "resnet_B_partial":
        return make_case_ii(B, b, ell=1.0, c=0.0, d=-1.0, sigma=relu, strict=False)
    if model == "limit_m1":
        return LimitLayer(B, b, ConstantField(1.0), ConstantField(0.0))
    if model == "limit_m2":
        return LimitLayer(B, b, GaussianBumpField(0.01), ConstantField(0.0))
    if model == "limit_m3":
        m = make_mini_net_field(width, seed=derive_seed(seed, 2))
        return LimitLayer(B, b, m, ConstantField(0.0))
    W = SplitMix64(derive_seed(seed, 3)).gaussian_matrix(width, width) / np.sqrt(width)
    return make_case_i(np.eye(width), W, b, c=0.0, d=1.0, sigma=relu, strict=False)


def test_model_params_unchanged_by_skipping_unused_draws():
    # the oracle draws each weight alone; make_network factors them in one batch
    for model in MODEL_NAMES:
        built = make_network(model, 8, 3, 3, 6, seed=47).params()
        want = {f"layers.{i}.{name}": arr
                for i in range(3)
                for name, arr in parent_make_layer(model, 8, derive_seed(47, 0x7A, i))
                .params().items()}
        assert sorted(k for k in built if k.startswith("layers.")) == sorted(want), model
        for name, arr in want.items():
            assert np.array_equal(built[name].view(np.int64), arr.view(np.int64)), (model, name)


# random orthogonal weights each model draws per layer: B, then A when used
ORTHOGONAL_DRAWS = dict.fromkeys(MODEL_NAMES, 1)
ORTHOGONAL_DRAWS.update(dict.fromkeys(
    ("ff_sigma1", "ff_sigma3", "resnet_AB_baseline", "ff_relu_partial",
     "ff_leakyrelu"), 2))
ORTHOGONAL_DRAWS["gaussian_ff_baseline"] = 0


def test_models_draw_only_the_weights_they_use(monkeypatch):
    calls = []

    def counted(n, seeds):
        calls.append((n, list(seeds)))
        return random_orthogonal_batch(n, seeds)

    monkeypatch.setattr(layers_module, "random_orthogonal_batch", counted)
    for model in MODEL_NAMES:
        calls.clear()
        # raw_dim == width: the input adapter draws nothing
        make_network(model, 8, 3, 3, 8, seed=48)
        if ORTHOGONAL_DRAWS[model] == 0:
            assert calls == [], model
            continue
        # one factorization per network, of every weight the layers use
        assert len(calls) == 1, model
        n, seeds = calls[0]
        assert n == 8 and len(seeds) == 3 * ORTHOGONAL_DRAWS[model], model


def test_model_layers_rebuild_from_their_own_json():
    for model in MODEL_NAMES:
        net = make_network(model, 8, 3, 3, 6, seed=50)
        rebuilt = layers_from_json([layer.to_json() for layer in net.layers])
        for layer, again in zip(net.layers, rebuilt, strict=True):
            assert again.to_json() == layer.to_json(), model
            params = layer.params()
            assert sorted(again.params()) == sorted(params), model
            for name, arr in again.params().items():
                assert np.array_equal(arr.view(np.int64), params[name].view(np.int64)), (
                    model, name)


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        make_network("mystery", 8, 2, 3, 6, seed=1)
    # before any weight is drawn, so a network without layers is refused too
    with pytest.raises(ConfigError):
        make_network("mystery", 8, 0, 3, 6, seed=1)
    # a name is looked up in a tuple, so an unhashable model is just unknown
    with pytest.raises(ConfigError, match="unknown model"):
        check_model(["resnet_relu"])
    assert check_model("limit_m3") == "limit_m3"


def test_network_layers_share_no_weight_array():
    net = make_network("ff_sigma3", 8, 3, 3, 8, seed=49)
    weights = list(net.square_weights().values())
    assert len(weights) == 6
    for i, w in enumerate(weights):
        for other in weights[i + 1:]:
            assert not np.shares_memory(w, other)


def test_orthogonal_models_have_orthogonal_weights():
    for model in ("resnet_relu", "ff_sigma3", "limit_m2"):
        net = make_network(model, 8, 2, 3, 6, seed=44)
        for w in net.square_weights().values():
            assert frobenius_defect(w) <= 1e-12


def test_gaussian_baseline_weights_not_orthogonal():
    net = make_network("gaussian_ff_baseline", 16, 1, 3, 6, seed=45)
    assert frobenius_defect(net.params()["layers.0.B"]) > 0.5


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def blobs_split(classes=2, dim=8, per_class=100, spread=0.1, seed=5):
    ds = synthetic_blobs(classes, dim, per_class, spread, seed)
    return train_val_split(ds, 0.2, seed=seed + 1)


def test_config_validation():
    good = dict(lr0=0.1, epochs=5)
    TrainConfig(**good)
    with pytest.raises(ConfigError):
        TrainConfig(**{**good, "lr0": 0.0})
    with pytest.raises(ConfigError):
        TrainConfig(**{**good, "epochs": 0})
    with pytest.raises(ConfigError):
        TrainConfig(**{**good, "epochs": 401})
    with pytest.raises(ConfigError):
        TrainConfig(**{**good, "batch_size": 0})
    with pytest.raises(ConfigError):
        TrainConfig(**{**good, "patience": 0})
    with pytest.raises(ConfigError):
        TrainConfig(**{**good, "alpha": -0.1})


def test_head_only_learns_separable_blobs():
    train_set, val_set = blobs_split()
    net = make_network("resnet_relu", 8, 0, 2, 8, seed=7)
    cfg = TrainConfig(lr0=0.05, epochs=20, batch_size=32, seed=8)
    metrics = train(net, cfg, train_set, val_set)
    assert metrics.best_val_acc >= 0.99


def test_training_deterministic():
    train_set, val_set = blobs_split(classes=3, seed=11)

    def run():
        net = make_network("resnet_relu", 8, 3, 3, 8, seed=13)
        cfg = TrainConfig(lr0=0.01, epochs=4, batch_size=64,
                          seed=14, alpha=0.001)
        return train(net, cfg, train_set, val_set)

    a, b = run(), run()
    strip = lambda csv: [line.rsplit(",", 1)[0] for line in csv.splitlines()]
    assert strip(a.to_csv()) == strip(b.to_csv())
    sa, sb = a.summary(), b.summary()
    sa.pop("wall_clock"), sb.pop("wall_clock")
    assert sa == sb


def test_early_stopping_and_best_restore():
    train_set, val_set = blobs_split(per_class=60, seed=17)
    net = make_network("resnet_relu", 8, 1, 2, 8, seed=18)
    cfg = TrainConfig(lr0=0.05, epochs=200, batch_size=32,
                      seed=19, patience=5)
    metrics = train(net, cfg, train_set, val_set)
    assert metrics.stopped_early
    assert metrics.rows[-1].epoch == metrics.best_epoch + cfg.patience
    # the restored parameters reproduce the best validation accuracy
    assert evaluate(net, val_set) == metrics.best_val_acc
    assert metrics.best_val_acc == max(r.val_acc for r in metrics.rows)
    # ties break to the earliest epoch achieving the best value
    first_best = next(r.epoch for r in metrics.rows
                      if r.val_acc == metrics.best_val_acc)
    assert metrics.best_epoch == first_best


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_location():
    train_set, val_set = blobs_split(seed=23)
    net = make_network("resnet_AB_baseline", 8, 30, 2, 8, seed=24)
    cfg = TrainConfig(lr0=1e6, epochs=3, batch_size=32, seed=25)
    with pytest.raises(TrainingDivergedError) as err:
        train(net, cfg, train_set, val_set)
    assert err.value.epoch >= 1
    assert err.value.batch >= 0


def test_a_penalty_past_the_float_range_is_divergence():
    # 1e308 is finite, but 4 * alpha is not: the penalty gradient is infinite, and
    # the step stops there, before Adam divides inf by inf
    train_set, val_set = blobs_split(per_class=10)
    net = make_network("resnet_relu", 8, 2, 2, 8, seed=3)
    before = {key: arr.copy() for key, arr in net.params().items()}
    cfg = TrainConfig(lr0=0.01, epochs=1, batch_size=1000, alpha=1e308)
    with pytest.raises(TrainingDivergedError) as err:
        train(net, cfg, train_set, val_set)
    assert (err.value.epoch, err.value.batch) == (1, 0)
    for key, arr in net.params().items():
        assert np.array_equal(arr, before[key]), key


def test_regularizer_slows_orthogonality_drift():
    def run(alpha):
        ds = synthetic_blobs(3, 8, 80, 0.1, seed=27)
        train_set, val_set = train_val_split(ds, 0.2, seed=28)
        net = make_network("resnet_relu", 8, 3, 3, 8, seed=28)
        cfg = TrainConfig(lr0=1e-3, epochs=12, batch_size=32,
                          seed=29, alpha=alpha)
        return train(net, cfg, train_set, val_set)

    plain, held = run(0.0), run(1.0)
    assert len(plain.weight_defects) == len(plain.rows) + 1
    assert plain.weight_defects[0] <= 1e-12  # orthogonal initialization
    assert held.weight_defects[-1] < 0.5 * plain.weight_defects[-1]


def test_metrics_header_is_the_epoch_row_fields():
    assert METRICS_HEADER == ",".join(f.name for f in dataclasses.fields(EpochRow))


def test_metrics_csv_shape():
    train_set, val_set = blobs_split(seed=31)
    net = make_network("ff_sigma1", 8, 1, 2, 8, seed=32)
    cfg = TrainConfig(lr0=0.01, epochs=3, batch_size=64, seed=33)
    metrics = train(net, cfg, train_set, val_set)
    lines = metrics.to_csv().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == len(metrics.rows) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[4]) == pytest.approx(0.01)  # first-epoch lr is lr0
    assert metrics.summary()["best_epoch"] == metrics.best_epoch


def test_single_batch_epoch_grad_ratio_at_init():
    train_set, val_set = blobs_split(classes=4, dim=8, per_class=40, seed=35)
    net = make_network("resnet_relu3", 16, 25, 4, 8, seed=36)
    cfg = TrainConfig(lr0=1e-5, epochs=1, batch_size=1024,
                      seed=37)
    metrics = train(net, cfg, train_set, val_set)
    assert abs(metrics.rows[0].grad_ratio - 1.0) <= 1e-8


def test_train_rejects_empty_dataset():
    from orthojac.data import Dataset
    net = make_network("resnet_relu", 8, 1, 2, 8, seed=38)
    empty = Dataset(np.zeros((0, 8)), np.zeros(0, np.int64), 2)
    full = synthetic_blobs(2, 8, 5, 0.1, 39)
    cfg = TrainConfig(lr0=0.01, epochs=1)
    with pytest.raises(DimensionError):
        train(net, cfg, empty, full)
    with pytest.raises(DimensionError):
        train(net, cfg, full, empty)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    net = make_network("limit_m3", 8, 2, 3, 8, seed=51)
    path = tmp_path / "snap.bin"
    save_snapshot(path, net, meta={"model": "limit_m3"})
    original = {k: v.copy() for k, v in net.params().items()}
    for arr in net.params().values():
        arr += 1.0
    meta = load_snapshot(path, net)
    assert meta == {"model": "limit_m3"}
    for key, arr in net.params().items():
        assert np.array_equal(arr, original[key])


def test_snapshot_bytes_deterministic(tmp_path):
    net = make_network("resnet_relu", 8, 2, 3, 8, seed=52)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_snapshot(p1, net)
    save_snapshot(p2, net)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_rejects_mismatched_structure(tmp_path):
    net_a = make_network("resnet_relu", 8, 2, 3, 8, seed=53)
    net_b = make_network("resnet_relu", 8, 3, 3, 8, seed=53)
    path = tmp_path / "snap.bin"
    save_snapshot(path, net_a)
    with pytest.raises(DataFormatError):
        load_snapshot(path, net_b)


def test_snapshot_rejects_shape_change(tmp_path):
    net_a = make_network("resnet_relu", 8, 1, 3, 8, seed=54)
    net_b = make_network("resnet_relu", 6, 1, 3, 6, seed=54)
    path = tmp_path / "snap.bin"
    save_snapshot(path, net_a)
    with pytest.raises(DataFormatError):
        load_snapshot(path, net_b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_snapshot_rejects_non_finite_weights(tmp_path, bad):
    net = make_network("resnet_relu", 8, 2, 3, 8, seed=55)
    path = tmp_path / "snap.bin"
    params = {k: v.copy() for k, v in net.params().items()}
    params["layers.1.B"][2, 3] = bad
    save_arrays(path, params)
    before = {k: v.copy() for k, v in net.params().items()}
    with pytest.raises(DataFormatError, match="layers.1.B.*non-finite"):
        load_snapshot(path, net)
    for key, arr in net.params().items():
        assert np.array_equal(arr, before[key])


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 8), st.integers(0, 2**32))
def test_ce_batch_gradient_rows_sum_to_zero(k, seed):
    gen = SplitMix64(seed)
    logits = 10.0 * gen.gaussian_matrix(3, k)
    labels = (gen.uniform(3) * k).astype(np.int64)
    _, dlogits = softmax_cross_entropy_batch(logits, labels)
    assert np.max(np.abs(dlogits.sum(axis=1))) <= 1e-12
