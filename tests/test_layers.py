import inspect
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthojac import layers as ly
from orthojac import linalg
from orthojac import pwl
from orthojac.errors import (
    DimensionError,
    InvalidGateError,
    MissingRegionError,
    MixedCaseError,
    NearKinkError,
    OrthogonalityError,
    SlopeMismatchError,
)
from orthojac.linalg import random_orthogonal, random_orthogonal_batch
from orthojac.rng import SplitMix64
from orthojac.verify import fd_jacobian

N = 8

RELU = pwl.make_relu_k([0.0])
RELU3 = pwl.make_relu_k([-1.0, 0.0, 1.0])
SIGMA3 = pwl.make_sigma_k([-1.0, 0.0, 1.0])
ABS = pwl.make_two_slope(-1.0, 1.0, [0.0])
LEAKY = pwl.make_two_slope(0.3, 1.0, [0.0])


def orth(seed, n=N):
    return random_orthogonal(n, seed)


def bias(seed, n=N, scale=0.3):
    return scale * SplitMix64(seed).gaussian(n)


def every_family(n=N):
    """One strict representative per layer family."""
    A, B = orth(1, n), orth(2, n)
    b = bias(3, n)
    gate = SplitMix64(11).gaussian(n)
    inner = ly.make_case_ii(B, b, 1.0, 0.0, -2.0, RELU)
    regions = {
        (1,): ly.RegionCoeffs(1.0, 0.0, 1.0, pwl.make_two_slope(0.0, -2.0, [-1.0, 0.0, 1.0])),
        (-1,): ly.RegionCoeffs(-1.0, 0.0, 1.0, pwl.make_two_slope(0.0, 2.0, [-1.0, 0.0, 1.0])),
    }
    return {
        "case_i_abs": ly.make_case_i(A, B, b, 0.5, 1.0, ABS),
        "case_i_sigma3": ly.make_case_i(A, B, b, 0.0, 1.0, SIGMA3),
        "case_ii_relu": inner,
        "case_ii_relu3": ly.make_case_ii(B, b, 1.0, 0.0, -2.0, RELU3),
        "gated": ly.make_gated(B, b, gate, RELU3),
        "composed": ly.ComposedLayer(orth(5, n), inner),
        "partitioned": ly.make_partitioned(B, B, b, [(gate, 0.0)], regions),
        "limit": ly.LimitLayer(
            B, b, ly.GaussianBumpField(0.01), ly.ConstantField(0.0)
        ),
    }


def margin_probe(layer, seed, margin=1e-3):
    stream = SplitMix64(seed)
    for _ in range(100):
        x = stream.gaussian(layer.width)
        if layer.kink_distance(x) >= margin:
            return x
    raise AssertionError("no margin-valid probe found")


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_case_i_identity_weights_is_activation():
    layer = ly.make_case_i(np.eye(2), np.eye(2), np.zeros(2), 0.0, 1.0, ABS)
    x = np.array([-3.0, 2.0])
    assert np.allclose(layer.forward(x), [3.0, 2.0], atol=1e-15)


def test_case_ii_identity_weights_is_negative_abs():
    layer = ly.make_case_ii(np.eye(2), np.zeros(2), 1.0, 0.0, -2.0, RELU)
    x = np.array([-3.0, 2.0])
    assert np.allclose(layer.forward(x), [-3.0, -2.0], atol=1e-15)


def test_gated_frozen_example():
    layer = ly.make_gated(
        np.eye(2), np.zeros(2), np.array([1.0, 0.0]), RELU
    )
    assert np.allclose(layer.forward(np.array([-1.0, 2.0])), [1.0, 2.0], atol=1e-15)


def test_gated_sign_zero_is_positive():
    layer = ly.make_gated(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), RELU)
    x = np.array([0.0, -3.0])  # gate value exactly 0
    inner = x - 2.0 * np.maximum(x, 0.0)
    assert np.array_equal(layer.forward(x), inner)


def test_limit_constant_fields_match_case_ii():
    B, b = orth(4), bias(5)
    lim = ly.LimitLayer(B, b, ly.ConstantField(1.0), ly.ConstantField(0.0))
    ref = ly.make_case_ii(B, b, 1.0, 0.0, -2.0, RELU)
    X = SplitMix64(6).gaussian_matrix(20, N)
    assert np.max(np.abs(lim.forward_batch(X)[0] - ref.forward_batch(X)[0])) < 1e-14


def test_limit_general_constant_m_matches_case_ii_twin():
    # with constant m0, q0 the layer equals a strict case-ii member with
    # weights (-B, -b), ell=m0, d=1 and the max-form two-slope activation
    B, b = orth(4), bias(5)
    m0, q0 = 0.25, -0.1
    lim = ly.LimitLayer(B, b, ly.ConstantField(m0), ly.ConstantField(q0))
    sigma = pwl.make_two_slope(-(1.0 + m0), 1.0 - m0, [0.0])
    ref = ly.make_case_ii(-B, -b, m0, q0, 1.0, sigma)
    X = SplitMix64(6).gaussian_matrix(20, N)
    assert np.max(np.abs(lim.forward_batch(X)[0] - ref.forward_batch(X)[0])) < 1e-13


def test_limit_bump_at_origin():
    lim = ly.LimitLayer(
        np.eye(3), np.zeros(3), ly.GaussianBumpField(0.01), ly.ConstantField(0.0)
    )
    assert np.allclose(lim.forward(np.zeros(3)), np.zeros(3), atol=1e-15)


def test_gated_equals_two_region_partition():
    fams = every_family()
    gated, part = fams["gated"], fams["partitioned"]
    X = SplitMix64(21).gaussian_matrix(50, N)
    assert np.max(np.abs(gated.forward_batch(X)[0] - part.forward_batch(X)[0])) == 0.0


def test_forward_batch_consistent_with_single():
    X = SplitMix64(31).gaussian_matrix(7, N)
    for name, layer in every_family().items():
        batch = layer.forward_batch(X)[0]
        rows = np.stack([layer.forward(x) for x in X])
        # batched and single-row GEMMs may differ in the last ulp
        assert np.max(np.abs(batch - rows)) < 1e-12, name


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------


def test_strict_jacobians_are_orthogonal():
    for name, layer in every_family().items():
        if name == "limit":
            continue
        for seed in range(5):
            x = margin_probe(layer, 100 + seed)
            jac = layer.jacobian(x)
            defect = np.linalg.norm(jac.T @ jac - np.eye(N))
            assert defect <= 1e-10, (name, defect)


def test_jacobian_matches_finite_differences():
    for name, layer in every_family().items():
        x = margin_probe(layer, 7)
        jac = layer.jacobian(x)
        fd = fd_jacobian(layer.forward, x)
        assert np.max(np.abs(jac - fd)) < 1e-5, name


def test_composed_jacobian_is_rotation_times_inner():
    fams = every_family()
    comp = fams["composed"]
    x = margin_probe(comp, 13)
    expect = comp.rotation @ comp.inner.jacobian(x)
    assert np.array_equal(comp.jacobian(x), expect)
    # the sigma-term weight view: A = B O^T reproduces the same Jacobian
    B = comp.inner.B
    z = B @ x + comp.inner.b
    diag = RELU.deriv(z)
    a_equiv = B @ comp.rotation.T
    term = -2.0 * ((a_equiv.T * diag) @ B)
    assert np.max(np.abs(expect - (comp.rotation + term))) < 1e-12


def test_near_kink_raises():
    layer = ly.make_case_ii(np.eye(2), np.zeros(2), 1.0, 0.0, -2.0, RELU)
    with pytest.raises(NearKinkError):
        layer.jacobian(np.array([0.0, 1.0]))
    with pytest.raises(NearKinkError):
        layer.jacobian(np.array([1e-9, 1.0]))
    jac = layer.jacobian(np.array([1e-9, 1.0]), margin=1e-10)
    assert jac.shape == (2, 2)


def test_kink_distance_pre_activation_and_gate():
    layer = ly.make_case_ii(np.eye(2), np.zeros(2), 1.0, 0.0, -2.0, RELU)
    assert layer.kink_distance(np.array([0.5, -0.2])) == pytest.approx(0.2)
    gated = ly.make_gated(np.eye(2), np.zeros(2), np.array([1.0, 1.0]), RELU)
    # gate margin |a.x| = 0.1 is smaller than both |z_i|
    assert gated.kink_distance(np.array([0.4, -0.3])) == pytest.approx(0.1)


def test_leaky_unchecked_case_ii_defect():
    B, b = orth(2), bias(3)
    layer = ly.make_case_ii(B, b, 1.0, 0.0, -2.0, LEAKY, strict=False)
    stream = SplitMix64(17)
    for _ in range(20):
        x = stream.gaussian(N)
        z = B @ x + layer.b
        leaky = int(np.sum(z < 0.0))
        if leaky == 0 or layer.kink_distance(x) < 1e-6:
            continue
        jac = layer.jacobian(x)
        defect = np.linalg.norm(jac.T @ jac - np.eye(N))
        assert defect == pytest.approx(0.84 * np.sqrt(leaky), abs=1e-9)
        assert defect >= 0.5


def test_limit_jacobian_structure():
    fams = every_family()
    lim = fams["limit"]
    x = margin_probe(lim, 23)
    jac = lim.jacobian(x)
    z = lim.B @ x + lim.b
    core = np.eye(N) - 2.0 * (lim.B.T * (z >= 0.0)) @ lim.B
    X = x[np.newaxis]
    grad_m = lim.m.grad_batch(X, lim.m.hidden_batch(X))[0]
    expect = core - np.outer(lim.B.T @ lim.b, grad_m)
    assert np.max(np.abs(jac - expect)) < 1e-14


# ---------------------------------------------------------------------------
# vector-Jacobian products and parameter gradients
# ---------------------------------------------------------------------------


def test_vjp_matches_jacobian_transpose():
    stream = SplitMix64(41)
    for name, layer in every_family().items():
        x = margin_probe(layer, 43)
        v = stream.gaussian(N)
        dx, _ = layer.vjp(x, v)
        assert np.max(np.abs(dx - layer.jacobian(x).T @ v)) < 1e-12, name


def test_vjp_batch_sums_per_sample_grads():
    layer = every_family()["case_i_sigma3"]
    X = SplitMix64(51).gaussian_matrix(4, N)
    V = SplitMix64(52).gaussian_matrix(4, N)
    _, summed = layer.vjp_batch(X, V, layer.forward_batch(X)[1])
    acc = {k: np.zeros_like(g) for k, g in summed.items()}
    for x, v in zip(X, V):
        _, g = layer.vjp(x, v)
        for k in acc:
            acc[k] += g[k]
    for k in acc:
        assert np.max(np.abs(acc[k] - summed[k])) < 1e-12, k


def _fd_param_grad(layer_builder, param_arrays, x, v, h=1e-6):
    """Central differences of v . F(x) w.r.t. every entry of each array."""
    grads = {}
    for name, arr in param_arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(v @ layer_builder().forward(x))
            flat[i] = orig - h
            down = float(v @ layer_builder().forward(x))
            flat[i] = orig
            g.ravel()[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def test_param_grads_case_i_against_fd():
    n = 4
    A, B, b = orth(61, n).copy(), orth(62, n).copy(), bias(63, n).copy()
    arrays = {"A": A, "B": B, "b": b}
    build = lambda: ly.make_case_i(A, B, b, 0.3, 1.0, SIGMA3, strict=False)
    layer = build()
    x = margin_probe(layer, 64)
    v = SplitMix64(65).gaussian(n)
    _, got = layer.vjp(x, v)
    want = _fd_param_grad(build, arrays, x, v)
    for k in arrays:
        assert np.max(np.abs(got[k] - want[k])) < 1e-6, k


def test_param_grads_case_ii_against_fd():
    n = 4
    B, b = orth(71, n).copy(), bias(72, n).copy()
    arrays = {"B": B, "b": b}
    build = lambda: ly.make_case_ii(B, b, 1.0, 0.0, -2.0, RELU3, strict=False)
    layer = build()
    x = margin_probe(layer, 73)
    v = SplitMix64(74).gaussian(n)
    _, got = layer.vjp(x, v)
    want = _fd_param_grad(build, arrays, x, v)
    for k in arrays:
        assert np.max(np.abs(got[k] - want[k])) < 1e-6, k


def test_param_grads_gated_against_fd():
    n = 4
    B, b = orth(81, n).copy(), bias(82, n).copy()
    gate = SplitMix64(83).gaussian(n)
    arrays = {"B": B, "b": b}
    build = lambda: ly.make_gated(B, b, gate, RELU3, strict=False)
    layer = build()
    x = margin_probe(layer, 84)
    v = SplitMix64(85).gaussian(n)
    _, got = layer.vjp(x, v)
    want = _fd_param_grad(build, arrays, x, v)
    for k in arrays:
        assert np.max(np.abs(got[k] - want[k])) < 1e-6, k


def test_param_grads_limit_mini_net_against_fd():
    n = 4
    B, b = orth(91, n).copy(), bias(92, n).copy()
    m3 = ly.make_mini_net_field(n, hidden=6, seed=93)
    arrays = {
        "B": B,
        "b": b,
        "m.w_in": m3.w_in,
        "m.bias": m3.bias,
        "m.w_out": m3.w_out,
    }
    build = lambda: ly.LimitLayer(B, b, m3, ly.ConstantField(0.0), strict=False)
    layer = build()
    x = margin_probe(layer, 94)
    v = SplitMix64(95).gaussian(n)
    _, got = layer.vjp(x, v)
    want = _fd_param_grad(build, arrays, x, v)
    for k in arrays:
        assert np.max(np.abs(got[k] - want[k])) < 1e-6, k


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_strict_rejects_non_orthogonal_weight():
    with pytest.raises(OrthogonalityError) as exc:
        ly.make_case_i(1.1 * orth(1), orth(2), np.zeros(N), 0.0, 1.0, ABS)
    assert exc.value.defect > 0.1


def test_strict_rejects_wrong_slopes():
    with pytest.raises(SlopeMismatchError) as exc:
        ly.make_case_i(orth(1), orth(2), np.zeros(N), 0.0, 1.0, RELU)
    assert exc.value.offending_slope == 0.0
    with pytest.raises(SlopeMismatchError) as exc:
        ly.make_case_ii(orth(2), np.zeros(N), 1.0, 0.0, -2.0, LEAKY)
    assert exc.value.offending_slope == pytest.approx(0.3)


def test_unchecked_constructions_allowed():
    ly.make_case_i(orth(1), orth(2), np.zeros(N), 0.0, 1.0, RELU, strict=False)
    ly.make_case_ii(orth(2), np.zeros(N), 1.0, 0.0, -2.0, LEAKY, strict=False)
    ly.make_case_i(1.1 * orth(1), orth(2), np.zeros(N), 0.0, 1.0, ABS, strict=False)


def test_gate_must_be_nonzero():
    with pytest.raises(InvalidGateError):
        ly.make_gated(orth(2), np.zeros(N), np.zeros(N), RELU)


def test_partitioned_mixed_case_requires_shared_weights():
    regions = {(): ly.RegionCoeffs(1.0, 0.0, -2.0, RELU)}
    with pytest.raises(MixedCaseError):
        ly.make_partitioned(orth(1), orth(2), np.zeros(N), [], regions)
    # shared weights fine
    ly.make_partitioned(orth(2), orth(2), np.zeros(N), [], regions)


def _two_formula_rule(ell, d, shared):
    """The oracle: the strict region rule as two slope formulas, the case-i set where
    ell == 0 and the case-ii set, with one shared array, elsewhere.  None stands for
    MixedCaseError."""
    if ell == 0.0:
        return (-1.0 / d, 1.0 / d)
    if not shared:
        return None
    return ((1.0 - ell) / d, -(1.0 + ell) / d)


@settings(max_examples=300, deadline=None)
@given(ell=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
       d=st.floats(-4.0, 4.0).filter(lambda d: abs(d) >= 1e-3),
       shared=st.booleans(),
       picks=st.lists(st.one_of(st.sampled_from([0, 1]), st.floats(-5.0, 5.0)),
                      min_size=2, max_size=2))
def test_one_region_rule_accepts_and_refuses_what_the_two_formula_rule_does(
        ell, d, shared, picks):
    # each slope is one of the two allowed (an index) or any number
    allowed = _two_formula_rule(ell, d, shared)
    candidates = allowed or ((1.0 - ell) / d, -(1.0 + ell) / d)
    slopes = [candidates[p] if isinstance(p, int) else p for p in picks]
    assume(abs(slopes[0] - slopes[1]) > pwl.SLOPE_TOL)
    sigma = pwl.make_two_slope(*slopes, [0.0])
    B = orth(2, 4)
    regions = {(): ly.RegionCoeffs(ell, 0.0, d, sigma)}
    build = lambda: ly.make_partitioned(B if shared else orth(1, 4), B, np.zeros(4), [], regions)
    if allowed is None:
        with pytest.raises(MixedCaseError, match=re.escape(
                "regions with a skip term (ell != 0) require A = B (one shared array)")):
            build()
        return
    bad = pwl.slope_violation(sigma, allowed)
    if bad is None:
        build()
        return
    with pytest.raises(SlopeMismatchError) as exc:
        build()
    assert str(exc.value) == (f"partitioned layer region: activation slopes must lie in"
                              f" {sorted(set(allowed))} (offending slope {bad!r})")


def test_partitioned_nearly_equal_weights_are_not_shared():
    # A within 1e-13 of B is still a second array that would train apart from
    # B, so strict mode rejects a skip-term region on it
    B = random_orthogonal(4, 1)
    A = B + 1e-13
    regions = {(): ly.RegionCoeffs(1.0, 0.0, -2.0, RELU)}
    with pytest.raises(MixedCaseError):
        ly.make_partitioned(A, B, np.zeros(4), [], regions)
    loose = ly.make_partitioned(A, B, np.zeros(4), [], regions, strict=False)
    assert sorted(loose.params()) == ["A", "B", "b"]
    # an exactly equal copy is tied to B and trains as one parameter
    tied = ly.make_partitioned(B.copy(), B, np.zeros(4), [], regions)
    assert tied.A is tied.B
    assert sorted(tied.params()) == ["B", "b"]


def test_partitioned_missing_region():
    gate = np.zeros(N)
    gate[0] = 1.0
    regions = {(1,): ly.RegionCoeffs(0.0, 0.0, 1.0, ABS)}
    layer = ly.make_partitioned(orth(1), orth(2), np.zeros(N), [(gate, 0.0)], regions)
    plus = np.abs(SplitMix64(5).gaussian(N))
    assert layer.forward(plus) is not None
    with pytest.raises(MissingRegionError) as exc:
        layer.forward(-plus)
    assert exc.value.sign_vector == (-1,)
    # a default region covers the hole
    fallback = ly.make_partitioned(
        orth(1),
        orth(2),
        np.zeros(N),
        [(gate, 0.0)],
        regions,
        default=ly.RegionCoeffs(0.0, 0.0, 1.0, ABS),
    )
    assert fallback.forward(-plus) is not None


def test_partitioned_single_region_reduces_to_case_form():
    regions = {(): ly.RegionCoeffs(0.0, 0.5, 1.0, SIGMA3)}
    part = ly.make_partitioned(orth(1), orth(2), bias(3), [], regions)
    ref = ly.make_case_i(orth(1), orth(2), bias(3), 0.5, 1.0, SIGMA3)
    X = SplitMix64(6).gaussian_matrix(9, N)
    assert np.max(np.abs(part.forward_batch(X)[0] - ref.forward_batch(X)[0])) == 0.0


def test_partitioned_offset_hyperplane_sign():
    gate = np.zeros(N)
    gate[0] = 1.0
    regions = {
        (1,): ly.RegionCoeffs(0.0, 0.0, 1.0, ABS),
        (-1,): ly.RegionCoeffs(0.0, 1.0, 1.0, ABS),
    }
    layer = ly.make_partitioned(orth(1), orth(2), np.zeros(N), [(gate, 2.0)], regions)
    at_boundary = np.zeros(N)
    at_boundary[0] = 2.0  # exactly on the plane: sign(0) = +1 side
    assert layer.sign_vector(at_boundary) == (1,)
    below = np.zeros(N)
    below[0] = 1.9
    assert layer.sign_vector(below) == (-1,)


# ---------------------------------------------------------------------------
# slope fields
# ---------------------------------------------------------------------------


def test_gaussian_bump_values_and_lipschitz():
    f = ly.GaussianBumpField(0.01)
    X = SplitMix64(7).gaussian_matrix(200, 5)
    vals = f.eval_batch(X, f.hidden_batch(X))
    assert np.allclose(vals, 0.01 * np.exp(-np.sum(X * X, axis=1)))
    grads = f.grad_batch(X, f.hidden_batch(X))
    norms = np.sqrt(np.sum(grads * grads, axis=1))
    bound = f.lipschitz_bound()
    assert bound == pytest.approx(np.sqrt(2.0) * np.exp(-0.5) * 0.01, rel=1e-12)
    assert np.all(norms <= bound + 1e-15)
    # the bound is attained on the sphere of radius 1/sqrt(2)
    peak = np.zeros(5)
    peak[0] = 1.0 / np.sqrt(2.0)
    peak_grad = f.grad_batch(peak[np.newaxis], f.hidden_batch(peak[np.newaxis]))[0]
    assert np.sqrt(peak_grad @ peak_grad) == pytest.approx(bound, rel=1e-12)


def test_mini_net_field_deterministic_and_bounded():
    f1 = ly.make_mini_net_field(6, hidden=16, seed=3)
    f2 = ly.make_mini_net_field(6, hidden=16, seed=3)
    assert np.array_equal(f1.w_in, f2.w_in)
    assert np.array_equal(f1.bias, f2.bias)
    assert np.array_equal(f1.w_out, f2.w_out)
    X = SplitMix64(8).gaussian_matrix(300, 6)
    grads = f1.grad_batch(X, f1.hidden_batch(X))
    norms = np.sqrt(np.sum(grads * grads, axis=1))
    assert np.max(norms) <= f1.lipschitz_bound() + 1e-12


def test_mini_net_field_grad_matches_fd():
    f = ly.make_mini_net_field(5, hidden=8, seed=9)
    x = SplitMix64(10).gaussian(5)
    if f.kink_distance_batch(x[np.newaxis], f.hidden_batch(x[np.newaxis]))[0] < 1e-4:
        x = x + 0.01
    grad = f.grad_batch(x[np.newaxis], f.hidden_batch(x[np.newaxis]))[0]
    h = 1e-7
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        Xp, Xm = (x + e)[np.newaxis], (x - e)[np.newaxis]
        fd = (f.eval_batch(Xp, f.hidden_batch(Xp))[0]
              - f.eval_batch(Xm, f.hidden_batch(Xm))[0]) / (2 * h)
        assert abs(fd - grad[j]) < 1e-6


def test_isometry_epsilon_values():
    B = orth(4)
    unit_b = np.zeros(N)
    unit_b[0] = 1.0
    lim = ly.LimitLayer(B, unit_b, ly.GaussianBumpField(0.01), ly.ConstantField(0.0))
    assert lim.isometry_epsilon() == pytest.approx(
        2.0 * np.sqrt(2.0) * np.exp(-0.5) * 0.01, rel=1e-12
    )
    const = ly.LimitLayer(B, unit_b, ly.ConstantField(1.0), ly.ConstantField(0.0))
    assert const.isometry_epsilon() == 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_layer_json_round_trip_all_families():
    X = SplitMix64(12).gaussian_matrix(6, N)
    for name, layer in every_family().items():
        back = ly.layer_from_json(layer.to_json())
        assert np.max(np.abs(back.forward_batch(X)[0] - layer.forward_batch(X)[0])) == 0.0, name


def test_layer_from_json_seeded_weights():
    spec = {
        "type": "case_ii",
        "n": 6,
        "B": {"seed": 19},
        "b": [0.0] * 6,
        "ell": 1.0,
        "c": 0.0,
        "d": -2.0,
        "sigma": RELU.to_json(),
    }
    layer = ly.layer_from_json(spec)
    assert np.array_equal(layer.B, random_orthogonal(6, 19))


def test_layer_from_json_builds_each_seed_once(monkeypatch):
    calls = []

    def counted(n, seeds):
        calls.append(list(seeds))
        return random_orthogonal_batch(n, seeds)

    monkeypatch.setattr(ly, "random_orthogonal_batch", counted)
    regions = [{"signs": [], "ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU.to_json()}]
    part = ly.layer_from_json({"type": "partitioned", "n": 6, "A": {"seed": 7},
                               "B": {"seed": 7}, "regions": regions})
    assert calls == [[7]]
    assert part.A is part.B
    assert sorted(part.params()) == ["B", "b"]
    # case-i trains A and B apart even when one seed gives both
    calls.clear()
    case_i = ly.layer_from_json({"type": "case_i", "n": 6, "A": {"seed": 7},
                                 "B": {"seed": 7}, "d": 1.0, "sigma": ABS.to_json()})
    assert calls == [[7]]
    assert case_i.A is not case_i.B
    assert np.array_equal(case_i.A, case_i.B)
    assert sorted(case_i.params()) == ["A", "B", "b"]
    calls.clear()
    ly.layer_from_json({"type": "case_i", "n": 6, "A": {"seed": 7}, "B": {"seed": 8},
                        "d": 1.0, "sigma": ABS.to_json()})
    assert calls == [[7, 8]]


def _case_ii_spec(n, seed):
    return {"type": "case_ii", "n": n, "B": {"seed": seed}, "ell": 1.0, "d": -2.0,
            "sigma": RELU.to_json()}


def test_layers_from_json_factors_one_batch_per_width(monkeypatch):
    calls = []

    def counted(n, seeds):
        calls.append((n, list(seeds)))
        return random_orthogonal_batch(n, seeds)

    monkeypatch.setattr(ly, "random_orthogonal_batch", counted)
    regions = [{"signs": [], "ell": 1.0, "c": 0.0, "d": -2.0, "sigma": RELU.to_json()}]
    specs = [
        {"type": "partitioned", "n": 6, "A": {"seed": 7}, "B": {"seed": 7},
         "regions": regions},
        # the inner spec repeats the rotation's seed and the first spec's seed
        {"type": "composed", "n": 6, "rotation": {"seed": 7},
         "inner": {"type": "composed", "n": 6, "rotation": {"seed": 9},
                   "inner": _case_ii_spec(6, 7)}},
        _case_ii_spec(5, 3),
        {"type": "case_i", "n": 5, "A": orth(4, 5).tolist(), "B": {"seed": 4},
         "d": 1.0, "sigma": ABS.to_json()},
        _case_ii_spec(6, 7),
    ]
    part, comp, small, case_i, again = ly.layers_from_json(specs)
    assert calls == [(6, [7, 7, 9, 7, 7]), (5, [3, 4])]
    assert part.A is part.B
    weights = [part.B, comp.rotation, comp.inner.rotation, comp.inner.inner.B,
               small.B, case_i.B, again.B]
    for i, w in enumerate(weights):
        for other in weights[i + 1:]:
            assert not np.shares_memory(w, other)
    # each matrix is bitwise the one its seed gives alone
    for w, (n, seed) in zip(weights, [(6, 7), (6, 7), (6, 9), (6, 7), (5, 3), (5, 4),
                                      (6, 7)]):
        assert np.array_equal(w.view(np.int64), random_orthogonal(n, seed).view(np.int64))


def explicit_specs(n=4):
    """An explicit-weight spec of each region-affine family, keys in order."""
    A, B = orth(1, n).tolist(), orth(2, n).tolist()
    b = bias(3, n).tolist()
    gate = SplitMix64(11).gaussian(n).tolist()
    return {
        "case_i": {"type": "case_i", "n": n, "A": A, "B": B, "b": b, "c": 0.5,
                   "d": 1.0, "sigma": ABS.to_json(), "strict": True},
        "case_ii": {"type": "case_ii", "n": n, "B": B, "b": b, "ell": 1.0, "c": 0.0,
                    "d": -2.0, "sigma": RELU3.to_json(), "strict": True},
        "gated": {"type": "gated", "n": n, "B": B, "b": b, "gate": gate,
                  "sigma": RELU.to_json(), "strict": False},
        "partitioned": {
            "type": "partitioned", "n": n, "A": B, "B": B, "b": b,
            "hyperplanes": [{"normal": gate, "offset": 0.25}],
            "regions": [
                {"signs": [-1], "ell": 0.0, "c": 1.0, "d": 1.0, "sigma": ABS.to_json()},
                {"signs": [1], "ell": 1.0, "c": 0.0, "d": -2.0,
                 "sigma": RELU.to_json()},
            ],
            "default": None,
            "strict": True,
        },
    }


@pytest.mark.parametrize("family", ["case_i", "case_ii", "gated", "partitioned"])
def test_to_json_gives_back_the_explicit_spec(family):
    spec = explicit_specs()[family]
    back = ly.layer_from_json(spec).to_json()
    assert back == spec
    assert list(back) == list(spec)


def test_to_json_writes_its_types_spec_keys_in_order_and_rebuilds():
    layers = dict(every_family(), partitioned_with_default=three_plane_layer(),
                  limit_mini_net=ly.LimitLayer(orth(2), bias(3), ly.make_mini_net_field(N, 4, 9),
                                               ly.GaussianBumpField(0.01)))
    types, families = set(), set()
    for name, layer in layers.items():
        spec = layer.to_json()
        assert tuple(spec) == ("type", "n", *ly.SPEC_KEYS[spec["type"]]), name
        types.add(spec["type"])
        families.add(getattr(layer, "family", None))
        back = ly.layer_from_json(spec)
        assert back.to_json() == spec, name
        params = layer.params()
        assert sorted(back.params()) == sorted(params), name
        for key, arr in back.params().items():
            assert np.array_equal(arr.view(np.int64), params[key].view(np.int64)), (name, key)
    assert types == set(ly.SPEC_KEYS)
    assert families - {None} == {"case_i", "case_ii", "gated", "partitioned"}


@pytest.mark.parametrize("kind, constructor", [
    ("case_i", ly.make_case_i), ("case_ii", ly.make_case_ii), ("gated", ly.make_gated),
    ("composed", ly.ComposedLayer), ("partitioned", ly.make_partitioned),
    ("limit", ly.LimitLayer)])
def test_spec_keys_are_the_constructor_parameters(kind, constructor):
    assert ly.SPEC_KEYS[kind] == tuple(inspect.signature(constructor).parameters)


def _set(spec, path, value):
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


@pytest.mark.parametrize("family, path, value, message", [
    ("case_ii", ("n",), 4.9, "n must be a positive integer"),
    ("case_ii", ("d",), "-2.0", "d must be a finite number"),
    ("case_ii", ("ell",), True, "ell must be a finite number"),
    ("case_ii", ("strict",), "", "strict must be a bool"),
    ("case_ii", ("sigma", "anchor_value"), None, "anchor_value must be a finite number"),
    ("case_ii", ("sigma", "breakpoints"), ["-1", 0.0, 1.0], "vector of numbers"),
    ("case_i", ("c",), "0.5", "c must be a finite number"),
    ("case_i", ("A", 0, 0), True, "matrix of numbers"),
    ("case_i", ("B", 1), [0.0], "matrix of finite numbers"),
    ("gated", ("b", 0), "0.1", "vector of numbers"),
    ("partitioned", ("regions", 0, "signs", 0), -1.0, "signs must be a list of integers"),
    ("partitioned", ("regions", 1, "signs"), 1, "signs must be a list of integers"),
    ("partitioned", ("regions", 1), [1], "regions must be a list of JSON objects"),
    ("partitioned", ("hyperplanes", 0, "offset"), "0.25", "offset must be a finite number"),
    ("partitioned", ("hyperplanes", 0), [0.25], "hyperplanes must be a list of JSON objects"),
    # a missing key reads as null, which no rule accepts
    ("partitioned", ("default",), {}, "an activation must be a JSON object, got None"),
    # the weights and b are 4 wide
    ("case_ii", ("n",), 3, "a layer spec of n = 3 has weights of width 4"),
])
def test_spec_values_are_never_coerced(family, path, value, message):
    spec = _set(explicit_specs()[family], path, value)
    with pytest.raises(DimensionError, match=re.escape(message)):
        ly.layer_from_json(spec)


@pytest.mark.parametrize("field, message", [
    ({"kind": "mini_net", "n": 4, "hidden": "16", "seed": 1}, "hidden must be a positive integer"),
    ({"kind": "mini_net", "n": 4, "seed": 1.0}, "seed must be an integer"),
    ({"kind": "constant", "value": "0"}, "value must be a finite number"),
    ({"kind": "gaussian_bump"}, "scale must be a finite number, got None"),
    # the field is read, but it does not fit a width-4 layer
    ({"kind": "mini_net", "n": 3, "seed": 1}, "of shape (None, 4), got shape (16, 3)"),
])
def test_limit_spec_fields_are_never_coerced(field, message):
    spec = {"type": "limit", "n": 4, "B": orth(1, 4).tolist(), "b": [0.1] * 4,
            "m": field, "q": {"kind": "constant", "value": 0.0}}
    with pytest.raises(DimensionError, match=re.escape(message)):
        ly.layer_from_json(spec)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 0}, "n must be a positive integer"),
    ({"n": 4, "hidden": 16.0}, "hidden must be a positive integer"),
    ({"n": 4, "seed": True}, "seed must be an integer"),
    ({"n": 4, "init_std": "0.05"}, "init_std must be a finite number"),
])
def test_mini_net_builder_checks_what_a_spec_checks(kwargs, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        ly.make_mini_net_field(**kwargs)


def test_families_are_region_affine_layers():
    fams = every_family()
    for name in ("case_i_abs", "case_ii_relu", "gated", "partitioned"):
        assert isinstance(fams[name], ly.PartitionedLayer)
    assert ly.CaseILayer is ly.CaseIILayer is ly.GatedLayer is ly.PartitionedLayer
    kinds = {name: layer.kind for name, layer in fams.items()}
    assert kinds == {
        "case_i_abs": "CaseILayer", "case_i_sigma3": "CaseILayer",
        "case_ii_relu": "CaseIILayer", "case_ii_relu3": "CaseIILayer",
        "gated": "GatedLayer", "composed": "ComposedLayer",
        "partitioned": "PartitionedLayer", "limit": "LimitLayer",
    }


def three_plane_layer(default=True, missing=()):
    """A strict shared-weight layer on 3 hyperplanes; cells in ``missing`` are
    left undeclared, and the rest come from ``default`` when it is set."""
    normals = SplitMix64(21).gaussian_matrix(3, N)
    planes = list(zip(normals, (0.0, 0.3, -0.2)))
    declared = {
        (1, 1, 1): ly.RegionCoeffs(1.0, 0.0, -2.0, RELU),
        (-1, 1, -1): ly.RegionCoeffs(0.0, 0.5, 1.0, ABS),
        (1, -1, 1): ly.RegionCoeffs(-1.0, 0.0, 2.0, RELU),
    }
    if not default:
        for key in itertools.product((-1, 1), repeat=3):
            declared.setdefault(key, ly.RegionCoeffs(0.0, -0.5, -1.0, ABS))
    regions = {k: co for k, co in declared.items() if k not in missing}
    fallback = ly.RegionCoeffs(1.0, 0.1, -2.0, RELU3) if default else None
    B = orth(2)
    return ly.make_partitioned(B, B, bias(3), planes, regions, default=fallback)


def test_grouped_rows_match_single_samples():
    layer = three_plane_layer()
    X = SplitMix64(22).gaussian_matrix(64, N)
    V = SplitMix64(23).gaussian_matrix(64, N)
    keys = {layer.sign_vector(x) for x in X}
    assert len(keys) >= 4 and keys - set(layer.regions)  # some rows use the default
    out, kept = layer.forward_batch(X)
    dX, grads = layer.vjp_batch(X, V, kept)
    summed = {name: np.zeros_like(g) for name, g in grads.items()}
    for i in range(len(X)):
        assert np.max(np.abs(out[i] - layer.forward(X[i]))) <= 1e-12
        dx, row_grads = layer.vjp(X[i], V[i])
        assert np.max(np.abs(dX[i] - dx)) <= 1e-12
        for name, g in row_grads.items():
            summed[name] += g
    assert sorted(grads) == ["B", "b"]
    for name, g in grads.items():
        assert np.max(np.abs(g - summed[name])) <= 1e-12, name


def test_grouped_rows_name_the_undeclared_cell():
    probe = three_plane_layer()
    X = SplitMix64(22).gaussian_matrix(64, N)
    hole = probe.sign_vector(X[5])
    layer = three_plane_layer(default=False, missing=(hole,))
    assert len({layer.sign_vector(x) for x in X}) >= 4
    for call in (lambda: layer.forward_batch(X), lambda: layer.linearize_batch(X),
                 lambda: layer.vjp_batch(X, X, layer.forward_batch(X)[1])):
        with pytest.raises(MissingRegionError) as exc:
            call()
        assert exc.value.sign_vector == hole
    # a batch that avoids the hole goes through
    rows = [i for i, x in enumerate(X) if layer.sign_vector(x) != hole]
    assert layer.forward_batch(X[rows])[0].shape == (len(rows), N)


# ---------------------------------------------------------------------------
# batched derivatives against the single-sample formulas they replaced
# ---------------------------------------------------------------------------


def batch_families(n=N):
    """Every layer family the batched derivatives must cover."""
    fams = every_family(n)
    return {
        "case_i": fams["case_i_sigma3"],
        "case_ii": fams["case_ii_relu3"],
        "gated": fams["gated"],
        "composed": fams["composed"],
        "three_plane": three_plane_layer(),
        "limit_mini_net": ly.LimitLayer(
            orth(2, n), bias(3, n), ly.make_mini_net_field(n, hidden=6, seed=4),
            ly.GaussianBumpField(0.01)),
    }


def single_jacobian(layer, x):
    """The one-sample Jacobian formulas of each class, kept as an oracle."""
    if isinstance(layer, ly.ComposedLayer):
        return layer.rotation @ single_jacobian(layer.inner, x)
    z = layer.B @ x + layer.b
    if isinstance(layer, ly.LimitLayer):
        jac = -2.0 * ((layer.B.T * (z >= 0.0).astype(np.float64)) @ layer.B)
        jac[np.diag_indices_from(jac)] += 1.0
        m, q, X = layer.m, layer.q, x[np.newaxis]
        jac += np.outer(np.ones(layer.width), q.grad_batch(X, q.hidden_batch(X))[0])
        jac -= np.outer(layer.B.T @ layer.b, m.grad_batch(X, m.hidden_batch(X))[0])
        return jac
    key = tuple(1 if float(normal @ x) - offset >= 0.0 else -1
                for normal, offset in layer.hyperplanes)
    co = layer.regions.get(key, layer.default)
    jac = co.d * ((layer.A.T * co.sigma.deriv(z)) @ layer.B)
    if co.ell != 0.0:
        jac[np.diag_indices_from(jac)] += co.ell
    return jac


def single_kink_distance(layer, x):
    """The one-sample kink distances of each class, kept as an oracle."""
    if isinstance(layer, ly.ComposedLayer):
        return single_kink_distance(layer.inner, x)
    z = layer.B @ x + layer.b
    if isinstance(layer, ly.LimitLayer):
        field = layer.m
        return min(float(np.min(np.abs(z))),
                   float(np.min(np.abs(field.w_in @ x + field.bias))))
    planes = [float(normal @ x) - offset for normal, offset in layer.hyperplanes]
    key = tuple(1 if p >= 0.0 else -1 for p in planes)
    co = layer.regions.get(key, layer.default)
    return min(float(np.min(co.sigma.distance_to_breakpoint(z))),
               min((abs(p) for p in planes), default=np.inf))


@pytest.mark.parametrize("name", sorted(batch_families()))
def test_jacobian_batch_matches_single_sample_formula(name):
    layer = batch_families()[name]
    X = SplitMix64(31).gaussian_matrix(40, N)
    jacs = layer.linearize_batch(X)[1]
    assert jacs.shape == (40, N, N)
    expected = np.stack([single_jacobian(layer, x) for x in X])
    if name == "limit_mini_net":
        # the field gradient is one matmul over all rows, so its low bits
        # depend on the row count
        assert np.max(np.abs(jacs - expected)) <= 1e-14
    else:
        assert np.array_equal(jacs, expected)
    # the one-row wrapper is the batch on one row
    for x in X[:5]:
        assert np.array_equal(layer.jacobian(x, margin=0.0),
                              layer.linearize_batch(x[np.newaxis])[1][0])
    assert layer.linearize_batch(X[:0])[1].shape == (0, N, N)


@pytest.mark.parametrize("name", sorted(batch_families()))
def test_kink_distance_batch_matches_single_sample_formula(name):
    layer = batch_families()[name]
    X = SplitMix64(32).gaussian_matrix(40, N)
    dist = layer.linearize_batch(X)[2]
    expected = np.array([single_kink_distance(layer, x) for x in X])
    # pre-activations of many rows come from one matmul, whose low bits
    # depend on the row count; one row reproduces the formula exactly
    assert np.max(np.abs(dist - expected)) <= 1e-14
    for x, want in zip(X, expected):
        assert layer.kink_distance(x) == want
    assert layer.linearize_batch(X[:0])[2].shape == (0,)


def test_jacobian_wrapper_checks_margin_with_the_batch_distance():
    layer = three_plane_layer()
    X = SplitMix64(33).gaussian_matrix(40, N)
    dist = layer.linearize_batch(X)[2]
    x = X[np.argmin(dist)]
    with pytest.raises(NearKinkError):
        layer.jacobian(x, margin=np.min(dist) * 1.5)
    assert layer.jacobian(x, margin=np.min(dist) * 0.5).shape == (N, N)


@pytest.mark.parametrize("name", sorted(batch_families()))
def test_linearize_batch_output_is_forward_batch(name):
    layer = batch_families()[name]
    X = SplitMix64(34).gaussian_matrix(40, N)
    out, jacs, dist = layer.linearize_batch(X)
    assert np.array_equal(out, layer.forward_batch(X)[0])
    assert jacs.shape == (40, N, N) and dist.shape == (40,)
    # an empty block keeps every shape
    out, jacs, dist = layer.linearize_batch(X[:0])
    assert (out.shape, jacs.shape, dist.shape) == ((0, N), (0, N, N), (0,))


def test_linearize_batch_of_an_empty_block_needs_no_region():
    # a partitioned layer that declares no cell cannot take a row, but it
    # takes an empty block
    planes = [(SplitMix64(35).gaussian(N), 0.0)]
    layer = ly.make_partitioned(orth(2), orth(2), bias(3), planes, {})
    out, jacs, dist = layer.linearize_batch(np.empty((0, N)))
    assert (out.shape, jacs.shape, dist.shape) == ((0, N), (0, N, N), (0,))
    empty = np.empty((0, N))
    assert layer.vjp_batch(empty, empty, layer.forward_batch(empty)[1])[0].shape == (0, N)
    with pytest.raises(MissingRegionError):
        layer.linearize_batch(SplitMix64(36).gaussian_matrix(1, N))


# ---------------------------------------------------------------------------
# one pass per block: per-row region coefficients
# ---------------------------------------------------------------------------


def test_a_straddling_block_evaluates_each_activation_once_on_all_rows(monkeypatch):
    n, P = 6, 16
    B, b, gate = orth(40, n), bias(41, n), SplitMix64(42).gaussian(n)
    regions = {(1,): ly.RegionCoeffs(1.0, 0.0, -2.0, RELU),
               (-1,): ly.RegionCoeffs(0.0, 0.0, 1.0, ABS)}
    layers = {"gated": (ly.make_gated(B, b, gate, RELU), [RELU]),
              "partitioned": (ly.make_partitioned(B, B, b, [(gate, 0.0)], regions), [RELU, ABS])}
    X = SplitMix64(43).gaussian_matrix(P, n)
    assert 0 < np.sum(X @ gate >= 0.0) < P
    calls = []
    for name in ("value_and_piece", "linearize"):
        def counted(self, x, _name=name, _inner=getattr(pwl.PwlScalar, name)):
            calls.append((_name, self, np.shape(x)))
            return _inner(self, x)
        monkeypatch.setattr(pwl.PwlScalar, name, counted)
    for layer, sigmas in layers.values():
        for name, run in (("value_and_piece", lambda: layer.forward_batch(X)),
                          ("linearize", lambda: layer.linearize_batch(X))):
            calls.clear()
            run()
            assert calls == [(name, sigma, (P, n)) for sigma in sigmas]
        calls.clear()
        layer.vjp_batch(X, X, layer.forward_batch(X)[1])
        assert [call[0] for call in calls] == ["value_and_piece"] * len(sigmas)


# activations with one and with three breakpoints, and region coefficients
# (ell, c, d) of every kind: no skip term, a negative d, d not a power of two
MIXED_SIGMAS = (RELU, ABS, LEAKY, RELU3, SIGMA3)
MIXED_COEFFS = ((1.0, 0.0, -2.0), (0.0, 0.5, 1.0), (-1.0, 0.1, 2.0), (0.5, -0.3, 0.7),
                (0.0, 0.0, -3.0))


@st.composite
def mixed_partitions(draw):
    """A non-strict partitioned layer on 2-4 planes and a block of rows: each cell is
    declared or left to the default, and at least one is left."""
    n, k = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    region = st.tuples(st.sampled_from(MIXED_COEFFS), st.sampled_from(MIXED_SIGMAS))
    cells = list(itertools.product((-1, 1), repeat=k))
    chosen = draw(st.lists(st.one_of(st.none(), region), min_size=len(cells),
                           max_size=len(cells)))
    chosen[draw(st.integers(0, len(cells) - 1))] = None
    declared = {}
    for key, picked in zip(cells, chosen):
        if picked is not None:
            declared[key] = ly.RegionCoeffs(*picked[0], picked[1])
    (ell, c, d), sigma = draw(region)
    seed = draw(st.integers(0, 2**31))
    stream = SplitMix64(seed)
    A = stream.gaussian_matrix(n, n) if draw(st.booleans()) else None
    B, b = stream.gaussian_matrix(n, n), 0.3 * stream.gaussian(n)
    planes = list(zip(stream.gaussian_matrix(k, n), 0.3 * stream.gaussian(k)))
    X = stream.gaussian_matrix(draw(st.integers(0, 24)), n)
    return (B if A is None else A, B, b, planes, declared,
            ly.RegionCoeffs(ell, c, d, sigma), X, stream.gaussian_matrix(len(X), n))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(mixed_partitions())
def test_each_row_of_a_partitioned_block_is_its_own_regions(case):
    A, B, b, planes, declared, default, X, V = case
    layer = ly.make_partitioned(A, B, b, planes, declared, default, strict=False)
    holey = ly.make_partitioned(A, B, b, planes, declared, None, strict=False)
    keys = [layer.sign_vector(x) for x in X]
    out, jac, dist = layer.linearize_batch(X)
    kept_out, kept = layer.forward_batch(X)
    dX = layer.vjp_batch(X, V, kept)[0]
    assert np.array_equal(_bits(out), _bits(kept_out))
    offsets = np.min(np.abs(X @ np.stack([nrm for nrm, _ in planes]).T
                            - np.array([off for _, off in planes])), axis=1)
    for key in set(keys):
        rows = [i for i, k in enumerate(keys) if k == key]
        # the row's region alone, as a one-cell layer on the same block
        one = ly.make_partitioned(A, B, b, [], {(): declared.get(key, default)}, strict=False)
        one_out, one_jac, one_dist = one.linearize_batch(X)
        one_dX = one.vjp_batch(X, V, one.forward_batch(X)[1])[0]
        for got, want in ((out, one_out), (jac, one_jac), (dX, one_dX),
                          (dist, np.minimum(one_dist, offsets))):
            assert np.array_equal(_bits(got[rows]), _bits(want[rows]))
    for i, x in enumerate(X):
        assert np.array_equal(_bits(layer.jacobian(x, margin=0.0)), _bits(jac[i]))
        # one row's pre-activations come from a product of another shape
        assert np.max(np.abs(layer.forward(x) - out[i])) <= 1e-12 * (1.0 + np.max(np.abs(out[i])))
    # the layer without the default needs a region for every row it takes
    holes = sorted(key for key in keys if key not in declared)
    for run in (holey.forward_batch, holey.linearize_batch):
        if holes:
            with pytest.raises(MissingRegionError) as exc:
                run(X)
            assert exc.value.sign_vector == holes[0]
    # and takes the rows in declared cells as the layer with the default does
    Y = X[[key in declared for key in keys]].reshape(-1, len(B))
    for got, want in zip(holey.linearize_batch(Y), layer.linearize_batch(Y)):
        assert np.array_equal(_bits(got), _bits(want))
    empty = X[:0]
    assert holey.linearize_batch(empty)[1].shape == (0, len(B), len(B))
    assert holey.vjp_batch(empty, empty, holey.forward_batch(empty)[1])[0].shape == empty.shape


# ---------------------------------------------------------------------------
# one signature per batched pass
# ---------------------------------------------------------------------------

BATCHED_PASSES = [
    *((cls, name) for cls in (ly.PartitionedLayer, ly.ComposedLayer, ly.LimitLayer)
      for name in ("forward_batch", "linearize_batch", "vjp_batch")),
    *((cls, name) for cls in (ly.ConstantField, ly.GaussianBumpField, ly.MiniNetField)
      for name in ("hidden_batch", "eval_batch", "grad_batch", "kink_distance_batch",
                   "param_grads_batch")),
]


@pytest.mark.parametrize("cls, name", BATCHED_PASSES,
                         ids=[f"{cls.__name__}.{name}" for cls, name in BATCHED_PASSES])
def test_batched_pass_has_no_optional_parameter(cls, name):
    # a caller that leaves out kept values or a field state gets a TypeError,
    # not a silent recomputation
    params = inspect.signature(getattr(cls, name)).parameters.values()
    assert [p.name for p in params if p.default is not inspect.Parameter.empty] == []


def test_a_limit_pass_evaluates_each_mini_net_state_once(monkeypatch):
    calls = []
    hidden_batch = ly.MiniNetField.hidden_batch

    def counted(self, X):
        calls.append(id(self))
        return hidden_batch(self, X)

    monkeypatch.setattr(ly.MiniNetField, "hidden_batch", counted)
    m, q = ly.make_mini_net_field(N, hidden=6, seed=4), ly.make_mini_net_field(N, hidden=5, seed=5)
    layer = ly.LimitLayer(orth(2), bias(3), m, q)
    X = SplitMix64(37).gaussian_matrix(12, N)
    layer.linearize_batch(X)
    assert calls == [id(m), id(q)]
    calls.clear()
    out, kept = layer.forward_batch(X)
    layer.vjp_batch(X, SplitMix64(38).gaussian_matrix(12, N), kept)
    assert calls == [id(m), id(q)]


@pytest.mark.parametrize("build", [
    lambda strict: ly.make_case_ii(orth(2), bias(3), 1.0, 0.0, -2.0, RELU, strict=strict),
    lambda strict: ly.make_partitioned(orth(2), orth(2), bias(3), [],
                                       {(): ly.RegionCoeffs(0.0, 0.0, 1.0, ABS)}, strict=strict),
    lambda strict: ly.ComposedLayer(orth(5), ly.make_case_ii(
        orth(2), bias(3), 1.0, 0.0, -2.0, RELU), strict=strict),
    lambda strict: ly.LimitLayer(orth(2), bias(3), ly.ConstantField(0.0),
                                 ly.ConstantField(0.0), strict=strict),
], ids=["case_ii", "partitioned", "composed", "limit"])
def test_strict_must_be_a_bool(build):
    # read by truthiness, "" would build a non-strict layer whose JSON form
    # does not round-trip
    for value in ("", "false", 0, 1, None, np.bool_(True)):
        with pytest.raises(DimensionError, match="strict must be a bool"):
            build(value)
    for value in (True, False):
        layer = build(value)
        assert layer.strict is value
        assert ly.layer_from_json(layer.to_json()).to_json() == layer.to_json()


# ---------------------------------------------------------------------------
# each class reads its own arrays and numbers
# ---------------------------------------------------------------------------


def array_args(n=4):
    """Arguments of each class that holds arrays, given as arrays."""
    B, b = orth(2, n), bias(3, n)
    regions = {(1,): ly.RegionCoeffs(0.0, 0.0, 1.0, ABS),
               (-1,): ly.RegionCoeffs(0.0, 1.0, 1.0, ABS)}
    return {
        ly.ComposedLayer: dict(rotation=orth(5, n),
                               inner=ly.make_case_ii(B, b, 1.0, 0.0, -2.0, RELU)),
        ly.PartitionedLayer: dict(A=orth(1, n), B=B, b=b,
                                  hyperplanes=((SplitMix64(11).gaussian(n), 0.25),),
                                  regions=regions),
        ly.LimitLayer: dict(B=B, b=b, m=ly.ConstantField(0.5),
                            q=ly.ConstantField(0.0)),
        ly.MiniNetField: dict(w_in=SplitMix64(12).gaussian_matrix(3, n), bias=bias(13, 3),
                              w_out=bias(14, 3)),
    }


def as_lists(value):
    """Arrays and tuples as nested lists; any other value as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [as_lists(v) for v in value]
    return value


@pytest.mark.parametrize("cls", list(array_args()), ids=lambda cls: cls.__name__)
def test_classes_take_nested_lists(cls):
    args = array_args()[cls]
    from_arrays = cls(**args)
    from_lists = cls(**{key: as_lists(value) for key, value in args.items()})
    for key, value in args.items():
        if isinstance(value, np.ndarray):
            got = getattr(from_lists, key)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), value.view(np.int64)), key
    assert from_lists.to_json() == from_arrays.to_json()


def test_number_fields_are_kept_as_floats():
    assert type(ly.ConstantField(2).value) is float
    assert type(ly.GaussianBumpField(np.int64(1)).scale) is float
    assert ly.ConstantField(2).eval_batch(np.zeros((3, 4)), None).dtype == np.float64


def test_a_float32_number_is_read_with_no_warning():
    # the finite check does not cast the float range to the number's type
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ly.GaussianBumpField(np.float32(0.5)).scale == 0.5
    with pytest.raises(DimensionError):
        ly.GaussianBumpField(np.float32("inf"))


def case_i_one_weight(W, b):
    """A case-i layer given one weight as both A and B."""
    return ly.make_case_i(W, W, b, 0.0, 1.0, ABS)


def _other_args(cls):
    return {ly.ConstantField: dict(value=0.5), ly.GaussianBumpField: dict(scale=0.01),
            case_i_one_weight: dict(W=orth(2, 4), b=bias(3, 4))}[cls]


@pytest.mark.parametrize("cls, path", [
    (ly.ComposedLayer, ("rotation", 1, 2)),
    (ly.PartitionedLayer, ("A", 0, 3)),
    (ly.PartitionedLayer, ("B", 2, 1)),
    (ly.PartitionedLayer, ("b", 1)),
    (ly.PartitionedLayer, ("hyperplanes", 0, 0, 2)),
    (ly.PartitionedLayer, ("hyperplanes", 0, 1)),
    (ly.LimitLayer, ("B", 3, 0)),
    (ly.LimitLayer, ("b", 0)),
    (ly.MiniNetField, ("w_in", 2, 1)),
    (ly.MiniNetField, ("bias", 0)),
    (ly.MiniNetField, ("w_out", 2)),
    (ly.ConstantField, ("value",)),
    (ly.GaussianBumpField, ("scale",)),
    (case_i_one_weight, ("W", 1, 0)),
], ids=lambda v: v.__name__ if callable(v) else ".".join(map(str, v)))
def test_bad_entries_of_every_field_raise_dimension_error(cls, path):
    # a string, a bool, a non-finite number or a nested list (a ragged array)
    for bad in ("0.5", True, float("nan"), float("inf"), [0.5]):
        args = array_args().get(cls) or _other_args(cls)
        args = {key: as_lists(value) for key, value in args.items()}
        _set(args, path, bad)
        with pytest.raises(DimensionError):
            cls(**args)


def test_an_explicit_spec_reads_each_array_once(monkeypatch):
    spec = explicit_specs()["case_ii"]
    reads = []
    read = linalg._as_array

    def counted(obj, shape, what):
        reads.append(what)
        return read(obj, shape, what)

    monkeypatch.setattr(linalg, "_as_array", counted)
    ly.layer_from_json(spec)
    # the activation's breakpoints and slopes, B and b
    assert len(reads) <= 4


@pytest.mark.parametrize("wrap", [np.array, np.ndarray.tolist, lambda m: tuple(map(tuple, m))],
                         ids=["array", "list", "tuple"])
def test_case_i_trains_one_weight_twice_and_partitioned_ties_equal_ones(wrap):
    W = wrap(orth(2))
    case_i = ly.make_case_i(W, W, bias(3), 0.0, 1.0, ABS)
    assert case_i.A is not case_i.B
    assert np.array_equal(case_i.A, case_i.B)
    assert sorted(case_i.params()) == ["A", "B", "b"]
    regions = {(): ly.RegionCoeffs(1.0, 0.0, -2.0, RELU)}
    tied = ly.make_partitioned(wrap(orth(2)), wrap(orth(2)), bias(3), [], regions)
    assert tied.A is tied.B
    assert sorted(tied.params()) == ["B", "b"]
