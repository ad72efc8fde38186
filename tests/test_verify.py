"""Tests for the verification module.

Frozen oracle values were computed by hand from the defect definitions
(Frobenius norms of small diagonal matrices) or measured once from the
deterministic probe streams and pinned.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthojac import linalg, verify
from orthojac.train import MODEL_NAMES, make_network
from orthojac.errors import (
    DimensionError,
    MissingRegionError,
    NearKinkError,
    NoValidProbeError,
)
from orthojac.layers import (
    ComposedLayer,
    ConstantField,
    GaussianBumpField,
    LimitLayer,
    make_case_i,
    make_case_ii,
    make_gated,
    make_mini_net_field,
    make_partitioned,
    PartitionedLayer,
    RegionCoeffs,
    layer_from_json,
)
from orthojac.linalg import random_orthogonal, svd_values
from orthojac.pwl import make_relu_k, make_sigma_k, make_two_slope
from orthojac.rng import SplitMix64, derive_seed
from orthojac.verify import (
    ProbeRequest,
    VerifyReport,
    check_dynamical_isometry,
    density_gap,
    fd_jacobian,
    orthogonality_defect,
    partial_isometry_defect,
    probe_spectra,
    spectrum_probe,
    stack_jacobian,
)

NODES = [-1.0, 0.0, 1.0]


def leaky_relu(slope: float):
    return make_two_slope(slope, 1.0, [0.0])


def strict_case_ii(n: int, seed: int, scale: float = 0.3):
    B = random_orthogonal(n, derive_seed(seed, 0))
    b = scale * SplitMix64(derive_seed(seed, 1)).gaussian(n)
    sigma = make_two_slope(0.0, 1.0, [0.0])
    return make_case_ii(B, b, ell=1.0, c=0.0, d=-2.0, sigma=sigma)


# ---------------------------------------------------------------------------
# defect metrics
# ---------------------------------------------------------------------------


def test_orthogonality_defect_identity_is_zero():
    assert orthogonality_defect(np.eye(5)) == 0.0


def test_orthogonality_defect_signed_permutation_is_zero():
    assert orthogonality_defect(np.diag([-1.0, 1.0, 1.0, -1.0])) == 0.0


def test_orthogonality_defect_scaled_identity_oracle():
    # J = 0.4 I_4: J^T J - I = -0.84 I, Frobenius norm 0.84 * 2 = 1.68
    assert orthogonality_defect(0.4 * np.eye(4)) == pytest.approx(1.68, abs=1e-12)


def test_orthogonality_defect_rejects_nonsquare():
    with pytest.raises(DimensionError):
        orthogonality_defect(np.ones((3, 4)))


def test_partial_defect_orthogonal_is_tiny():
    q = random_orthogonal(8, 3)
    assert partial_isometry_defect(q) <= 8 * 1e-14


def test_partial_defect_projection_is_zero():
    assert partial_isometry_defect(np.diag([1.0, 0.0])) == 0.0


def test_partial_defect_two_slope_oracle():
    # J = A^T D B, D = diag(0.3, 1): defect = |0.09^2 - 0.09| = 0.0819
    a = random_orthogonal(2, 5)
    b = random_orthogonal(2, 6)
    jac = a.T @ np.diag([0.3, 1.0]) @ b
    assert partial_isometry_defect(jac) == pytest.approx(0.0819, abs=1e-12)


def test_partial_defect_rejects_nonsquare():
    with pytest.raises(DimensionError):
        partial_isometry_defect(np.ones((2, 3)))


def test_defects_of_a_stack_are_each_jacobian_alone():
    for n in (4, 7, 16):
        gen = SplitMix64(derive_seed(n, 78))
        jacs = np.stack([gen.gaussian_matrix(n, n) for _ in range(9)]
                        + [random_orthogonal(n, seed) for seed in range(3)])
        for defect in (orthogonality_defect, partial_isometry_defect):
            values = defect(jacs)
            assert values.shape == (len(jacs),)
            assert values.tolist() == [defect(jac) for jac in jacs]
            with pytest.raises(DimensionError):
                defect(np.ones((2, 3, 4)))


def test_zero_orth_defect_implies_tiny_partial_defect():
    for seed in range(10):
        q = random_orthogonal(16, seed)
        assert orthogonality_defect(q) <= 1e-12
        assert partial_isometry_defect(q) <= 16 * 1e-14


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32), st.integers(2, 10))
def test_defects_invariant_under_orthogonal_factors(seed, n):
    # J -> Q J Q' preserves both defects (conjugation by isometries)
    gen = SplitMix64(derive_seed(seed, 77))
    m = gen.gaussian_matrix(n, n)
    q1 = random_orthogonal(n, derive_seed(seed, 1))
    q2 = random_orthogonal(n, derive_seed(seed, 2))
    rotated = q1 @ m @ q2
    assert orthogonality_defect(rotated) == pytest.approx(
        orthogonality_defect(m), rel=1e-9, abs=1e-9
    )
    assert partial_isometry_defect(rotated) == pytest.approx(
        partial_isometry_defect(m), rel=1e-9, abs=1e-9
    )


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_jacobian_identity():
    jac = fd_jacobian(lambda x: x, np.zeros(4))
    assert np.max(np.abs(jac - np.eye(4))) <= 1e-12
    # away from zero, representation rounding caps accuracy near 1e-10
    jac = fd_jacobian(lambda x: x, np.ones(4))
    assert np.max(np.abs(jac - np.eye(4))) <= 1e-9


def test_fd_jacobian_affine_exact():
    m = SplitMix64(9).gaussian_matrix(5, 5)
    v = SplitMix64(10).gaussian(5)
    jac = fd_jacobian(lambda x: m @ x + v, np.zeros(5), h=1e-6)
    assert np.max(np.abs(jac - m)) <= 1e-9


def test_fd_jacobian_matches_analytic_on_layer():
    layer = strict_case_ii(6, 42)
    x = SplitMix64(11).gaussian(6)
    assert layer.kink_distance(x) > 1e-6
    fd = fd_jacobian(layer.forward, x, h=1e-6)
    assert np.max(np.abs(fd - layer.jacobian(x))) <= 1e-5


# ---------------------------------------------------------------------------
# spectrum probe
# ---------------------------------------------------------------------------


def test_spectrum_probe_strict_layer_sv_band():
    [rep] = spectrum_probe([ProbeRequest(strict_case_ii(16, 1), 1000, seed=2)])
    assert rep.probes == 1000
    assert rep.skipped_near_kink == 0
    assert rep.sv_min >= 1.0 - 1e-9
    assert rep.sv_max <= 1.0 + 1e-9
    assert rep.max_orth_defect <= 1e-10
    assert rep.passed is True


def test_spectrum_probe_deep_stack_sv_band():
    stack = [strict_case_ii(8, derive_seed(3, k)) for k in range(200)]
    [rep] = spectrum_probe([ProbeRequest(stack, 50, seed=4)])
    assert rep.depth == 200
    assert rep.sv_min >= 1.0 - 1e-9
    assert rep.sv_max <= 1.0 + 1e-9
    assert rep.passed is True


def test_spectrum_probe_leaky_counterexample_sv():
    n = 16
    B = random_orthogonal(n, 12)
    b = 0.3 * SplitMix64(13).gaussian(n)
    layer = make_case_ii(B, b, ell=1.0, c=0.0, d=-2.0, sigma=leaky_relu(0.3),
                         strict=False)
    [rep] = spectrum_probe([ProbeRequest(layer, 200, seed=14, criterion="none")])
    # any probe with a leaky unit contributes a singular value 1 - 2*0.3
    assert rep.sv_min <= 0.4 + 1e-9
    assert rep.max_orth_defect >= 0.5
    assert rep.passed is None


def test_spectrum_probe_all_skipped_raises():
    layer = strict_case_ii(8, 21)
    with pytest.raises(NoValidProbeError):
        spectrum_probe([ProbeRequest(layer, 50, seed=22, margin=1e9)])


def test_spectrum_probe_skip_accounting():
    layer = strict_case_ii(8, 23)
    [rep] = spectrum_probe([ProbeRequest(layer, 300, seed=24, margin=0.05,
                                         criterion="none")])
    assert rep.skipped_near_kink > 0
    assert rep.probes + rep.skipped_near_kink == 300


def test_spectrum_probe_deterministic_serialization():
    layer = strict_case_ii(8, 25)
    a = spectrum_probe([ProbeRequest(layer, 100, seed=26)])[0].to_json()
    b = spectrum_probe([ProbeRequest(layer, 100, seed=26)])[0].to_json()
    assert a == b


def test_spectrum_probe_partial_criterion():
    # relu case-i (d=1) is a partial isometry but not orthogonal
    n = 12
    A = random_orthogonal(n, 31)
    B = random_orthogonal(n, 32)
    b = 0.3 * SplitMix64(33).gaussian(n)
    layer = make_case_i(A, B, b, c=0.0, d=1.0, sigma=make_relu_k(NODES),
                        strict=False)
    [rep] = spectrum_probe([ProbeRequest(layer, 300, seed=34, criterion="partial")])
    assert rep.max_partial_defect <= 1e-10
    assert rep.passed is True
    assert rep.max_orth_defect >= 0.9


def test_spectrum_probe_sv_interval_requires_epsilon():
    layer = strict_case_ii(8, 43)
    with pytest.raises(DimensionError):
        spectrum_probe([ProbeRequest(layer, 10, seed=44, criterion="sv_interval")])
    with pytest.raises(DimensionError):
        spectrum_probe([ProbeRequest(layer, 10, seed=44, criterion="bogus")])


def test_spectrum_probe_checks_criterion_before_probing(monkeypatch):
    def never(*args):
        raise AssertionError("a probe ran before the criterion was checked")

    monkeypatch.setattr(verify, "stack_jacobian", never)
    layer = strict_case_ii(8, 43)
    with pytest.raises(DimensionError, match="needs epsilon"):
        spectrum_probe([ProbeRequest(layer, 10, seed=44, criterion="sv_interval")])
    with pytest.raises(DimensionError, match="unknown criterion"):
        spectrum_probe([ProbeRequest(layer, 10, seed=44, criterion="bogus")])
    with pytest.raises(DimensionError, match="needs one limit layer"):
        spectrum_probe([ProbeRequest(layer, 10, seed=44, criterion="isometry")])
    with pytest.raises(DimensionError, match="list of ProbeRequests"):
        spectrum_probe([layer])


def test_spectrum_probe_refuses_a_stack_of_mixed_widths_before_probing(monkeypatch):
    def never(*args):
        raise AssertionError("a probe ran before the stack's widths were checked")

    monkeypatch.setattr(verify, "stack_jacobian", never)
    stack = [strict_case_ii(4, 1), strict_case_ii(4, 2), strict_case_ii(5, 3),
             strict_case_ii(6, 4)]
    requests = [ProbeRequest(strict_case_ii(4, 5), 10, name="fine"),
                ProbeRequest(stack, 10, name="mixed")]
    with pytest.raises(DimensionError, match="^'mixed': layer 2 of the stack has width 5,"
                                             " layer 0 has width 4$"):
        spectrum_probe(requests)


def test_stack_jacobian_refuses_a_stack_of_mixed_widths():
    stack = [strict_case_ii(4, 1), strict_case_ii(5, 2)]
    with pytest.raises(DimensionError, match="^layer 1 of the stack has width 5,"
                                             " layer 0 has width 4$"):
        stack_jacobian(stack, np.ones((3, 4)))


def test_report_rejects_inverted_sv_range():
    with pytest.raises(DimensionError):
        VerifyReport(
            probes=1, max_orth_defect=0.0, max_partial_defect=0.0,
            sv_min=2.0, sv_max=1.0, bound_epsilon=None, passed=None,
            skipped_near_kink=0, criterion="none", tol=0.0, seed=0,
            kind="x", width=1, depth=1,
        )


# ---------------------------------------------------------------------------
# dynamical isometry band
# ---------------------------------------------------------------------------


def _unit_bias(n: int, seed: int) -> np.ndarray:
    b = SplitMix64(seed).gaussian(n)
    return b / np.sqrt(b @ b)


def test_isometry_constant_fields_exact():
    n = 16
    layer = LimitLayer(random_orthogonal(n, 51), _unit_bias(n, 52),
                       ConstantField(0.6), ConstantField(-0.1))
    rep = check_dynamical_isometry(layer, 200, seed=53)
    assert rep.bound_epsilon == 0.0
    assert abs(rep.sv_min - 1.0) <= 1e-9
    assert abs(rep.sv_max - 1.0) <= 1e-9
    assert rep.passed is True


def test_isometry_gaussian_bump_band():
    n = 16
    layer = LimitLayer(random_orthogonal(n, 54), _unit_bias(n, 55),
                       GaussianBumpField(0.01), ConstantField(0.0))
    rep = check_dynamical_isometry(layer, 500, seed=56)
    expected_eps = 2.0 * np.sqrt(2.0) * np.exp(-0.5) / 100.0
    assert rep.bound_epsilon == pytest.approx(expected_eps, abs=1e-15)
    assert rep.bound_epsilon <= 0.01716
    assert rep.sv_min >= 1.0 - rep.bound_epsilon - 1e-8
    assert rep.sv_max <= 1.0 + rep.bound_epsilon + 1e-8
    assert rep.passed is True


def test_isometry_scaled_bump_loose_but_valid():
    n = 16
    layer = LimitLayer(random_orthogonal(n, 57), _unit_bias(n, 58),
                       GaussianBumpField(1.0), ConstantField(0.0))
    rep = check_dynamical_isometry(layer, 300, seed=59)
    assert rep.bound_epsilon == pytest.approx(2.0 * np.sqrt(2.0) * np.exp(-0.5),
                                              abs=1e-14)
    assert rep.passed is True
    # the band is loose: the measured range is far narrower than epsilon
    assert rep.sv_max - rep.sv_min < rep.bound_epsilon


def test_isometry_band_never_violated_across_configs():
    for k in range(20):
        n = 8 + (k % 3) * 4
        scale = (0.001, 0.01, 0.1, 1.0)[k % 4]
        layer = LimitLayer(
            random_orthogonal(n, derive_seed(60, k, 0)),
            0.7 * SplitMix64(derive_seed(60, k, 1)).gaussian(n),
            GaussianBumpField(scale),
            GaussianBumpField(scale / 3.0),
        )
        rep = check_dynamical_isometry(layer, 100, seed=derive_seed(60, k, 2))
        assert rep.passed is True


# ---------------------------------------------------------------------------
# density experiment
# ---------------------------------------------------------------------------


def _bump_limit_layer(n: int = 16):
    b = _unit_bias(n, 103)
    return LimitLayer(random_orthogonal(n, 101), b,
                      GaussianBumpField(0.01), ConstantField(0.0))


def test_density_constant_fields_zero_gap():
    n = 8
    layer = LimitLayer(random_orthogonal(n, 71), _unit_bias(n, 72),
                       ConstantField(0.3), ConstantField(0.1))
    (rep,) = density_gap(layer, [4], 1.5, 200, seed=73)
    assert rep.measured_gap == 0.0
    assert rep.theoretical_bound == 0.0


def test_density_refinement_monotone_and_bounded():
    layer = _bump_limit_layer()
    reports = density_gap(layer, [2, 4, 8, 16], 1.5, 400, seed=107)
    for rep in reports:
        assert rep.measured_gap <= rep.theoretical_bound + 1e-12
    measured = [rep.measured_gap for rep in reports]
    bounds = [rep.theoretical_bound for rep in reports]
    assert all(m2 <= m1 for m1, m2 in zip(measured, measured[1:]))
    assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_density_varying_offset_field_bounded():
    n = 16
    layer = LimitLayer(random_orthogonal(n, 101), _unit_bias(n, 103),
                       GaussianBumpField(0.01), GaussianBumpField(0.005))
    reports = density_gap(layer, [16, 2], 1.5, 300, seed=11)
    assert [rep.resolution for rep in reports] == [2, 16]
    for rep in reports:
        assert 0.0 < rep.measured_gap <= rep.theoretical_bound + 1e-12
    # one draw serves every resolution: each report is the one of its own call
    for rep in reports:
        assert density_gap(layer, [rep.resolution], 1.5, 300, seed=11) == [rep]


def test_density_rejects_bad_resolution():
    layer = _bump_limit_layer()
    for resolutions, n_probes in [([0], 10), ([2, 2.0], 10), (2, 10), ([], 10),
                                  ([2], 0), ([2], -1), ([2], 2.5), ([2], True)]:
        with pytest.raises(DimensionError):
            density_gap(layer, resolutions, 1.5, n_probes, seed=1)


class _CellQuantizedField:
    """A field sampled at the cell centers of a grid on coordinates (0, 1), the
    other coordinates passed through: the reference form of a surrogate field."""

    def __init__(self, base, resolution: int, radius: float):
        self.base = base
        self.resolution = int(resolution)
        self.radius = float(radius)

    def _snap(self, X: np.ndarray) -> np.ndarray:
        width = 2.0 * self.radius / self.resolution
        snapped = X.copy()
        idx = np.floor((X[:, :2] + self.radius) / width)
        idx = np.clip(idx, 0, self.resolution - 1)
        snapped[:, :2] = -self.radius + (idx + 0.5) * width
        return snapped

    def hidden_batch(self, X: np.ndarray) -> None:
        return None

    def eval_batch(self, X: np.ndarray, H) -> np.ndarray:
        snapped = self._snap(X)
        return self.base.eval_batch(snapped, self.base.hidden_batch(snapped))


def _surrogate_layer_gap(layer, resolution, radius, n_probes, seed):
    """(measured gap, bound) of one resolution from a surrogate LimitLayer with
    cell-sampled fields: the reference form of one density_gap report."""
    X = SplitMix64(derive_seed(seed, 0xD6)).ball(n_probes, layer.width, radius)
    m_tilde = _CellQuantizedField(layer.m, resolution, radius)
    q_tilde = _CellQuantizedField(layer.q, resolution, radius)
    surrogate = LimitLayer(layer.B, layer.b, m_tilde, q_tilde, strict=False)
    gap = np.max(np.abs(layer.forward_batch(X)[0] - surrogate.forward_batch(X)[0]), axis=1)
    m, q = layer.m, layer.q
    m_err = np.abs(m.eval_batch(X, m.hidden_batch(X)) - m_tilde.eval_batch(X, None))
    q_err = np.abs(q.eval_batch(X, q.hidden_batch(X)) - q_tilde.eval_batch(X, None))
    b_norm = float(np.sqrt(layer.b @ layer.b))
    return float(np.max(gap)), float(np.max(q_err) + np.max(m_err) * b_norm)


@pytest.mark.parametrize("mini_net", ["m", "q"])
def test_density_gap_is_bitwise_the_surrogate_layer_oracle(mini_net):
    n = 6
    for seed in (1, 2, 3):
        net = make_mini_net_field(n, 5, seed, 0.3)
        bump = GaussianBumpField(0.02 * seed)
        m, q = (net, bump) if mini_net == "m" else (bump, net)
        layer = LimitLayer(random_orthogonal(n, seed), _unit_bias(n, seed + 10), m, q)
        reports = density_gap(layer, [1, 2, 3, 5, 8, 16], 1.5, 120, seed)
        for rep in reports:
            want = _surrogate_layer_gap(layer, rep.resolution, 1.5, 120, seed)
            assert (rep.measured_gap, rep.theoretical_bound) == want, (seed, rep.resolution)
            assert rep.measured_gap > 0.0


def test_limit_layer_weights_are_its_reflection_weights():
    n = 5
    fields = (GaussianBumpField(0.1), ConstantField(0.2))
    layer = LimitLayer(random_orthogonal(n, 3), _unit_bias(n, 4), *fields)
    reflection = layer.reflection
    assert reflection.B is layer.B and reflection.A is layer.B and reflection.b is layer.b
    X = SplitMix64(5).gaussian_matrix(4, n)
    before = layer.forward_batch(X)[0]
    # an in-place step, as Adam takes it, moves both
    params = layer.params()
    params["B"][...] = random_orthogonal(n, 6)
    params["b"] *= 0.5
    moved = LimitLayer(random_orthogonal(n, 6), 0.5 * _unit_bias(n, 4), *fields)
    assert layer.forward_batch(X)[0].tobytes() == moved.forward_batch(X)[0].tobytes()
    assert not np.array_equal(before, layer.forward_batch(X)[0])


# ---------------------------------------------------------------------------
# gradient norm ratio through the training backward pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", [10, 50, 200])
def test_gradient_ratio_strict_stack_is_one(depth, backward_ratios):
    stack = [strict_case_ii(12, derive_seed(81, k)) for k in range(depth)]
    # five (x, v) pairs, drawn in turn
    pairs = SplitMix64(derive_seed(82, depth)).gaussian(5 * 2 * 12).reshape(5, 2, 12)
    ratios = backward_ratios(stack, pairs[:, 0], pairs[:, 1])
    assert np.max(np.abs(ratios - 1.0)) <= 1e-8


def test_gradient_ratio_leaky_direction_oracle(backward_ratios):
    n = 6
    A = random_orthogonal(n, 83)
    B = random_orthogonal(n, 84)
    layer = make_case_i(A, B, np.zeros(n), c=0.0, d=1.0,
                        sigma=leaky_relu(0.3), strict=False)
    pre = np.ones(n)
    pre[2] = -1.0  # unit 2 on the leaky slope, all others on slope 1
    x = B.T @ pre
    v = A[2]
    [ratio] = backward_ratios([layer], x[np.newaxis], v[np.newaxis])
    assert ratio == pytest.approx(0.3, abs=1e-12)


def test_gradient_ratio_decays_without_orthogonality(backward_ratios):
    n = 12
    stack = []
    for k in range(50):
        stack.append(make_case_i(
            random_orthogonal(n, derive_seed(85, k, 0)),
            random_orthogonal(n, derive_seed(85, k, 1)),
            0.2 * SplitMix64(derive_seed(85, k, 2)).gaussian(n),
            c=0.0, d=1.0, sigma=leaky_relu(0.3), strict=False))
    x, v = SplitMix64(86).gaussian(2 * n).reshape(2, 1, n)
    [ratio] = backward_ratios(stack, x, v)
    assert ratio <= 1.0
    assert ratio < 0.9


# ---------------------------------------------------------------------------
# stack jacobian plumbing
# ---------------------------------------------------------------------------


def test_stack_jacobian_matches_product():
    layers = [strict_case_ii(6, derive_seed(91, k)) for k in range(3)]
    x = SplitMix64(92).gaussian(6)
    expected = np.eye(6)
    cur = x
    for layer in layers:
        expected = layer.jacobian(cur) @ expected
        cur = layer.forward(cur)
    kept, jacs = stack_jacobian(layers, x[np.newaxis])
    assert kept.tolist() == [0]
    assert np.array_equal(jacs[0], expected)


def test_stack_jacobian_mixed_families():
    n = 8
    gate = SplitMix64(93).gaussian(n)
    layers = [
        strict_case_ii(n, 94),
        make_gated(random_orthogonal(n, 95), 0.3 * SplitMix64(96).gaussian(n),
                   gate, make_relu_k(NODES)),
        ComposedLayer(random_orthogonal(n, 97), strict_case_ii(n, 98)),
    ]
    x = SplitMix64(99).gaussian(n)
    kept, jacs = stack_jacobian(layers, x[np.newaxis])
    jac = jacs[0]
    assert kept.tolist() == [0]
    assert orthogonality_defect(jac) <= 1e-10
    fd = fd_jacobian(lambda y: layers[2].forward(
        layers[1].forward(layers[0].forward(y))), x)
    assert np.max(np.abs(fd - jac)) <= 1e-5


def mixed_stack(n: int) -> list:
    gate = SplitMix64(101).gaussian(n)
    B = random_orthogonal(n, 102)
    regions = {(1,): RegionCoeffs(1.0, 0.0, -2.0, make_relu_k([0.0])),
               (-1,): RegionCoeffs(0.0, 0.0, 1.0, make_two_slope(-1.0, 1.0, [0.0]))}
    return [
        strict_case_ii(n, 103),
        make_gated(random_orthogonal(n, 104), 0.3 * SplitMix64(105).gaussian(n),
                   gate, make_relu_k(NODES)),
        ComposedLayer(random_orthogonal(n, 106), strict_case_ii(n, 107)),
        make_partitioned(B, B, 0.3 * SplitMix64(108).gaussian(n),
                         [(SplitMix64(109).gaussian(n), 0.1)], regions),
    ]


def per_probe_jacobians(stack, n_probes, seed, input_scale, margin):
    """The probe loop as it was, one probe and one layer at a time: the oracle."""
    stream = SplitMix64(derive_seed(seed, 0x50))
    kept, jacs = [], []
    for index in range(n_probes):
        cur = input_scale * stream.gaussian(stack[0].width)
        jac = None
        try:
            for layer in stack:
                part = layer.jacobian(cur, margin)
                jac = part if jac is None else part @ jac
                cur = layer.forward(cur)
        except NearKinkError:
            continue
        kept.append(index)
        jacs.append(jac)
    return kept, np.stack(jacs)


@pytest.mark.parametrize("n", [7, 8])
def test_probe_jacobians_match_the_per_probe_loop(n):
    stack = mixed_stack(n)
    # 53 probes: three full blocks and a short one
    [(kept, jacs, _)] = probe_spectra([ProbeRequest(stack, 53, 110, 1.5, 0.03)],
                                      stack_jacobian)
    want_kept, want_jacs = per_probe_jacobians(stack, 53, 110, 1.5, 0.03)
    assert 0 < 53 - len(want_kept) < 53
    assert kept == want_kept
    # the Jacobians of region-affine layers depend on the pre-activations
    # only through their slopes, so the chain is exact
    assert np.array_equal(jacs, want_jacs)


def test_stack_jacobian_skips_a_dropped_probe_before_the_next_layer():
    n = 4
    abs_layer = make_case_i(np.eye(n), np.eye(n), np.zeros(n), c=0.0, d=1.0,
                            sigma=make_two_slope(-1.0, 1.0, [0.0]))
    # |x| lands in the undeclared cell (-1,) exactly when |x_0| < 0.1, and
    # every such probe lies within the margin 0.1 of abs_layer's kinks
    relu = make_relu_k([0.0])
    gate = np.eye(n)[0]
    holed = make_partitioned(np.eye(n), np.eye(n), np.zeros(n), [(gate, 0.1)],
                             {(1,): RegionCoeffs(1.0, 0.0, -2.0, relu)})
    X = np.array([[0.05, 1.0, 1.0, 1.0],
                  [1.0, 0.5, -0.7, 2.0],
                  [-0.8, 0.3, 0.9, -1.2]])
    with pytest.raises(MissingRegionError):
        holed.linearize_batch(abs_layer.forward_batch(X[:1])[0])
    kept, jacs = stack_jacobian([abs_layer, holed], X, margin=0.1)
    assert kept.tolist() == [1, 2]
    assert jacs.shape == (2, n, n)


def test_stack_jacobian_passes_an_emptied_block_through_a_layer_with_no_region():
    n = 6
    # no row can reach this layer: it declares neither a cell nor a default
    bare = make_partitioned(np.eye(n), np.eye(n), np.zeros(n),
                            [(SplitMix64(111).gaussian(n), 0.0)], {})
    stack = [strict_case_ii(n, 112), bare, strict_case_ii(n, 113)]
    X = SplitMix64(114).gaussian_matrix(5, n)
    # every kink distance of the first layer is below this margin
    kept, jacs = stack_jacobian(stack, X, margin=1e6)
    assert kept.shape == (0,)
    assert jacs.shape == (0, n, n)
    with pytest.raises(MissingRegionError):
        stack_jacobian(stack, X, margin=0.0)


def test_stack_jacobian_makes_one_layer_call_per_block(monkeypatch):
    n = 8
    stack = mixed_stack(n) + [LimitLayer(random_orthogonal(n, 115), 0.1 * np.ones(n),
                                         GaussianBumpField(0.01), ConstantField(0.0))]
    calls = []
    for cls in {type(layer) for layer in stack}:
        for name in ("linearize_batch", "_regions", "forward_batch"):
            if name in vars(cls):
                def counted(self, *args, _name=name, _inner=vars(cls)[name]):
                    calls.append((_name, id(self)))
                    return _inner(self, *args)
                monkeypatch.setattr(cls, name, counted)
    X = 1.5 * SplitMix64(116).gaussian_matrix(16, n)
    kept, jacs = stack_jacobian(stack, X, margin=0.03)
    # the margin drops some rows, but not all, along the way
    assert 0 < len(kept) < len(X)
    # the limit layer's reflection part is a layer of its own
    layers = stack + [stack[2].inner, stack[-1].reflection]
    assert sorted(calls) == sorted(
        [("linearize_batch", id(layer)) for layer in layers]
        + [("_regions", id(layer)) for layer in layers if isinstance(layer, PartitionedLayer)])


def strict_families(n: int, seed: int) -> list:
    """One strict layer of each region-affine family: case-i, case-ii, gated,
    composed and partitioned."""
    gate = SplitMix64(derive_seed(seed, 0)).gaussian(n)
    B = random_orthogonal(n, derive_seed(seed, 1))
    bias = 0.3 * SplitMix64(derive_seed(seed, 2)).gaussian(n)
    regions = {(1,): RegionCoeffs(1.0, 0.0, -2.0, make_relu_k([0.0])),
               (-1,): RegionCoeffs(0.0, 0.0, 1.0, make_two_slope(-1.0, 1.0, [0.0]))}
    return [
        make_case_i(random_orthogonal(n, derive_seed(seed, 3)), B, bias, c=0.1, d=-1.0,
                    sigma=make_two_slope(1.0, -1.0, [0.0])),
        strict_case_ii(n, derive_seed(seed, 4)),
        make_gated(random_orthogonal(n, derive_seed(seed, 5)), bias, gate, make_relu_k(NODES)),
        ComposedLayer(random_orthogonal(n, derive_seed(seed, 6)),
                      strict_case_ii(n, derive_seed(seed, 7))),
        make_partitioned(B, B, bias, [(gate, 0.1)], regions),
    ]


def spectra_in_blocks_of(monkeypatch, rows, request):
    """``probe_spectra`` of one request with its probes chained ``rows`` at a time."""
    n = request.target[0].width
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", rows * n * n)
    [result] = probe_spectra([request], stack_jacobian)
    return result


@pytest.mark.parametrize("n", [8, 16, 32])
def test_region_affine_spectra_are_bitwise_the_same_in_any_block(monkeypatch, n):
    # 20 layers, four of each family; the margin drops some probes
    stack = [layer for k in range(4) for layer in strict_families(n, derive_seed(117, k))]
    request = ProbeRequest(stack, 70, 118, 1.0, 1e-3)
    kept, jacs, values = probe_spectra([request], stack_jacobian)[0]
    assert 0 < len(kept) < 70
    for rows in (1, 5, 16, 33):
        got_kept, got_jacs, got_values = spectra_in_blocks_of(monkeypatch, rows, request)
        assert got_kept == kept
        assert np.array_equal(got_jacs, jacs)
        assert np.array_equal(got_values, values)


def test_limit_layer_spectra_move_only_in_the_low_bits_with_the_block(monkeypatch):
    # a limit layer's field gradients take their low bits from the row count of
    # a matmul (a one-row block goes through OpenBLAS's gemv path), and the
    # Jacobi sweeps may carry such a difference a few ulps further
    n = 16
    limit = LimitLayer(random_orthogonal(n, 119), 0.1 * np.ones(n),
                       make_mini_net_field(n, seed=3), make_mini_net_field(n, seed=4))
    request = ProbeRequest([limit] + strict_families(n, 120), 70, 121, 1.0, 1e-3)
    kept, jacs, values = probe_spectra([request], stack_jacobian)[0]
    for rows in (1, 5, 16, 33):
        got_kept, got_jacs, got_values = spectra_in_blocks_of(monkeypatch, rows, request)
        assert got_kept == kept
        assert np.max(np.abs(got_jacs - jacs)) <= 1e-15
        assert np.max(np.abs(got_values - values)) <= 1e-14


def test_probe_blocks_are_sized_by_entries():
    # 64 rows at width 32, 256 at width 16 and 16 at width 64, in one call
    blocks_of = {32: (140, [64, 64, 12]), 16: (260, [256, 4]), 64: (40, [16, 16, 8])}
    requests = [ProbeRequest([strict_case_ii(n, 122)], probes, 123, margin=0.0)
                for n, (probes, _) in blocks_of.items()]
    blocks = {n: [] for n in blocks_of}

    def counted(stack, X, margin):
        blocks[stack[0].width].append(len(X))
        return stack_jacobian(stack, X, margin)

    probe_spectra(requests, counted)
    assert blocks == {n: want for n, (_, want) in blocks_of.items()}


# ---------------------------------------------------------------------------
# singular values of deep rank-deficient Jacobians
# ---------------------------------------------------------------------------


def _menu_jacobians(model: str):
    net = make_network(model, 32, 50, 2, 32, seed=7)
    return stack_jacobian(net.layers, SplitMix64(11).gaussian_matrix(40, 32), margin=0.0)


def _assert_matches_lapack(got, m):
    ref = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(ref[0], np.finfo(float).tiny)


def test_svd_values_of_a_collapsed_relu_jacobian_match_lapack():
    # the 50 ReLU layers leave this Jacobian with null columns of rounding noise,
    # which the relative rotation test alone never lets converge
    kept, jacs = _menu_jacobians("gaussian_ff_baseline")
    jac = jacs[kept.tolist().index(29)]
    values = svd_values(jac)
    assert values[-1] < 1e-14 * values[0]
    _assert_matches_lapack(values, jac)


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_svd_values_of_every_depth_50_model_jacobian_match_lapack(model):
    kept, jacs = _menu_jacobians(model)
    assert len(kept) == 40
    for got, jac in zip(svd_values(jacs), jacs):
        _assert_matches_lapack(got, jac)


def _sweeps_per_matrix(stack: np.ndarray) -> float:
    """Jacobi sweeps that ``svd_values(stack)`` runs, per matrix of the stack."""
    counts = []
    inner = linalg._sweep

    def counted(w, *args):
        counts.append(len(w))
        return inner(w, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_sweep", counted)
        svd_values(stack)
    return sum(counts) / len(stack)


def test_a_leaky_case_i_jacobian_converges_in_at_most_six_sweeps():
    # shaped as verify_families' non-strict entries: case_i of width 32 with
    # slopes 0.3 and 1; without the pivoted QR these take 7 to 11 sweeps
    gen = SplitMix64(40)
    for k in range(4):
        layer = layer_from_json({
            "type": "case_i", "n": 32, "A": {"seed": 100 + k}, "B": {"seed": 200 + k},
            "b": (gen.uniform(32) - 0.5).tolist(), "c": 0.0, "d": 1.0, "strict": False,
            "sigma": {"breakpoints": [0.0], "slopes": [0.3, 1.0], "anchor_value": 0.0}})
        assert _sweeps_per_matrix(layer.jacobian(gen.gaussian(32))[np.newaxis]) <= 6


def test_gaussian_ff_baseline_jacobians_average_at_most_seven_sweeps():
    # width 32, depth 1, 40 probes at margin 0: 8.75 sweeps per matrix without
    # the pivoted QR
    net = make_network("gaussian_ff_baseline", 32, 1, 2, 32, seed=7)
    _, jacs = stack_jacobian(net.layers, SplitMix64(11).gaussian_matrix(40, 32), margin=0.0)
    assert _sweeps_per_matrix(jacs) <= 7
