import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthojac.errors import (
    DegenerateSlopesError,
    DimensionError,
    InvalidAssignmentError,
    InvalidBreakpointsError,
)
from orthojac.pwl import (
    PwlScalar,
    make_relu_k,
    make_sigma_k,
    make_two_slope,
    slope_violation,
)


def alternating_relu_sum(x, nodes):
    """Independent oracle: sum_i (-1)**(i-1) * max(0, x - nodes[i])."""
    total = np.zeros_like(np.asarray(x, dtype=np.float64))
    for i, node in enumerate(nodes):
        total += (-1.0) ** i * np.maximum(0.0, x - node)
    return total


GRID = np.linspace(-4.0, 4.0, 1201)


def test_relu_k_frozen_values():
    f = make_relu_k([-1.0, 0.0, 1.5])
    assert f(-2.0) == pytest.approx(0.0, abs=1e-15)
    assert f(-0.5) == pytest.approx(0.5, abs=1e-15)
    assert f(2.0) == pytest.approx(1.5, abs=1e-15)


def test_relu_k_matches_alternating_sum_oracle():
    for nodes in ([0.0], [-1.0, 0.0, 1.5], [-2.0, -1.0, 0.5, 1.0, 3.0]):
        f = make_relu_k(nodes)
        assert np.max(np.abs(f(GRID) - alternating_relu_sum(GRID, nodes))) < 1e-12


def test_sigma_k_frozen_values():
    f = make_sigma_k([-1.0, 0.0, 1.5])
    assert f(-2.0) == pytest.approx(-2.0, abs=1e-15)
    assert f(-0.5) == pytest.approx(-1.5, abs=1e-15)
    assert f(2.0) == pytest.approx(-1.0, abs=1e-15)


def test_sigma_k_is_x_minus_twice_relu_k():
    for nodes in ([0.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.5]):
        s = make_sigma_k(nodes)
        r = make_relu_k(nodes)
        assert np.max(np.abs(s(GRID) - (GRID - 2.0 * r(GRID)))) < 1e-12


def test_single_node_specials():
    relu = make_relu_k([0.0])
    assert np.array_equal(relu(GRID), np.maximum(GRID, 0.0))
    sigma1 = make_sigma_k([0.0])
    assert np.max(np.abs(sigma1(GRID) + np.abs(GRID))) < 1e-15
    absf = make_two_slope(-1.0, 1.0, [0.0])
    assert np.array_equal(absf(GRID), np.abs(GRID))


def test_two_node_relu_is_shifted_hardtanh():
    f = make_relu_k([-1.0, 1.0])
    hardtanh = np.clip(GRID, -1.0, 1.0)
    assert np.max(np.abs(f(GRID) - (hardtanh + 1.0))) < 1e-15


def test_leaky_relu_shape():
    f = make_two_slope(0.3, 1.0, [0.0])
    assert f(-2.0) == pytest.approx(-0.6)
    assert f(3.0) == pytest.approx(3.0)
    assert f.deriv(-1.0) == 0.3
    assert f.deriv(0.0) == 1.0  # right-hand slope at the kink


def test_deriv_right_continuity():
    f = make_relu_k([0.0])
    assert f.deriv(0.0) == 1.0
    assert f.deriv(-1e-12) == 0.0
    assert f.deriv(1e-12) == 1.0


def test_distance_to_breakpoint():
    f = make_relu_k([-1.0, 0.0, 1.5])
    assert f.distance_to_breakpoint(0.7) == pytest.approx(0.7)
    assert f.distance_to_breakpoint(-1.0) == 0.0
    got = f.distance_to_breakpoint(np.array([0.7, 2.0]))
    assert np.allclose(got, [0.7, 0.5])


def test_constructor_rejections():
    with pytest.raises(InvalidBreakpointsError):
        make_relu_k([1.0, 1.0])
    with pytest.raises(InvalidBreakpointsError):
        make_relu_k([2.0, 1.0])
    with pytest.raises(InvalidBreakpointsError):
        make_relu_k([])
    with pytest.raises(DegenerateSlopesError):
        make_two_slope(0.5, 0.5 + 1e-13, [0.0])
    with pytest.raises(InvalidAssignmentError):
        PwlScalar((0.0,), (1.0,), 0.0)  # wrong slope count
    with pytest.raises(InvalidAssignmentError):
        PwlScalar((0.0, 1.0), (1.0, 1.0, 0.0), 0.0)  # flat kink


def test_json_round_trip_exact():
    f = make_sigma_k([-1.0, 0.0, 1.5])
    g = PwlScalar.from_json(f.to_json())
    assert g == f
    assert np.array_equal(g(GRID), f(GRID))


def test_slope_violation_helper():
    f = make_two_slope(0.3, 1.0, [0.0])
    assert slope_violation(f, [0.0, 1.0]) == 0.3
    assert slope_violation(f, [0.3, 1.0]) is None


@settings(max_examples=50, deadline=None)
@given(
    nodes=st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6, unique=True
    ),
    xs=st.lists(st.floats(-8, 8, allow_nan=False), min_size=1, max_size=8),
)
def test_relu_k_property_matches_oracle(nodes, xs):
    nodes = sorted(nodes)
    if min(np.diff(nodes), default=1.0) <= 1e-9:
        return
    f = make_relu_k(nodes)
    x = np.array(xs)
    assert np.max(np.abs(f(x) - alternating_relu_sum(x, nodes))) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_continuity_at_breakpoints(seed):
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(-3, 3, size=4))
    if np.min(np.diff(nodes)) < 1e-6:
        return
    f = make_sigma_k(nodes)
    eps = 1e-9
    for b in nodes:
        assert abs(f(b - eps) - f(b + eps)) < 1e-7


def test_eval_at_exact_breakpoints_consistent():
    f = make_relu_k([-1.0, 0.0, 1.5])
    for b in f.breakpoints:
        left = f(b - 1e-12)
        right = f(b + 1e-12)
        assert abs(f(b) - left) < 1e-11 and abs(f(b) - right) < 1e-11


def searchsorted_oracle(f, x):
    """The general lookup: the piece from ``searchsorted``, then integrate."""
    x = np.asarray(x, dtype=np.float64)
    bp = np.asarray(f.breakpoints)
    sl = np.asarray(f.slopes)
    p = np.searchsorted(bp, x, side="right")
    base = np.maximum(p - 1, 0)
    value = f._bp_values[base] + sl[p] * (x - bp[base])
    deriv = sl[p]
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def bits(v):
    return np.asarray(v, dtype=np.float64).view(np.int64)


SPECIAL_XS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]


@st.composite
def pwl_and_inputs(draw):
    count = draw(st.integers(1, 4))
    grid = draw(st.lists(st.integers(-8, 8), min_size=count, max_size=count,
                         unique=True))
    bps = tuple(sorted(v / 4.0 for v in grid))
    slopes = draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=count + 1,
                           max_size=count + 1))
    slopes = [s + 10.0 * i for i, s in enumerate(slopes)]  # adjacent ones differ
    anchor = draw(st.floats(-2, 2, allow_nan=False))
    f = PwlScalar(bps, tuple(slopes), anchor)
    point = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(list(bps) + SPECIAL_XS),
    )
    xs = draw(st.lists(point, min_size=1, max_size=24))
    return f, xs


@settings(max_examples=200, deadline=None)
@given(pwl_and_inputs())
def test_value_and_deriv_bitwise_match_searchsorted_oracle(case):
    f, xs = case
    # a Python float, a 0-d array, a 1-D array and a 2-D array
    inputs = [xs[0], np.asarray(xs[0]), np.array(xs)]
    if len(xs) % 2 == 0:
        inputs.append(np.array(xs).reshape(2, -1))
    with np.errstate(invalid="ignore", over="ignore"):
        for x in inputs:
            want_value, want_deriv = searchsorted_oracle(f, x)
            for got, want in ((f.value(x), want_value), (f(x), want_value),
                              (f.deriv(x), want_deriv)):
                assert type(got) is type(want)
                assert np.array_equal(bits(got), bits(want))


@settings(max_examples=200, deadline=None)
@given(pwl_and_inputs())
def test_value_and_piece_is_value_and_deriv_from_one_lookup(case):
    f, xs = case
    # a 0-d array, a 1-D array and a 2-D array
    inputs = [np.asarray(xs[0]), np.array(xs)]
    if len(xs) % 2 == 0:
        inputs.append(np.array(xs).reshape(2, -1))
    with np.errstate(invalid="ignore", over="ignore"):
        for x in inputs:
            value, piece = f.value_and_piece(x)
            assert np.shape(piece) == x.shape
            if len(f.breakpoints) == 1:
                # the left piece; NaN is on the right one
                assert piece.dtype == bool
                assert np.array_equal(piece, x < f.breakpoints[0])
            else:
                assert piece.dtype == np.uint8
            want_value, want_deriv = searchsorted_oracle(f, x)
            for got, want in ((value, f.value(x)), (value, want_value),
                              (f.slope(piece), f.deriv(x)), (f.slope(piece), want_deriv)):
                assert np.array_equal(bits(got), bits(want))
            # linearize's three, from one x - breakpoint when there is one breakpoint
            for got, want in zip(f.linearize(x), (value, f.slope(piece),
                                                  f.distance_to_breakpoint(x))):
                assert np.shape(got) == x.shape
                assert np.array_equal(bits(got), bits(want))


def test_pieces_of_many_breakpoints_take_a_wider_unsigned_int():
    f = make_relu_k([float(i) for i in range(300)])
    x = np.array([-1.0, 0.0, 150.5, 299.0, np.inf, np.nan])
    with np.errstate(invalid="ignore"):  # the last slope 0 times inf
        value, piece = f.value_and_piece(x)
        assert np.array_equal(bits(value), bits(f.value(x)))
    assert piece.dtype == np.uint16
    assert piece.tolist() == [0, 1, 151, 300, 300, 300]
    assert np.array_equal(bits(f.slope(piece)), bits(f.deriv(x)))


@pytest.mark.parametrize("f", [make_relu_k([0.0]), make_sigma_k([0.5]),
                               make_two_slope(0.3, 1.0, [-1.0])])
def test_one_breakpoint_never_searches(f, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a one-breakpoint activation called np.searchsorted")

    monkeypatch.setattr(np, "searchsorted", never)
    x = np.array([-2.0, -1.0, -0.0, 0.5, 3.0, -np.inf, np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        piece = f.value_and_piece(x)[1]
        assert piece.dtype == bool
        assert np.array_equal(bits(f.slope(piece)), bits(f.deriv(x)))
        assert f.linearize(x)[0].shape == x.shape
        assert type(f.deriv(0.5)) is float
        # the patch is seen: more breakpoints search
        with pytest.raises(AssertionError, match="searchsorted"):
            make_relu_k([0.0, 1.0]).value_and_piece(x)


@pytest.mark.parametrize("nodes", [[0.0], [-1.0, 0.0, 1.0]])
def test_nan_takes_the_rightmost_slope(nodes):
    f = make_two_slope(0.3, 1.0, nodes)
    assert f.deriv(np.nan) == f.slopes[-1]
    assert np.array_equal(f.deriv(np.array([np.nan, -5.0])), [f.slopes[-1], f.slopes[0]])
    assert np.isnan(f(np.nan))


@pytest.mark.parametrize("args", [
    (("0.5",), ("0", "1"), 0.0),
    ((0.0,), (0.0, 1.0), "0"),
    ((True,), (0.0, 1.0), 0.0),
    ((0.0,), (False, 1.0), 0.0),
    ((0.0,), (0.0, 1.0), True),
    ((None,), (0.0, 1.0), 0.0),
    ((0.0,), (0.0, None), 0.0),
    ((0.0,), (0.0, 1.0), None),
    # integers beyond the float range
    ((10**400,), (0.0, 1.0), 0.0),
    ((0.0,), (0.0, 10**400), 0.0),
    ((0.0,), (0.0, 1.0), -10**400),
])
def test_non_number_entries_are_rejected_before_conversion(args):
    with pytest.raises(DimensionError, match="must be a number"):
        PwlScalar(*args)


def test_numbers_of_any_real_type_are_taken():
    f = PwlScalar((np.float32(0.5),), (0, np.int64(1)), np.float64(0.0))
    assert f == PwlScalar((0.5,), (0.0, 1.0), 0.0)
    assert type(f.anchor_value) is float


def test_non_finite_entries_keep_their_errors():
    for bp in ((np.nan,), (np.inf,), (0.0, -np.inf)):
        with pytest.raises(InvalidBreakpointsError):
            PwlScalar(bp, (0.0,) * (len(bp) + 1), 0.0)
    with pytest.raises(InvalidAssignmentError):
        PwlScalar((0.0,), (0.0, np.inf), 0.0)
    with pytest.raises(InvalidAssignmentError):
        PwlScalar((0.0,), (0.0, 1.0), np.nan)
    with pytest.raises(InvalidBreakpointsError):
        PwlScalar((1.0, 0.0), (0.0, 1.0, 0.0), 0.0)
    with pytest.raises(InvalidAssignmentError):
        PwlScalar((0.0,), (0.0, 1.0, 0.0), 0.0)


# ±0.0, ±inf, NaN, the smallest subnormals and normal values either side of 0
RECTIFIER_XS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, -1.5, 0.25, 3.0]


def _with_np_where(f):
    """``f`` with the rectifier rule off, so its slopes come from ``np.where``."""
    g = PwlScalar(f.breakpoints, f.slopes, f.anchor_value)
    object.__setattr__(g, "_rectifier", False)
    return g


@pytest.mark.parametrize("x", [np.array(RECTIFIER_XS), np.array(RECTIFIER_XS[:10]).reshape(2, 5)]
                         + [np.asarray(v) for v in RECTIFIER_XS],
                         ids=["1-d", "2-d"] + [f"0-d {v!r}" for v in RECTIFIER_XS])
def test_rectifier_slopes_are_bitwise_np_where(x):
    f = make_relu_k([0.0])
    ref = _with_np_where(f)
    assert f._rectifier and not ref._rectifier
    with np.errstate(invalid="ignore"):  # slope 0 times -inf
        value, piece = f.value_and_piece(x)
        slope = f.slope(piece)
        assert slope.dtype == np.float64 and np.shape(slope) == x.shape
        assert np.array_equal(bits(slope), bits(np.where(piece, *f.slopes)))
        assert not np.any(np.signbit(slope))
        ref_value, ref_piece = ref.value_and_piece(x)
        assert np.array_equal(piece, ref_piece)
        assert np.array_equal(bits(value), bits(ref_value))
        assert type(f.deriv(x)) is type(ref.deriv(x))
        assert np.array_equal(bits(f.deriv(x)), bits(ref.deriv(x)))
        for got, want in zip(f.linearize(x), ref.linearize(x)):
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(bits(got), bits(want))


def test_negative_zero_slope_keeps_np_where():
    f = PwlScalar((0.0,), (-0.0, 1.0), 0.0)
    # equal to the rectifier as a value, but not by sign bit
    assert f == make_relu_k([0.0]) and not f._rectifier
    slope = f.slope(f.value_and_piece(np.array([-2.0, -5e-324, 0.0, 3.0]))[1])
    assert np.signbit(slope).tolist() == [True, True, False, False]
    assert np.signbit(f.deriv(-1.0))


def test_rectifier_slope_calls_no_np_where(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("np.where was called")

    x = np.array([-1.0, -0.0, 0.0, 2.0, np.nan])
    relu, leaky = make_relu_k([0.0]), make_two_slope(0.3, 1.0, [0.0])
    relu_piece, leaky_piece = relu.value_and_piece(x)[1], leaky.value_and_piece(x)[1]
    with monkeypatch.context() as patch:
        patch.setattr(np, "where", never)
        slope = relu.slope(relu_piece)
        # the patch is seen: another two-slope activation still takes np.where
        with pytest.raises(AssertionError, match="np.where"):
            leaky.slope(leaky_piece)
    assert slope.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]


def test_multi_node_rectifier_keeps_the_table_lookup(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a multi-node rectifier took a one-breakpoint slope rule")

    f = make_relu_k([-1.0, 0.0, 1.0])
    assert not f._rectifier
    x = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, np.inf, np.nan])
    piece = f.value_and_piece(x)[1]
    assert piece.dtype == np.uint8
    with monkeypatch.context() as patch:
        patch.setattr(np, "where", never)
        patch.setattr(np, "subtract", never)
        slope = f.slope(piece)
    assert np.array_equal(bits(slope), bits(np.asarray(f.slopes)[piece]))
