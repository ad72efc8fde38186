import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orthojac import linalg
from orthojac.errors import ConvergenceError, DimensionError
from orthojac.rng import SplitMix64, derive_seed


def test_frobenius_defect_identity_is_zero():
    assert linalg.frobenius_defect(np.eye(3)) == 0.0


def test_frobenius_defect_scaled_identity():
    # M M^T - I = -0.84 I_4, norm = 0.84 * sqrt(4) = 1.68
    assert linalg.frobenius_defect(0.4 * np.eye(4)) == pytest.approx(1.68, abs=1e-15)


def test_frobenius_defect_rejects_rectangular():
    with pytest.raises(DimensionError):
        linalg.frobenius_defect(np.ones((2, 3)))


def test_frobenius_defect_of_a_stack_is_each_matrix_alone():
    for n in (4, 7, 16):
        for count in (1, 5, 17):
            q = linalg.random_orthogonal_batch(n, list(range(count)))
            noise = SplitMix64(derive_seed(n, count)).gaussian(count * n * n)
            for stack in (q, q + 1e-9 * noise.reshape(q.shape), noise.reshape(q.shape)):
                defects = linalg.frobenius_defect(stack)
                assert defects.shape == (count,)
                assert defects.tolist() == [linalg.frobenius_defect(m) for m in stack]
    with pytest.raises(DimensionError):
        linalg.frobenius_defect(np.ones((2, 3, 4)))


def test_is_integer_and_is_finite_number():
    assert all(linalg.is_integer(v) for v in (0, -3, 10**400, np.int64(2)))
    assert not any(linalg.is_integer(v) for v in (True, 1.0, "1", None, [1]))
    assert all(linalg.is_finite_number(v) for v in (0, -1.5, 1e308, np.float64(2.0)))
    assert not any(linalg.is_finite_number(v)
                   for v in (False, float("nan"), float("inf"), -float("inf"),
                             10**400, "0.1", None, [1.0]))


def test_random_orthogonal_same_seed_bitwise_identical():
    a = linalg.random_orthogonal(16, 42)
    b = linalg.random_orthogonal(16, 42)
    assert a.dtype == np.float64 and a.shape == (16, 16)
    assert np.array_equal(a, b)


def test_random_orthogonal_different_seeds_differ():
    a = linalg.random_orthogonal(8, 1)
    b = linalg.random_orthogonal(8, 2)
    assert not np.array_equal(a, b)


def test_random_orthogonal_defect_all_sizes_and_seeds():
    # row k of a batch is random_orthogonal(n, k) bit for bit (see
    # test_random_orthogonal_batch_rows_are_the_single_matrices)
    for n in range(1, 65):
        d = linalg.frobenius_defect(linalg.random_orthogonal_batch(n, range(100)))
        seed = int(np.argmax(d))
        assert d[seed] <= 1e-12, f"n={n} seed={seed} defect={d[seed]}"


def test_random_orthogonal_rejects_nonpositive_size():
    with pytest.raises(DimensionError):
        linalg.random_orthogonal(0, 1)


def test_householder_qr_reconstructs_and_r_triangular():
    g = SplitMix64(3).gaussian_matrix(12, 12)
    q, r = linalg.householder_qr(g)
    assert np.max(np.abs(q @ r - g)) < 1e-12
    assert np.max(np.abs(np.tril(r, -1))) < 1e-12
    assert linalg.frobenius_defect(q) < 1e-12


def loop_householder_qr(a):
    """The column-by-column Householder loop the blocked kernel replaced: the oracle."""
    a = linalg.as_matrix(a)
    m, n = a.shape
    r = a.copy()
    q = np.eye(m)
    for j in range(min(m, n)):
        x = r[j:, j]
        norm_x = float(np.sqrt(np.sum(x * x)))
        if norm_x == 0.0:
            continue
        v = x.copy()
        # Reflect onto -sign(x0)*e1 to avoid cancellation.
        v[0] += norm_x if v[0] >= 0.0 else -norm_x
        beta = 2.0 / float(np.sum(v * v))
        r[j:, j:] -= beta * np.outer(v, v @ r[j:, j:])
        q[:, j:] -= beta * np.outer(q[:, j:] @ v, v)
    return q, r


def loop_random_orthogonal(n, seed):
    """``random_orthogonal`` on the column loop: the oracle."""
    q, r = loop_householder_qr(SplitMix64(seed).gaussian_matrix(n, n))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


# sizes up to three panels, so the trailing and Q block updates both run
_QR_SIZES = st.integers(1, 2 * linalg.QR_BLOCK + 3)


@st.composite
def qr_stacks(draw, rounded=st.booleans()):
    """A stack of Gaussian matrices, some columns zero; rounded to small integers
    (so singular, with exact zeros) when ``rounded`` draws True."""
    count, m, n = draw(st.integers(1, 4)), draw(_QR_SIZES), draw(_QR_SIZES)
    stack = SplitMix64(draw(st.integers(0, 2**32))).gaussian(count * m * n)
    stack = stack.reshape(count, m, n)
    if draw(rounded):
        stack = np.round(stack)
    stack[:, :, draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    return stack


_QR_EXAMPLES = [np.array([[[2.5]]]), np.array([[[-0.5]]]), np.zeros((2, 1, 1)),
                np.zeros((1, 3, 2))]


def _with_examples(test):
    for stack in _QR_EXAMPLES:
        test = example(stack=stack)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(stack=qr_stacks())
@_with_examples
def test_householder_qr_matrix_alone_is_bitwise_its_row_of_any_stack(stack):
    q, r = linalg.householder_qr(stack)
    count, m, n = stack.shape
    assert q.shape == (count, m, m) and r.shape == (count, m, n)
    extra = SplitMix64(5).gaussian(3 * m * n).reshape(3, m, n)
    extra[1] = 0.0
    mixed_q, mixed_r = linalg.householder_qr(np.concatenate([extra, stack[::-1]]))
    for i, a in enumerate(stack):
        alone_q, alone_r = linalg.householder_qr(a)
        for got in (q[i], mixed_q[len(extra) + count - 1 - i]):
            assert got.tobytes() == alone_q.tobytes()
        for got in (r[i], mixed_r[len(extra) + count - 1 - i]):
            assert got.tobytes() == alone_r.tobytes()


@settings(max_examples=60, deadline=None)
@given(stack=qr_stacks())
@_with_examples
def test_householder_qr_is_orthogonal_and_reconstructs(stack):
    q, r = linalg.householder_qr(stack)
    eye = np.eye(stack.shape[1])
    scale = max(1.0, float(np.max(np.abs(stack))))
    for a, qa, ra in zip(stack, q, r):
        assert np.max(np.abs(qa.T @ qa - eye)) <= 1e-14
        assert np.max(np.abs(qa @ ra - a)) <= 1e-14 * scale
        assert not np.tril(ra, -1).any()


@settings(max_examples=60, deadline=None)
@given(stack=qr_stacks(rounded=st.just(False)))
@_with_examples
def test_householder_qr_matches_the_column_loop_and_lapack(stack):
    # Q is unique (up to column signs for LAPACK, which leaves a column that
    # is zero below its diagonal unreflected) while the columns that are not
    # zero are well-conditioned
    for a in stack:
        lead = a[:, :min(a.shape)]
        lead = lead[:, np.any(lead != 0.0, axis=0)]
        assume(lead.size == 0 or np.linalg.cond(lead) < 1e3)
    q, r = linalg.householder_qr(stack)
    scale = max(1.0, float(np.max(np.abs(stack))))
    for a, qa, ra in zip(stack, q, r):
        loop_q, loop_r = loop_householder_qr(a)
        assert np.max(np.abs(qa - loop_q)) <= 1e-13
        assert np.max(np.abs(ra - np.triu(loop_r))) <= 1e-13 * scale
        lapack_q = np.linalg.qr(a, mode="complete")[0]
        signs = np.where(np.sum(qa * lapack_q, axis=0) >= 0.0, 1.0, -1.0)
        assert np.max(np.abs(qa - lapack_q * signs)) <= 1e-13


def test_householder_qr_rejects_bad_shapes_and_entries():
    with pytest.raises(DimensionError):
        linalg.householder_qr(np.zeros((2, 2, 2, 2)))
    with pytest.raises(DimensionError):
        linalg.householder_qr(np.zeros(3))
    with pytest.raises(DimensionError):
        linalg.householder_qr(np.full((2, 3, 3), np.nan))
    q, r = linalg.householder_qr(np.zeros((0, 4, 3)))
    assert q.shape == (0, 4, 4) and r.shape == (0, 4, 3)


def test_random_orthogonal_stays_within_1e13_of_the_column_loop():
    for n in (1, 2, 3, 16, 17, 32, 64):
        batch = linalg.random_orthogonal_batch(n, range(100))
        for seed, q in enumerate(batch):
            assert np.max(np.abs(q - loop_random_orthogonal(n, seed))) <= 1e-13, (n, seed)


def test_random_orthogonal_batch_rows_are_the_single_matrices():
    seeds = [7, 3, 7, 2**40]
    batch = linalg.random_orthogonal_batch(9, seeds)
    assert batch.shape == (4, 9, 9)
    for seed, q in zip(seeds, batch):
        assert q.tobytes() == linalg.random_orthogonal(9, seed).tobytes()
    assert linalg.random_orthogonal_batch(5, []).shape == (0, 5, 5)
    with pytest.raises(DimensionError):
        linalg.random_orthogonal_batch(0, [1])


def test_svd_values_diagonal():
    got = linalg.svd_values(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(got, [3.0, 2.0, 1.0], atol=1e-14)


def test_svd_values_recovers_planted_spectrum():
    planted = np.array([5.0, 2.5, 1.0, 0.25, 0.01])
    q1 = linalg.random_orthogonal(5, 11)
    q2 = linalg.random_orthogonal(5, 12)
    m = q1.T @ np.diag(planted) @ q2
    got = linalg.svd_values(m)
    assert np.max(np.abs(got - planted)) < 1e-9


def test_svd_values_matches_reference_svd():
    for seed in range(5):
        m = SplitMix64(seed).gaussian_matrix(9, 9)
        got = linalg.svd_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(got - ref)) < 1e-9


def test_svd_values_rectangular_and_zero():
    m = SplitMix64(9).gaussian_matrix(4, 7)
    got = linalg.svd_values(m)
    ref = np.linalg.svd(m, compute_uv=False)
    assert got.shape == (4,)
    assert np.max(np.abs(got - ref)) < 1e-9
    assert np.all(linalg.svd_values(np.zeros((3, 3))) == 0.0)


def test_svd_values_convergence_error_carries_residual():
    m = SplitMix64(2).gaussian_matrix(8, 8)
    with pytest.raises(ConvergenceError) as exc:
        linalg.svd_values(m, max_sweeps=1)
    assert exc.value.residual > 0.0


def test_round_robin_pairs_every_column_once_per_sweep():
    for n in range(2, 66, 2):
        step = linalg._round_robin_step(n)
        order = np.arange(n)
        pairs = set()
        for _ in range(n - 1):
            pairs.update(map(frozenset, zip(order[:n // 2], order[n // 2:])))
            order = order[step]
        assert len(pairs) == n * (n - 1) // 2, n


def _assert_matches_lapack(got, m):
    ref = np.linalg.svd(m, compute_uv=False)
    assert got.shape == ref.shape
    scale = ref[0] if ref.size and ref[0] > 0.0 else 1.0
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale


def _assert_stack_matches_singles(stack):
    values = linalg.svd_values(stack)
    assert values.shape == (len(stack), min(stack.shape[1:]))
    for m, got in zip(stack, values):
        assert np.array_equal(got, linalg.svd_values(m))
        _assert_matches_lapack(got, m)


def test_svd_values_shapes_widths_and_orientations():
    gen = SplitMix64(31)
    for rows, cols in [(1, 1), (1, 6), (6, 1), (5, 5), (6, 6), (3, 8), (8, 3),
                       (7, 4), (4, 7), (33, 33)]:
        stack = np.stack([gen.gaussian_matrix(rows, cols) for _ in range(3)])
        _assert_stack_matches_singles(stack)


def test_svd_values_zero_and_rank_deficient():
    gen = SplitMix64(32)
    u, v = gen.gaussian(7), gen.gaussian(5)
    dup = gen.gaussian_matrix(6, 6)
    dup[:, 3] = dup[:, 1]
    rank2 = np.outer(u, v) + np.outer(gen.gaussian(7), gen.gaussian(5))
    stack = [np.zeros((7, 5)), np.outer(u, v), rank2]
    _assert_stack_matches_singles(np.stack(stack))
    _assert_stack_matches_singles(dup[np.newaxis])
    assert np.all(linalg.svd_values(np.zeros((4, 3, 3))) == 0.0)
    rank1 = linalg.svd_values(np.outer(u, v))
    assert rank1[1:].max() <= 1e-12 * rank1[0]


def test_svd_values_stack_longer_than_a_block():
    gen = SplitMix64(33)
    count = 2 * linalg.JACOBI_BLOCK + 3
    _assert_stack_matches_singles(np.stack([gen.gaussian_matrix(6, 6)
                                            for _ in range(count)]))


def test_svd_values_entries_far_outside_the_normal_range():
    # unscaled, squared column norms go subnormal near 1e-160 and overflow
    # near 1e200
    gen = SplitMix64(34)
    for m in (np.array([[1.0, 2.0], [3.0, 4.0]]), gen.gaussian_matrix(6, 4)):
        for scale in (1e-160, 1e200):
            got = linalg.svd_values(scale * m)
            ref = np.linalg.svd(scale * m, compute_uv=False)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - ref) / ref) <= 1e-12
    # a power-of-two scale passes through exactly, alone or in a stack
    m = gen.gaussian_matrix(5, 5)
    values = linalg.svd_values(np.stack([m, np.ldexp(m, -600), np.ldexp(m, 600)]))
    assert np.array_equal(values[0], linalg.svd_values(m))
    assert np.array_equal(values[1], np.ldexp(values[0], -600))
    assert np.array_equal(values[2], np.ldexp(values[0], 600))


def test_svd_values_empty_and_bad_stacks():
    assert linalg.svd_values(np.zeros((0, 3, 3))).shape == (0, 3)
    assert linalg.svd_values(np.zeros((2, 4, 0))).shape == (2, 0)
    with pytest.raises(DimensionError):
        linalg.svd_values(np.zeros((2, 2, 2, 2)))
    with pytest.raises(DimensionError):
        linalg.svd_values(np.full((2, 3, 3), np.inf))


_ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3),
)


@settings(max_examples=40, deadline=None)
@given(
    stack=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=_ENTRIES)
    )
)
def test_svd_values_stack_property(stack):
    # integer entries make zero and rank-deficient matrices common
    _assert_stack_matches_singles(stack)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63), n=st.integers(1, 40), count=st.integers(1, 3))
def test_svd_values_orthogonal_inputs_take_the_gram_skip(seed, n, count):
    def no_sweep(*args):
        raise AssertionError("an orthogonal input was rotated")

    stack = np.stack([linalg.random_orthogonal(n, seed + k) for k in range(count)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_sweep", no_sweep)
        values = linalg.svd_values(stack)
    assert np.max(np.abs(values - 1.0)) <= 1e-14


def test_svd_values_one_unconverged_matrix_in_a_stack():
    count = linalg.JACOBI_BLOCK + 4
    stack = np.stack([linalg.random_orthogonal(8, k) for k in range(count)])
    stack[-2] = SplitMix64(2).gaussian_matrix(8, 8)
    with pytest.raises(ConvergenceError, match=f"matrix {count - 2} ") as exc:
        linalg.svd_values(stack, max_sweeps=1)
    assert exc.value.residual > 0.0
    # without the unconverged matrix the same stack passes
    assert np.max(np.abs(linalg.svd_values(stack[:-2], max_sweeps=1) - 1.0)) <= 1e-14


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(DimensionError):
        linalg.as_matrix([[1.0, np.nan]])
    with pytest.raises(DimensionError):
        linalg.as_vector([np.inf])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63), n=st.integers(1, 24))
def test_random_orthogonal_property(seed, n):
    q = linalg.random_orthogonal(n, seed)
    assert linalg.frobenius_defect(q) <= 1e-12
    sv = linalg.svd_values(q)
    assert np.max(np.abs(sv - 1.0)) < 1e-12


def test_splitmix_stream_is_stateless_counter():
    a = SplitMix64(77)
    first = a.uniform(4)
    b = SplitMix64(77)
    again = b.uniform(4)
    assert np.array_equal(first, again)
    # consuming in two chunks equals one chunk
    c = SplitMix64(77)
    chunked = np.concatenate([c.uniform(2), c.uniform(2)])
    assert np.array_equal(first, chunked)


def test_splitmix_known_first_output():
    # the first outputs of each seed by the documented recipe on Python ints;
    # near 2**64 the counter sum wraps at once
    mask = 2**64 - 1
    for seed in (0, 1, 2**63, 2**64 - 2, 2**64 - 1):
        stream = SplitMix64(seed)
        got = [stream.raw() for _ in range(3)] + stream.uniform(4).tolist()
        for k in range(1, 8):
            s = (seed + k * 0x9E3779B97F4A7C15) & mask
            s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask
            s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & mask
            s = s ^ (s >> 31)
            assert got[k - 1] == (s if k <= 3 else (s >> 11) * 2.0**-53), (seed, k)


def test_gaussian_moments_fixed_seed():
    g = SplitMix64(123).gaussian(1_000_000)
    assert abs(float(g.mean())) < 0.005
    assert abs(float(g.var()) - 1.0) < 0.01


def test_permutation_is_a_permutation():
    for n in (1, 2, 7, 100):
        p = SplitMix64(5).permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def test_ball_points_inside_radius():
    pts = SplitMix64(4).ball(50, 6, 1.5)
    norms = np.sqrt(np.sum(pts * pts, axis=1))
    assert np.all(norms <= 1.5 + 1e-12)
    assert pts.shape == (50, 6)


def test_derive_seed_decorrelates():
    assert derive_seed(1, 0) != derive_seed(1, 1)
    assert derive_seed(1, 0) != derive_seed(2, 0)
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)


@pytest.mark.parametrize("bad", [["0.1"], [True], [None], [{}], [[1.0]], [10**400],
                                 "0.1", None, [1.0, [2.0]]])
def test_as_vector_coerces_nothing(bad):
    with pytest.raises(DimensionError):
        linalg.as_vector(bad)


def test_as_matrix_rejects_ragged_rows_and_reads_numbers():
    with pytest.raises(DimensionError):
        linalg.as_matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionError):
        linalg.as_matrix(np.array([["1", "2"]]))
    m = linalg.as_matrix([[1, 2.5], (np.float64(3.0), np.int64(4))])
    assert m.dtype == np.float64 and m.tolist() == [[1.0, 2.5], [3.0, 4.0]]
    assert linalg.as_vector(np.arange(3)).tolist() == [0.0, 1.0, 2.0]


def test_checked_names_the_key_and_the_rule():
    assert linalg.checked(3, "n", "a positive integer") == 3
    for value, rule in ((True, "an integer"), (4.9, "an integer"), ("1", "a finite number"),
                        (float("nan"), "a finite number"), (0, "a positive integer"),
                        (-0.5, "a non-negative finite number"), (0, "a bool")):
        with pytest.raises(DimensionError, match=f"^n must be {re.escape(rule)}, got"):
            linalg.checked(value, "n", rule)
    with pytest.raises(DimensionError, match="signs must be a list of integers"):
        linalg.checked([1, True], "signs", "a list of integers")
