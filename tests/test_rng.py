"""The block samplers of ``SplitMix64`` against per-item loop oracles.

``ball`` draws every point from one raw block, and ``permutation`` computes
every swap index at once.  The oracles below are the per-point and per-step
loops that the block forms replace; each draws its words from the stream in
the same order, so the samplers must match them bit for bit and leave the
stream at the same position.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthojac.errors import DimensionError, check_shape
from orthojac.rng import SplitMix64

_SEEDS = st.integers(0, 2**64 - 1)


def _oracle_gaussian(stream: SplitMix64, n: int) -> np.ndarray:
    pairs = (n + 1) // 2
    z = stream._raw_block(2 * pairs)
    u1 = ((z[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


def _oracle_ball(stream: SplitMix64, n_points: int, dim: int, radius: float) -> np.ndarray:
    out = np.empty((n_points, dim))
    for i in range(n_points):
        g = _oracle_gaussian(stream, dim)
        u = stream.uniform(1)[0]
        norm = float(np.sqrt(np.sum(g * g)))
        out[i] = radius * u ** (1.0 / dim) * g / norm
    return out


def _oracle_permutation(stream: SplitMix64, n: int) -> np.ndarray:
    perm = np.arange(n)
    if n < 2:
        return perm
    z = stream._raw_block(n - 1)
    for i in range(n - 1, 0, -1):
        j = int(z[n - 1 - i] % np.uint64(i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _assert_ball_matches_oracle(seed, skip, n_points, dim, radius):
    got_stream, want_stream = SplitMix64(seed), SplitMix64(seed)
    got_stream.uniform(skip)
    want_stream.uniform(skip)
    got = got_stream.ball(n_points, dim, radius)
    want = _oracle_ball(want_stream, n_points, dim, radius)
    assert got.shape == want.shape == (n_points, dim)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got_stream.raw() == want_stream.raw()


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, skip=st.integers(0, 5), n_points=st.integers(0, 60),
       dim=st.integers(1, 40), radius=st.sampled_from([0.3, 1.5, 7.0, 2]))
def test_ball_is_the_per_point_loop_bit_for_bit(seed, skip, n_points, dim, radius):
    _assert_ball_matches_oracle(seed, skip, n_points, dim, radius)


def test_ball_fixed_case_is_the_per_point_loop():
    # NumPy's array power u ** (1 / dim) differs from C pow in the last bit
    # on some points of this draw on some SIMD builds; the scale is taken
    # per point with scalar pow
    _assert_ball_matches_oracle(3, 0, 200, 16, 1.5)
    for dim in (1, 2, 39, 64, 128):
        _assert_ball_matches_oracle(11, 1, 25, dim, 1.5)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, skip=st.integers(0, 5), n=st.integers(0, 41))
def test_gaussian_is_the_box_muller_recipe_bit_for_bit(seed, skip, n):
    got_stream, want_stream = SplitMix64(seed), SplitMix64(seed)
    got_stream.uniform(skip)
    want_stream.uniform(skip)
    got = got_stream.gaussian(n)
    assert np.array_equal(got.view(np.uint64), _oracle_gaussian(want_stream, n).view(np.uint64))
    assert got_stream.raw() == want_stream.raw()


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, skip=st.integers(0, 5),
       n=st.one_of(st.integers(0, 50), st.sampled_from([640, 800, 1600, 5000])))
def test_permutation_is_the_fisher_yates_loop(seed, skip, n):
    got_stream, want_stream = SplitMix64(seed), SplitMix64(seed)
    got_stream.uniform(skip)
    want_stream.uniform(skip)
    got = got_stream.permutation(n)
    want = _oracle_permutation(want_stream, n)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert got_stream.raw() == want_stream.raw()


def test_a_draw_no_array_can_hold_is_refused_before_the_stream_moves():
    # the size rule's limit: sys.maxsize bytes of 8-byte entries
    check_shape((sys.maxsize // 8,), "a draw")
    for shape in ((sys.maxsize // 8 + 1,), (2**31, 2**31, 2), (10**20, 1)):
        with pytest.raises(DimensionError, match="bytes one array can hold"):
            check_shape(shape, "a draw")
    stream = SplitMix64(5)
    for draw in (lambda: stream.uniform(2**60), lambda: stream.gaussian(10**20),
                 lambda: stream.ball(2**56, 16, 1.0)):
        with pytest.raises(DimensionError, match="random words"):
            draw()
    assert stream.raw() == SplitMix64(5).raw()
