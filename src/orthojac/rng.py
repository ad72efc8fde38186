"""Portable deterministic random number generation.

Every random quantity in this package is derived from the SplitMix64
generator so that runs are reproducible bit-for-bit from a single integer
seed, in any language.  The exact algorithms, in consumption order:

* **SplitMix64 stream.**  With 64-bit wrapping arithmetic, the k-th raw
  output (k = 1, 2, ...) of a stream with seed ``s`` is::

      z = s + k * 0x9E3779B97F4A7C15
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
      z = (z ^ (z >> 27)) * 0x94D049BB133111EB
      z = z ^ (z >> 31)

* **Uniform doubles.**  ``u = (z >> 11) * 2.0**-53`` in ``[0, 1)``.

* **Gaussian doubles** (Box-Muller).  Raw outputs are consumed in pairs
  ``(z0, z1)``; with ``u1 = ((z0 >> 11) + 1) * 2.0**-53`` in ``(0, 1]`` and
  ``u2 = (z1 >> 11) * 2.0**-53`` the pair of variates is::

      r  = sqrt(-2 * log(u1))
      g0 = r * cos(2 * pi * u2)
      g1 = r * sin(2 * pi * u2)

  For an odd request length one extra pair is generated and its second
  variate discarded.

* **Permutations** (Fisher-Yates).  For i = n-1 down to 1, draw a raw
  output ``z`` and swap positions ``i`` and ``z % (i + 1)``.  The n - 1
  words are drawn as one block, in that order of i.

* **Points uniform in a ball** of radius R in dimension n.  Per point,
  draw n Gaussian variates g (as above), then one uniform u, and return
  ``R * u**(1/n) * g / ||g||``.  Point i reads its own
  ``2*ceil(n/2) + 1`` words, so all points are drawn as one block.
  ``u**(1/n)`` is the scalar C ``pow`` of each point (NumPy's array power
  may differ in the last bit), ``||g||`` is NumPy's pairwise sum of
  ``g*g`` then ``sqrt``, and the point is ``((R * u**(1/n)) * g) / ||g||``
  in that order.

* **Derived seeds.**  ``derive_seed(s, a, b, ...)`` folds each index into
  the state with an extra SplitMix64 mixing step (see the function body);
  it decorrelates per-layer / per-epoch streams from the parent stream.
"""

from __future__ import annotations

import numpy as np

from .errors import check_shape

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministically derive an independent stream seed.

    Folding with a distinct constant keeps derived streams disjoint from
    the raw outputs of the parent stream.
    """
    s = _mix((seed & _MASK) ^ 0xA0761D6478BD642F)
    for idx in indices:
        s = _mix((s + ((idx & _MASK) * _GOLDEN & _MASK)) & _MASK)
    return s


def _uniform(z: np.ndarray) -> np.ndarray:
    """Doubles uniform on [0, 1) from raw words, one per word."""
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _box_muller(z: np.ndarray) -> np.ndarray:
    """Standard Gaussians from raw words paired along the last axis.

    Words ``2k`` and ``2k + 1`` of each row give variates ``2k`` and
    ``2k + 1``; the last axis has even length.
    """
    u1 = ((z[..., 0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    u2 = _uniform(z[..., 1::2])
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(z.shape)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


class SplitMix64:
    """Counter-based SplitMix64 stream over a single 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._count = 0

    def _raw_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        check_shape((n,), "a draw of random words")
        start = self._count + 1
        self._count += n
        # uint64 array arithmetic wraps silently
        k = np.arange(start, start + n, dtype=np.uint64)
        z = np.uint64(self._seed) + k * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def raw(self) -> int:
        """Next raw output as a Python int."""
        return int(self._raw_block(1)[0])

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return _uniform(self._raw_block(n))

    def gaussian(self, n: int) -> np.ndarray:
        """``n`` standard Gaussian doubles via Box-Muller."""
        return _box_muller(self._raw_block(2 * ((n + 1) // 2)))[:n]

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major (rows, cols) matrix of standard Gaussians."""
        return self.gaussian(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n)."""
        if n < 2:
            return np.arange(n)
        # the swap partner of position i is z % (i + 1), for i = n-1 down to 1
        partners = (self._raw_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), partners):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm)

    def ball(self, n_points: int, dim: int, radius: float) -> np.ndarray:
        """``n_points`` points uniform in the radius-``radius`` ball."""
        # row i holds point i's words: its Gaussian pairs, then its u
        stride = 2 * ((dim + 1) // 2) + 1
        z = self._raw_block(n_points * stride).reshape(n_points, stride)
        g = _box_muller(z[:, :-1])[:, :dim]
        norm = np.sqrt(np.sum(g * g, axis=1))
        # scalar C pow per point: NumPy's array power may differ in the last bit
        scale = np.array([radius * u ** (1.0 / dim) for u in _uniform(z[:, -1]).tolist()])
        return scale[:, np.newaxis] * g / norm[:, np.newaxis]
