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
  output ``z`` and swap positions ``i`` and ``z % (i + 1)``.

* **Points uniform in a ball** of radius R in dimension n.  Per point,
  draw n Gaussian variates g (as above), then one uniform u, and return
  ``R * u**(1/n) * g / ||g||``.

* **Derived seeds.**  ``derive_seed(s, a, b, ...)`` folds each index into
  the state with an extra SplitMix64 mixing step (see the function body);
  it decorrelates per-layer / per-epoch streams from the parent stream.
"""

from __future__ import annotations

import numpy as np

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


class SplitMix64:
    """Counter-based SplitMix64 stream over a single 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._count = 0

    def _raw_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
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
        z = self._raw_block(n)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def gaussian(self, n: int) -> np.ndarray:
        """``n`` standard Gaussian doubles via Box-Muller."""
        pairs = (n + 1) // 2
        z = self._raw_block(2 * pairs)
        u1 = ((z[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major (rows, cols) matrix of standard Gaussians."""
        return self.gaussian(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n)."""
        perm = np.arange(n)
        if n < 2:
            return perm
        z = self._raw_block(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(z[n - 1 - i] % np.uint64(i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def ball(self, n_points: int, dim: int, radius: float) -> np.ndarray:
        """``n_points`` points uniform in the radius-``radius`` ball."""
        out = np.empty((n_points, dim))
        for i in range(n_points):
            g = self.gaussian(dim)
            u = self.uniform(1)[0]
            norm = float(np.sqrt(np.sum(g * g)))
            out[i] = radius * u ** (1.0 / dim) * g / norm
        return out
