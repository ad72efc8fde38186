"""Piecewise-linear layers with exactly orthogonal Jacobians.

Modules:
``errors``   the package's exception types and its array-size rule
``rng``      portable SplitMix64 random streams and seed derivation
``linalg``   the checked JSON readers, dense kernels, Householder QR, Jacobi SVD
``pwl``      continuous piecewise-linear scalar functions
``layers``   layer families and their Jacobians / vector-Jacobian products
``verify``   orthogonality and isometry checks, spectra, density gaps
``train``    loss, optimizer, training loop
``data``     IDX loading, splits, synthetic sets, batching
``serial``   the binary array container behind snapshots
``cli``      command-line entry points
"""

__version__ = "0.1.0"
