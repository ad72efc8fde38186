"""Numerical verification of layer Jacobians.

Probes are drawn from the portable RNG, filtered by a kink margin, and
reduced in probe-index order, so every report is reproducible from its
seed.  Defects are Frobenius norms: ``||J^T J - I||`` for orthogonality
and ``||(J J^T)^2 - J J^T||`` for partial isometry (the latter vanishes
exactly when J J^T is a projection).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionError, NearKinkError, NoValidProbeError
from .layers import DEFAULT_MARGIN, LimitLayer
from .linalg import svd_values
from .rng import SplitMix64, derive_seed

PASS_TOL = 1e-10
ISOMETRY_TOL = 1e-8


def orthogonality_defect(jac: np.ndarray) -> float:
    """Frobenius distance of J^T J from the identity."""
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise DimensionError(f"expected a square Jacobian, got {jac.shape}")
    gram = jac.T @ jac
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.sqrt(np.sum(gram * gram)))


def partial_isometry_defect(jac: np.ndarray) -> float:
    """Frobenius distance of J J^T from being a projection."""
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise DimensionError(f"expected a square Jacobian, got {jac.shape}")
    gram = jac @ jac.T
    resid = gram @ gram - gram
    return float(np.sqrt(np.sum(resid * resid)))


def fd_jacobian(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        cols.append((np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2.0 * h))
    return np.stack(cols, axis=1)


def _as_stack(target) -> list:
    return list(target) if isinstance(target, (list, tuple)) else [target]


def stack_jacobian(stack: list, x: np.ndarray, margin: float = DEFAULT_MARGIN):
    """Chained Jacobian of a layer stack at ``x``."""
    cur = x
    jac = None
    for layer in stack:
        part = layer.jacobian(cur, margin)
        jac = part if jac is None else part @ jac
        cur = layer.forward(cur)
    return jac


def gradient_norm_ratio(
    target, x: np.ndarray, v: np.ndarray, margin: float = DEFAULT_MARGIN
) -> float:
    """||J(x)^T v|| / ||v|| through a layer or stack via chained VJPs.

    Each layer's forward state is margin-checked, so a probe landing on
    a kink raises rather than silently picking a one-sided derivative.
    """
    stack = _as_stack(target)
    v = np.asarray(v, dtype=np.float64)
    v_norm = float(np.sqrt(v @ v))
    if v_norm == 0.0:
        raise DimensionError("cotangent must be nonzero")
    inputs = []
    cur = np.asarray(x, dtype=np.float64)
    for layer in stack:
        dist = layer.kink_distance(cur)
        if dist < margin:
            raise NearKinkError(dist, margin)
        inputs.append(cur)
        cur = layer.forward(cur)
    grad = v
    for layer, layer_in in zip(reversed(stack), reversed(inputs)):
        grad, _ = layer.vjp(layer_in, grad)
    return float(np.sqrt(grad @ grad)) / v_norm


@dataclass
class VerifyReport:
    """Aggregated probe results with a declared pass criterion.

    ``probes`` counts inputs actually measured; margin rejections land
    in ``skipped_near_kink``.  ``bound_epsilon`` is None unless the pass
    criterion is an interval around 1.
    """

    probes: int
    max_orth_defect: float
    max_partial_defect: float
    sv_min: float
    sv_max: float
    bound_epsilon: float | None
    passed: bool | None
    skipped_near_kink: int
    criterion: str
    tol: float
    seed: int
    kind: str
    width: int
    depth: int

    def __post_init__(self):
        if self.sv_min > self.sv_max:
            raise DimensionError("sv_min exceeds sv_max")

    def to_json(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out



def _probe_jacobians(stack: list, n_probes: int, seed: int, input_scale: float,
                     margin: float, jacobian) -> tuple[list, np.ndarray]:
    """The Jacobians of a stack at the probes of one run, away from kinks.

    Probe ``i`` is the ``i``-th Gaussian input of the stream derived from
    ``seed``; probes within ``margin`` of a kink are dropped.
    ``jacobian(stack, x, margin)`` is ``stack_jacobian`` through the
    caller's own binding of it.  Returns the kept probe indices in order
    and their Jacobians as one ``(kept, n, n)`` array; raises
    NoValidProbeError when no probe is kept.
    """
    width = stack[0].width
    stream = SplitMix64(derive_seed(seed, 0x50))
    # pages of the rows left unfilled are never touched
    jacs = np.empty((n_probes, width, width))
    kept = []
    for index in range(n_probes):
        x = input_scale * stream.gaussian(width)
        try:
            jacs[len(kept)] = jacobian(stack, x, margin)
        except NearKinkError:
            continue
        kept.append(index)
    if not kept:
        raise NoValidProbeError(
            f"all {n_probes} probes fell within the kink margin {margin}"
        )
    return kept, jacs[:len(kept)]


def spectrum_probe(
    target,
    n_probes: int,
    seed: int,
    input_scale: float = 1.0,
    margin: float = DEFAULT_MARGIN,
    criterion: str = "orthogonal",
    tol: float = PASS_TOL,
    epsilon: float | None = None,
) -> VerifyReport:
    """Probe Jacobian spectra of a layer or stack at Gaussian inputs.

    ``criterion`` decides the pass flag: "orthogonal" and "partial"
    compare the respective worst defect against ``tol``; "sv_interval"
    requires every singular value to lie in [1-epsilon-tol, 1+epsilon+tol];
    "none" records measurements without judging them.  The singular
    values of every kept probe come from one ``svd_values`` call on the
    stack of their Jacobians.
    """
    if criterion not in ("orthogonal", "partial", "sv_interval", "none"):
        raise DimensionError(f"unknown criterion {criterion!r}")
    if criterion == "sv_interval" and epsilon is None:
        raise DimensionError("sv_interval criterion needs epsilon")
    stack = _as_stack(target)
    kept, jacs = _probe_jacobians(stack, n_probes, seed, input_scale, margin,
                                  stack_jacobian)
    max_orth = max(orthogonality_defect(jac) for jac in jacs)
    max_partial = max(partial_isometry_defect(jac) for jac in jacs)
    sv = svd_values(jacs)
    sv_min = float(np.min(sv[:, -1]))
    sv_max = float(np.max(sv[:, 0]))
    if criterion == "orthogonal":
        passed = bool(max_orth <= tol)
    elif criterion == "partial":
        passed = bool(max_partial <= tol)
    elif criterion == "sv_interval":
        passed = bool(sv_min >= 1.0 - epsilon - tol and sv_max <= 1.0 + epsilon + tol)
    else:
        passed = None
    return VerifyReport(
        probes=len(kept),
        max_orth_defect=max_orth,
        max_partial_defect=max_partial,
        sv_min=sv_min,
        sv_max=sv_max,
        bound_epsilon=epsilon,
        passed=passed,
        skipped_near_kink=n_probes - len(kept),
        criterion=criterion,
        tol=tol,
        seed=seed,
        kind=stack[0].kind if len(stack) == 1 else "stack",
        width=stack[0].width,
        depth=len(stack),
    )


def check_dynamical_isometry(
    layer: LimitLayer,
    n_probes: int,
    seed: int,
    input_scale: float = 1.0,
    margin: float = DEFAULT_MARGIN,
    tol: float = ISOMETRY_TOL,
) -> VerifyReport:
    """Verify all Jacobian singular values sit within the predicted band.

    The band half-width is ``max(2*Lip(m)*||b||, 2*sqrt(n)*Lip(q))``, the
    smallest value for which the layer's coefficient fields satisfy the
    isometry conditions.
    """
    return spectrum_probe(
        layer,
        n_probes,
        seed,
        input_scale=input_scale,
        margin=margin,
        criterion="sv_interval",
        tol=tol,
        epsilon=layer.isometry_epsilon(),
    )


class _CellQuantizedField:
    """Base field sampled at cell centers of a 2-D grid on coords (0, 1).

    The remaining coordinates pass through unpartitioned, so the result
    is constant on each cell of the induced partition along the first
    two axes.  Used only to build density comparisons.
    """

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

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        return self.base.eval_batch(self._snap(X))


@dataclass
class DensityReport:
    """Sup-norm gap between a limit layer and its cell-sampled surrogate."""

    resolution: int
    domain_radius: float
    n_probes: int
    seed: int
    measured_gap: float
    theoretical_bound: float


def density_gap(
    layer: LimitLayer,
    resolution: int,
    domain_radius: float,
    n_probes: int,
    seed: int,
) -> DensityReport:
    """Compare a limit layer against its piecewise-constant-field surrogate.

    The surrogate's coefficient fields are the layer's fields sampled at
    the centers of an axis-aligned grid with ``resolution`` cells per
    axis over the first two coordinates of the radius-``domain_radius``
    ball (remaining coordinates unpartitioned).  The measured sup-norm
    gap over ball-uniform probes never exceeds the bound
    ``sup|q - q~| + sup|m - m~| * ||b||``.
    """
    if resolution < 1:
        raise DimensionError(f"resolution must be >= 1, got {resolution}")
    m_tilde = _CellQuantizedField(layer.m_field, resolution, domain_radius)
    q_tilde = _CellQuantizedField(layer.q_field, resolution, domain_radius)
    surrogate = LimitLayer(layer.B, layer.b, m_tilde, q_tilde, strict=False)
    X = SplitMix64(derive_seed(seed, 0xD6)).ball(n_probes, layer.width, domain_radius)
    gap = np.max(np.abs(layer.forward_batch(X) - surrogate.forward_batch(X)), axis=1)
    m_err = np.abs(layer.m_field.eval_batch(X) - m_tilde.eval_batch(X))
    q_err = np.abs(layer.q_field.eval_batch(X) - q_tilde.eval_batch(X))
    b_norm = float(np.sqrt(layer.b @ layer.b))
    return DensityReport(
        resolution=resolution,
        domain_radius=domain_radius,
        n_probes=n_probes,
        seed=seed,
        measured_gap=float(np.max(gap)),
        theoretical_bound=float(np.max(q_err) + np.max(m_err) * b_norm),
    )
