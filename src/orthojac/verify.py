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

from .errors import ConvergenceError, DimensionError, NearKinkError, NoValidProbeError
from .layers import DEFAULT_MARGIN, LimitLayer
from .linalg import svd_values
from .rng import SplitMix64, derive_seed

PASS_TOL = 1e-10
ISOMETRY_TOL = 1e-8
CRITERIA = ("orthogonal", "partial", "sv_interval", "isometry", "none")
# probes chained through the stack together: enough rows to amortize the
# per-layer overhead, few enough that the per-layer stacks stay small
PROBE_BLOCK = 16


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


def stack_jacobian(stack: list, X: np.ndarray, margin: float = DEFAULT_MARGIN):
    """Chained Jacobians of a layer stack at the rows of ``X``, away from kinks.

    At each layer the rows within ``margin`` of a kink are dropped (a NaN
    distance is kept), and only the rows left go on to the next layer.
    Returns the indices of the kept rows of X and their Jacobians as one
    ``(kept, n, n)`` array.
    """
    kept = np.arange(len(X))
    cur = np.asarray(X, dtype=np.float64)
    jacs = None
    for depth, layer in enumerate(stack):
        keep = ~(layer.kink_distance_batch(cur) < margin)
        if not keep.all():
            kept, cur = kept[keep], cur[keep]
            jacs = None if jacs is None else jacs[keep]
        part = layer.jacobian_batch(cur)
        jacs = part if jacs is None else part @ jacs
        if depth + 1 < len(stack):
            cur = layer.forward_batch(cur)
    return kept, jacs


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
                     margin: float, jacobian, out: np.ndarray | None = None
                     ) -> tuple[list, np.ndarray]:
    """The Jacobians of a stack at the probes of one run, away from kinks.

    Probe ``i`` is the ``i``-th Gaussian input of the stream derived from
    ``seed``; probes within ``margin`` of a kink are dropped.  The probes
    go through ``jacobian(stack, X, margin)``, which is ``stack_jacobian``
    through the caller's own binding of it, in blocks of ``PROBE_BLOCK``
    rows.  Returns the kept probe indices in order and their Jacobians as
    one ``(kept, n, n)`` array, the first rows of ``out`` (which has at
    least ``n_probes`` rows) or of a new array; raises NoValidProbeError
    when no probe is kept.
    """
    width = stack[0].width
    # each gaussian(width) call reads whole pairs, so probe i is row i of
    # one draw with the width rounded up to even, minus the padding column
    pad = width + width % 2
    stream = SplitMix64(derive_seed(seed, 0x50))
    X = input_scale * stream.gaussian(n_probes * pad).reshape(n_probes, pad)[:, :width]
    # pages of the rows left unfilled are never touched
    jacs = np.empty((n_probes, width, width)) if out is None else out
    kept = []
    for start in range(0, n_probes, PROBE_BLOCK):
        rows, block = jacobian(stack, X[start:start + PROBE_BLOCK], margin)
        jacs[len(kept):len(kept) + len(rows)] = block
        kept += (start + rows).tolist()
    if not kept:
        raise NoValidProbeError(
            f"all {n_probes} probes fell within the kink margin {margin}"
        )
    return kept, jacs[:len(kept)]


@dataclass(frozen=True)
class ProbeRequest:
    """One probe-and-judge run: ``spectrum_probe``'s arguments for one target.

    ``name`` labels the request in the message of a ConvergenceError.
    """

    target: object
    n_probes: int
    seed: int
    input_scale: float = 1.0
    margin: float = DEFAULT_MARGIN
    criterion: str = "orthogonal"
    tol: float = PASS_TOL
    epsilon: float | None = None
    name: str | None = None


def _band(request: ProbeRequest, stack: list) -> float | None:
    """The request's ``epsilon``, derived from the layer for "isometry".

    Raises DimensionError for a request that cannot be judged.
    """
    if request.criterion not in CRITERIA:
        raise DimensionError(f"unknown criterion {request.criterion!r}")
    if request.criterion == "isometry":
        if len(stack) != 1 or not isinstance(stack[0], LimitLayer):
            raise DimensionError("isometry criterion needs one limit layer")
        return stack[0].isometry_epsilon()
    if request.criterion == "sv_interval" and request.epsilon is None:
        raise DimensionError("sv_interval criterion needs epsilon")
    return request.epsilon


def _judge(request: ProbeRequest, stack: list, band: float | None, jacs: np.ndarray,
           sv: np.ndarray) -> VerifyReport:
    """The report of one request from its kept Jacobians and their singular values."""
    max_orth = max(orthogonality_defect(jac) for jac in jacs)
    max_partial = max(partial_isometry_defect(jac) for jac in jacs)
    sv_min = float(np.min(sv[:, -1]))
    sv_max = float(np.max(sv[:, 0]))
    criterion, tol = request.criterion, request.tol
    if criterion == "orthogonal":
        passed = bool(max_orth <= tol)
    elif criterion == "partial":
        passed = bool(max_partial <= tol)
    elif criterion in ("sv_interval", "isometry"):
        passed = bool(sv_min >= 1.0 - band - tol and sv_max <= 1.0 + band + tol)
    else:
        passed = None
    return VerifyReport(
        probes=len(jacs),
        max_orth_defect=max_orth,
        max_partial_defect=max_partial,
        sv_min=sv_min,
        sv_max=sv_max,
        bound_epsilon=band,
        passed=passed,
        skipped_near_kink=request.n_probes - len(jacs),
        criterion="sv_interval" if criterion == "isometry" else criterion,
        tol=tol,
        seed=request.seed,
        kind=stack[0].kind if len(stack) == 1 else "stack",
        width=stack[0].width,
        depth=len(stack),
    )


def spectrum_probe(
    target,
    n_probes: int | None = None,
    seed: int | None = None,
    input_scale: float = 1.0,
    margin: float = DEFAULT_MARGIN,
    criterion: str = "orthogonal",
    tol: float = PASS_TOL,
    epsilon: float | None = None,
):
    """Probe Jacobian spectra of a layer or stack at Gaussian inputs.

    ``target`` is a layer or stack probed as the other arguments say,
    giving one VerifyReport, or a list of ``ProbeRequest``s alone, giving
    one report per request in order.  ``criterion`` decides the pass flag:
    "orthogonal" and "partial" compare the respective worst defect against
    ``tol``; "sv_interval" requires every singular value to lie in
    [1-epsilon-tol, 1+epsilon+tol]; "isometry" is "sv_interval" with the
    band ``isometry_epsilon()`` of one limit layer, and is reported as
    "sv_interval"; "none" records measurements without judging them.

    Every request is checked before any is probed, and every request is
    probed before any singular value is computed.  The kept Jacobians of
    all requests of one width fill one buffer, whose singular values come
    from one ``svd_values`` call; each matrix gets the same values as in a
    call of its own.  A ConvergenceError names the request and its probe.
    """
    single = n_probes is not None
    if single:
        requests = [ProbeRequest(target, n_probes, seed, input_scale, margin,
                                 criterion, tol, epsilon)]
    else:
        requests = list(target)
        if not all(isinstance(req, ProbeRequest) for req in requests):
            raise DimensionError("spectrum_probe needs n_probes or a list of ProbeRequests")
    stacks = [_as_stack(req.target) for req in requests]
    bands = [_band(req, stack) for req, stack in zip(requests, stacks)]
    rows: dict[int, int] = {}
    for stack, req in zip(stacks, requests):
        rows[stack[0].width] = rows.get(stack[0].width, 0) + req.n_probes
    # pages of a buffer's unfilled tail are never touched
    buffers = {width: np.empty((count, width, width)) for width, count in rows.items()}
    filled = dict.fromkeys(buffers, 0)
    probed = []
    for stack, req in zip(stacks, requests):
        width = stack[0].width
        kept, _ = _probe_jacobians(stack, req.n_probes, req.seed, req.input_scale,
                                   req.margin, stack_jacobian,
                                   buffers[width][filled[width]:])
        probed.append((width, filled[width], kept))
        filled[width] += len(kept)
    values = {}
    for width, buffer in buffers.items():
        try:
            values[width] = svd_values(buffer[:filled[width]])
        except ConvergenceError as exc:
            # the requests of one width fill its buffer in order, at least one row each
            k = max(k for k, (w, start, _) in enumerate(probed)
                    if w == width and start <= exc.index)
            _, start, kept = probed[k]
            name = requests[k].name
            where = f"probe {kept[exc.index - start]}" + (f" of {name!r}" if name else "")
            raise ConvergenceError(f"{exc.message} at {where}", exc.residual) from exc
    reports = [
        _judge(req, stack, band, buffers[width][start:start + len(kept)],
               values[width][start:start + len(kept)])
        for req, stack, band, (width, start, kept) in zip(requests, stacks, bands, probed)
    ]
    return reports[0] if single else reports


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
    isometry conditions.  This is ``spectrum_probe`` with criterion
    "isometry".
    """
    return spectrum_probe(layer, n_probes, seed, input_scale=input_scale,
                          margin=margin, criterion="isometry", tol=tol)


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
