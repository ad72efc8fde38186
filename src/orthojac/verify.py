"""Numerical verification of layer Jacobians.

Probes are drawn from the portable RNG, filtered by a kink margin, and
reduced in probe-index order, so every report is reproducible from its
seed.  Defects are Frobenius norms: ``||J^T J - I||`` for orthogonality
and ``||(J J^T)^2 - J J^T||`` for partial isometry (the latter vanishes
exactly when J J^T is a projection); each takes one Jacobian or a stack,
as ``linalg.per_matrix`` does.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, NoValidProbeError
from .layers import DEFAULT_MARGIN, LimitLayer
from .linalg import checked, frobenius_defect, per_matrix, svd_values
from .rng import SplitMix64, derive_seed

PASS_TOL = 1e-10
ISOMETRY_TOL = 1e-8
CRITERIA = ("orthogonal", "partial", "sv_interval", "isometry", "none")
# entries of the (rows, n, n) Jacobian stack of one probe block (256 KiB of
# float64): each layer call's fixed cost argues for more rows, the allocator
# for fewer (larger fresh per-layer stacks fault in their pages each call)
PROBE_BLOCK_ENTRIES = 32 * 32 * 32


def orthogonality_defect(jac: np.ndarray):
    """Frobenius distance of J^T J from the identity."""
    return per_matrix(lambda block: frobenius_defect(block.transpose(0, 2, 1)), jac)


def _projection_defects(block: np.ndarray) -> np.ndarray:
    gram = block @ block.transpose(0, 2, 1)
    resid = gram @ gram - gram
    return np.sqrt(np.sum(np.square(resid, out=resid), axis=(1, 2)))


def partial_isometry_defect(jac: np.ndarray):
    """Frobenius distance of J J^T from being a projection."""
    return per_matrix(_projection_defects, jac)


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


def _check_widths(stack: list, where: str = "") -> None:
    """DimensionError, its message prefixed by ``where``, naming the first layer
    of ``stack`` whose width differs from layer 0's."""
    for i, layer in enumerate(stack):
        if layer.width != stack[0].width:
            raise DimensionError(f"{where}layer {i} of the stack has width {layer.width},"
                                 f" layer 0 has width {stack[0].width}")


def stack_jacobian(stack: list, X: np.ndarray, margin: float = DEFAULT_MARGIN):
    """Chained Jacobians of a layer stack at the rows of ``X``, away from kinks.

    Each layer takes the rows in one ``linearize_batch`` call; those within
    ``margin`` of a kink are dropped (a NaN distance is kept), and only the
    rows left go on to the next layer.  Returns the indices of the kept rows
    of X and their Jacobians as one ``(kept, n, n)`` array.  A stack whose
    layers differ in width raises DimensionError before any layer runs.
    """
    _check_widths(stack)
    kept = np.arange(len(X))
    cur = np.asarray(X, dtype=np.float64)
    jacs = None
    for layer in stack:
        cur, part, dist = layer.linearize_batch(cur)
        keep = ~(dist < margin)
        if not keep.all():
            kept, cur, part = kept[keep], cur[keep], part[keep]
            jacs = None if jacs is None else jacs[keep]
        jacs = part if jacs is None else part @ jacs
    return kept, jacs


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


@dataclass(frozen=True)
class ProbeRequest:
    """One probe run of a layer or stack (``target``) and how to judge it.

    Every setting is checked on construction, before any layer is probed:
    ``criterion`` is one of CRITERIA, ``n_probes`` a positive integer,
    ``seed`` an integer, and ``input_scale``, ``margin``, ``tol`` and a
    given ``epsilon`` finite numbers (bools are not numbers here);
    "sv_interval" needs ``epsilon``.  The one rule that needs the built
    layer, one limit layer for "isometry", is checked by ``spectrum_probe``.
    A failed check raises DimensionError.  ``name`` labels the request in
    these messages and in the message of a ConvergenceError.
    """

    target: object
    n_probes: int = 1000
    seed: int = 0
    input_scale: float = 1.0
    margin: float = DEFAULT_MARGIN
    criterion: str = "orthogonal"
    tol: float = PASS_TOL
    epsilon: float | None = None
    name: str | None = None

    @property
    def _where(self) -> str:
        return f"{self.name!r}: " if self.name else ""

    def __post_init__(self):
        where = self._where
        if self.criterion not in CRITERIA:
            raise DimensionError(
                f"{where}unknown criterion {self.criterion!r}, expected one of {CRITERIA}"
            )
        checked(self.n_probes, f"{self.name}.probes" if self.name else "probes",
                "a positive integer")
        checked(self.seed, f"{where}seed", "an integer")
        for key in ("input_scale", "margin", "tol", "epsilon"):
            value = getattr(self, key)
            if key != "epsilon" or value is not None:
                # a number first, so that 10**400 is named a number that is not finite
                checked(checked(value, where + key, "a number"), where + key, "finite")
        if self.criterion == "sv_interval" and self.epsilon is None:
            raise DimensionError(f"{where}sv_interval criterion needs epsilon")


def _band(request: ProbeRequest, stack: list) -> float | None:
    """The request's ``epsilon``, derived from the layer for "isometry".

    Raises DimensionError when an "isometry" target is not one limit layer.
    """
    if request.criterion != "isometry":
        return request.epsilon
    if len(stack) != 1 or not isinstance(stack[0], LimitLayer):
        raise DimensionError(f"{request._where}isometry criterion needs one limit layer")
    return stack[0].isometry_epsilon()


def _judge(request: ProbeRequest, stack: list, band: float | None, jacs: np.ndarray,
           sv: np.ndarray) -> VerifyReport:
    """The report of one request from its kept Jacobians and their singular values."""
    max_orth = float(np.max(orthogonality_defect(jacs)))
    max_partial = float(np.max(partial_isometry_defect(jacs)))
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


def probe_spectra(requests: list, jacobian) -> list:
    """The Jacobians and singular values of every request at its kept probes.

    Probe ``i`` of a request is the ``i``-th Gaussian input of the stream
    derived from its ``seed``, times its ``input_scale``; probes within its
    ``margin`` of a kink are dropped.  The probes go through
    ``jacobian(stack, X, margin)``, which is ``stack_jacobian`` through the
    caller's own binding of it, in blocks of ``PROBE_BLOCK_ENTRIES // n**2``
    rows at width ``n`` (at least one): 32 at width 32, 128 at width 16, 8 at
    width 64.  A region-affine Jacobian is the same in any block.  The kept
    Jacobians of all requests of one width fill one buffer, whose singular
    values come from one ``svd_values`` call once every request is probed;
    each matrix gets the same values as in a call of its own.

    Returns, per request in order, the kept probe indices, their
    ``(kept, n, n)`` Jacobians and their ``(kept, n)`` singular values
    (descending).  Raises, naming the request, a DimensionError before any
    probe that names the first layer whose width differs from layer 0's,
    NoValidProbeError when it keeps no probe, and ConvergenceError at its probe.
    """
    stacks = [_as_stack(req.target) for req in requests]
    rows: dict[int, int] = {}
    for stack, req in zip(stacks, requests):
        _check_widths(stack, req._where)
        rows[stack[0].width] = rows.get(stack[0].width, 0) + req.n_probes
    # pages of a buffer's unfilled tail are never touched
    buffers = {width: np.empty((count, width, width)) for width, count in rows.items()}
    # (request, probe) of each filled row of each buffer
    owners: dict[int, list] = {width: [] for width in buffers}
    spans = []
    for k, (stack, req) in enumerate(zip(stacks, requests)):
        width = stack[0].width
        # each gaussian(width) call reads whole pairs, so probe i is row i of
        # one draw with the width rounded up to even, minus the padding column
        pad = width + width % 2
        stream = SplitMix64(derive_seed(req.seed, 0x50))
        X = req.input_scale * stream.gaussian(req.n_probes * pad).reshape(-1, pad)[:, :width]
        owner = owners[width]
        start = len(owner)
        step = max(1, PROBE_BLOCK_ENTRIES // width ** 2)
        for first in range(0, req.n_probes, step):
            kept, block = jacobian(stack, X[first:first + step], req.margin)
            buffers[width][len(owner):len(owner) + len(kept)] = block
            owner += [(k, probe) for probe in (first + kept).tolist()]
        if len(owner) == start:
            raise NoValidProbeError(
                f"{req._where}all {req.n_probes} probes fell within the kink margin {req.margin}")
        spans.append((width, start, len(owner)))
    values = {}
    for width, buffer in buffers.items():
        try:
            values[width] = svd_values(buffer[:len(owners[width])])
        except ConvergenceError as exc:
            k, probe = owners[width][exc.index]
            name = requests[k].name
            where = f"probe {probe}" + (f" of {name!r}" if name else "")
            raise ConvergenceError(f"{exc.message} at {where}", exc.residual) from exc
    return [([probe for _, probe in owners[width][start:stop]],
             buffers[width][start:stop], values[width][start:stop])
            for width, start, stop in spans]


def spectrum_probe(requests: list) -> list:
    """Probe the Jacobian spectra of each ``ProbeRequest`` and judge them.

    Returns one VerifyReport per request, in order.  The criterion decides
    the pass flag: "orthogonal" and "partial" compare the respective worst
    defect against ``tol``; "sv_interval" requires every singular value to
    lie in [1-epsilon-tol, 1+epsilon+tol]; "isometry" is "sv_interval" with
    the band ``isometry_epsilon()`` of one limit layer, and is reported as
    "sv_interval"; "none" records measurements without judging them.  Every
    band is derived before any request is probed, and the probes and
    singular values come from one ``probe_spectra`` call.
    """
    if not all(isinstance(req, ProbeRequest) for req in requests):
        raise DimensionError("spectrum_probe needs a list of ProbeRequests")
    stacks = [_as_stack(req.target) for req in requests]
    bands = [_band(req, stack) for req, stack in zip(requests, stacks)]
    return [_judge(req, stack, band, jacs, values)
            for req, stack, band, (_, jacs, values)
            in zip(requests, stacks, bands, probe_spectra(requests, stack_jacobian))]


def check_dynamical_isometry(layer: LimitLayer, n_probes: int, seed: int,
                             input_scale: float = 1.0, margin: float = DEFAULT_MARGIN,
                             tol: float = ISOMETRY_TOL) -> VerifyReport:
    """Verify all Jacobian singular values sit within the predicted band.

    The band half-width is ``max(2*Lip(m)*||b||, 2*sqrt(n)*Lip(q))``, the
    smallest value for which the layer's coefficient fields satisfy the
    isometry conditions.  This is ``spectrum_probe`` on one request with
    criterion "isometry".
    """
    return spectrum_probe([ProbeRequest(layer, n_probes, seed, input_scale, margin,
                                        criterion="isometry", tol=tol)])[0]


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
    resolutions: list,
    domain_radius: float,
    n_probes: int,
    seed: int,
) -> list:
    """Compare a limit layer against its piecewise-constant-field surrogates.

    The surrogate at each resolution has the layer's coefficient fields
    sampled at the centers of an axis-aligned grid with that many cells per
    axis over the first two coordinates of the radius-``domain_radius``
    ball (remaining coordinates unpartitioned).  The measured sup-norm gap
    over ball-uniform probes never exceeds the bound
    ``sup|q - q~| + sup|m - m~| * ||b||``.  The probes are drawn, and the
    layer's reflection part and fields evaluated, once for all resolutions;
    every surrogate shares that reflection output and evaluates each field
    once, at the probes snapped to their cell centers.  Returns one
    DensityReport per resolution, in ascending order.  A bad argument raises
    DimensionError.
    """
    resolutions = sorted(checked(r, "resolution", "a positive integer")
                         for r in checked(resolutions, "resolutions", "a non-empty list"))
    checked(domain_radius, "radius", "a positive finite number")
    checked(n_probes, "probes", "a positive integer")
    checked(seed, "seed", "an integer")
    X = SplitMix64(derive_seed(seed, 0xD6)).ball(n_probes, layer.width, domain_radius)
    core = layer.reflection.forward_batch(X)[0]
    exact, m_vals, q_vals = layer.with_fields(core, X)[:3]
    b_norm = float(np.sqrt(layer.b @ layer.b))
    radius = float(domain_radius)
    reports = []
    for resolution in resolutions:
        # the probes snapped to the centers of their cells
        width = 2.0 * radius / resolution
        snapped = X.copy()
        idx = np.clip(np.floor((X[:, :2] + radius) / width), 0, resolution - 1)
        snapped[:, :2] = -radius + (idx + 0.5) * width
        surrogate, m_tilde, q_tilde = layer.with_fields(core, snapped)[:3]
        gap = np.max(np.abs(exact - surrogate), axis=1)
        reports.append(DensityReport(
            resolution=resolution,
            domain_radius=domain_radius,
            n_probes=n_probes,
            seed=seed,
            measured_gap=float(np.max(gap)),
            theoretical_bound=float(np.max(np.abs(q_vals - q_tilde))
                                    + np.max(np.abs(m_vals - m_tilde)) * b_norm),
        ))
    return reports
