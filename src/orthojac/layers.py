"""Piecewise-linear layer families with orthogonal Jacobians.

Every layer maps R^n -> R^n and exposes the same surface:

* ``forward(x)`` / ``forward_batch(X)`` evaluate the map,
* ``jacobian(x, margin)`` assembles the exact Jacobian away from kinks,
* ``vjp(x, v)`` / ``vjp_batch(X, V)`` pull a cotangent back through the
  layer, returning the input gradient and per-parameter gradients
  (summed over the batch in the batched form),
* ``kink_distance(x)`` measures how far the input is from the nearest
  non-differentiability locus (pre-activation node, gate plane, or
  partition plane, in those coordinates),
* ``params()`` names the trainable arrays,
* ``to_json()`` round-trips the layer.

Strict constructors enforce the slope and weight conditions under which
the Jacobian is exactly orthogonal wherever it exists; ``strict=False``
skips those checks so deliberately broken layers can be probed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionError,
    InvalidGateError,
    MissingRegionError,
    MixedCaseError,
    NearKinkError,
    OrthogonalityError,
    SlopeMismatchError,
)
from .linalg import as_matrix, as_vector, frobenius_defect
from .pwl import PwlScalar, slope_violation
from .rng import SplitMix64, derive_seed

ORTHO_TOL = 1e-10
SLOPE_TOL = 1e-12
DEFAULT_MARGIN = 1e-8


def _require_orthogonal(m: np.ndarray, name: str) -> None:
    defect = frobenius_defect(m)
    if defect > ORTHO_TOL:
        raise OrthogonalityError(f"{name} is not orthogonal within {ORTHO_TOL}", defect)


def _require_slopes(sigma: PwlScalar, allowed: Sequence[float], context: str) -> None:
    bad = slope_violation(sigma, allowed, SLOPE_TOL)
    if bad is not None:
        raise SlopeMismatchError(
            f"{context}: activation slopes must lie in {sorted(set(allowed))}", bad
        )


def _check_margin(distance: float, margin: float) -> None:
    if distance < margin:
        raise NearKinkError(distance, margin)


def _sign_pos(values: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1."""
    return np.where(values >= 0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# shared core for layers of the shape  g(x) + d * A^T sigma(Bx + b)
# ---------------------------------------------------------------------------


def _core_forward(ell, c, d, A, B, b, sigma, X):
    Z = X @ B.T + b
    return ell * X + c + d * (sigma.value(Z) @ A)


def _core_jacobian(ell, d, A, B, b, sigma, x):
    z = B @ x + b
    slopes = sigma.deriv(z)
    jac = d * ((A.T * slopes) @ B)
    if ell != 0.0:
        jac[np.diag_indices_from(jac)] += ell
    return jac


def _core_vjp(ell, d, A, B, b, sigma, X, V):
    """Input gradient and (gA, gB, gb) summed over rows of X/V."""
    Z = X @ B.T + b
    S = sigma.value(Z)
    W = sigma.deriv(Z) * (d * (V @ A.T))
    dX = W @ B
    if ell != 0.0:
        dX = dX + ell * V
    gA = d * (S.T @ V)
    gB = W.T @ X
    gb = W.sum(axis=0)
    return dX, gA, gB, gb


def _forward_one(self, x):
    """``forward`` of every layer class: ``forward_batch`` on one sample."""
    return self.forward_batch(np.asarray(x)[np.newaxis])[0]


def _vjp_one(self, x, v):
    """``vjp`` of every layer class: ``vjp_batch`` on one sample."""
    dX, grads = self.vjp_batch(np.asarray(x)[np.newaxis], np.asarray(v)[np.newaxis])
    return dX[0], grads


# ---------------------------------------------------------------------------
# layer families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseILayer:
    """x -> c*1 + d * A^T sigma(Bx + b) with independent weights A, B.

    Strict mode requires A and B orthogonal and sigma's slopes drawn
    from {-1/d, +1/d}, which makes the Jacobian d * A^T D B orthogonal
    wherever it exists.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    c: float
    d: float
    sigma: PwlScalar
    strict: bool = True

    def __post_init__(self):
        n = self.B.shape[0]
        as_matrix(self.A, n, n)
        as_matrix(self.B, n, n)
        as_vector(self.b, n)
        if self.strict:
            if self.d == 0.0:
                raise SlopeMismatchError("case-i layer needs d != 0", 0.0)
            _require_orthogonal(self.A, "A")
            _require_orthogonal(self.B, "B")
            _require_slopes(
                self.sigma, (-1.0 / self.d, 1.0 / self.d), "case-i layer"
            )

    @property
    def width(self) -> int:
        return self.B.shape[0]

    forward = _forward_one

    def forward_batch(self, X):
        return _core_forward(0.0, self.c, self.d, self.A, self.B, self.b, self.sigma, X)

    def kink_distance(self, x) -> float:
        z = self.B @ x + self.b
        return float(np.min(self.sigma.distance_to_breakpoint(z)))

    def jacobian(self, x, margin: float = DEFAULT_MARGIN):
        _check_margin(self.kink_distance(x), margin)
        return _core_jacobian(0.0, self.d, self.A, self.B, self.b, self.sigma, x)

    vjp = _vjp_one

    def vjp_batch(self, X, V):
        dX, gA, gB, gb = _core_vjp(0.0, self.d, self.A, self.B, self.b, self.sigma, X, V)
        return dX, {"A": gA, "B": gB, "b": gb}

    def params(self) -> dict:
        return {"A": self.A, "B": self.B, "b": self.b}

    def to_json(self) -> dict:
        return {
            "type": "case_i",
            "n": self.width,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "b": self.b.tolist(),
            "c": self.c,
            "d": self.d,
            "sigma": self.sigma.to_json(),
            "strict": self.strict,
        }


@dataclass(frozen=True)
class CaseIILayer:
    """x -> ell*x + c*1 + d * B^T sigma(Bx + b) with shared weight B.

    Strict mode requires B orthogonal and sigma's slopes drawn from
    {(1 - ell)/d, -(1 + ell)/d}; the Jacobian is then B^T (ell*I + d*D) B
    with diagonal entries +-1.
    """

    B: np.ndarray
    b: np.ndarray
    ell: float
    c: float
    d: float
    sigma: PwlScalar
    strict: bool = True

    def __post_init__(self):
        n = self.B.shape[0]
        as_matrix(self.B, n, n)
        as_vector(self.b, n)
        if self.strict:
            if self.d == 0.0:
                raise SlopeMismatchError("case-ii layer needs d != 0", 0.0)
            _require_orthogonal(self.B, "B")
            allowed = ((1.0 - self.ell) / self.d, -(1.0 + self.ell) / self.d)
            _require_slopes(self.sigma, allowed, "case-ii layer")

    @property
    def width(self) -> int:
        return self.B.shape[0]

    forward = _forward_one

    def forward_batch(self, X):
        return _core_forward(
            self.ell, self.c, self.d, self.B, self.B, self.b, self.sigma, X
        )

    def kink_distance(self, x) -> float:
        z = self.B @ x + self.b
        return float(np.min(self.sigma.distance_to_breakpoint(z)))

    def jacobian(self, x, margin: float = DEFAULT_MARGIN):
        _check_margin(self.kink_distance(x), margin)
        return _core_jacobian(self.ell, self.d, self.B, self.B, self.b, self.sigma, x)

    vjp = _vjp_one

    def vjp_batch(self, X, V):
        dX, gA, gB, gb = _core_vjp(
            self.ell, self.d, self.B, self.B, self.b, self.sigma, X, V
        )
        return dX, {"B": gA + gB, "b": gb}

    def params(self) -> dict:
        return {"B": self.B, "b": self.b}

    def to_json(self) -> dict:
        return {
            "type": "case_ii",
            "n": self.width,
            "B": self.B.tolist(),
            "b": self.b.tolist(),
            "ell": self.ell,
            "c": self.c,
            "d": self.d,
            "sigma": self.sigma.to_json(),
            "strict": self.strict,
        }


@dataclass(frozen=True)
class GatedLayer:
    """x -> sign(a.x) * (x - 2 B^T sigma(Bx + b)), sign(0) = +1.

    The inner map is the reflection-style case-ii layer; the gate flips
    its sign across the plane {a.x = 0}, making the layer discontinuous
    there while keeping the Jacobian orthogonal off the plane.
    """

    B: np.ndarray
    b: np.ndarray
    gate: np.ndarray
    sigma: PwlScalar
    strict: bool = True

    def __post_init__(self):
        n = self.B.shape[0]
        as_matrix(self.B, n, n)
        as_vector(self.b, n)
        gate = as_vector(self.gate, n)
        if not np.any(gate != 0.0):
            raise InvalidGateError("gate vector must be nonzero")
        if self.strict:
            _require_orthogonal(self.B, "B")
            _require_slopes(self.sigma, (0.0, 1.0), "gated layer")

    @property
    def width(self) -> int:
        return self.B.shape[0]

    def _signs(self, X):
        return _sign_pos(X @ self.gate)

    forward = _forward_one

    def forward_batch(self, X):
        inner = _core_forward(1.0, 0.0, -2.0, self.B, self.B, self.b, self.sigma, X)
        return self._signs(X)[:, np.newaxis] * inner

    def kink_distance(self, x) -> float:
        z = self.B @ x + self.b
        pre = float(np.min(self.sigma.distance_to_breakpoint(z)))
        return min(pre, abs(float(self.gate @ x)))

    def jacobian(self, x, margin: float = DEFAULT_MARGIN):
        _check_margin(self.kink_distance(x), margin)
        s = float(_sign_pos(np.asarray([self.gate @ x]))[0])
        return s * _core_jacobian(1.0, -2.0, self.B, self.B, self.b, self.sigma, x)

    vjp = _vjp_one

    def vjp_batch(self, X, V):
        scaled = self._signs(X)[:, np.newaxis] * V
        dX, gA, gB, gb = _core_vjp(
            1.0, -2.0, self.B, self.B, self.b, self.sigma, X, scaled
        )
        return dX, {"B": gA + gB, "b": gb}

    def params(self) -> dict:
        return {"B": self.B, "b": self.b}

    def to_json(self) -> dict:
        return {
            "type": "gated",
            "n": self.width,
            "B": self.B.tolist(),
            "b": self.b.tolist(),
            "gate": self.gate.tolist(),
            "sigma": self.sigma.to_json(),
            "strict": self.strict,
        }


@dataclass(frozen=True)
class ComposedLayer:
    """x -> O @ inner(x): a layer post-composed with a fixed rotation.

    The Jacobian O @ J_inner stays orthogonal exactly when O is; the
    rotation is frozen (not trainable).
    """

    rotation: np.ndarray
    inner: "Layer"
    strict: bool = True

    def __post_init__(self):
        n = self.inner.width
        as_matrix(self.rotation, n, n)
        if self.strict:
            _require_orthogonal(self.rotation, "rotation")

    @property
    def width(self) -> int:
        return self.inner.width

    forward = _forward_one

    def forward_batch(self, X):
        return self.inner.forward_batch(X) @ self.rotation.T

    def kink_distance(self, x) -> float:
        return self.inner.kink_distance(x)

    def jacobian(self, x, margin: float = DEFAULT_MARGIN):
        return self.rotation @ self.inner.jacobian(x, margin)

    vjp = _vjp_one

    def vjp_batch(self, X, V):
        return self.inner.vjp_batch(X, V @ self.rotation)

    def params(self) -> dict:
        return self.inner.params()

    def to_json(self) -> dict:
        return {
            "type": "composed",
            "n": self.width,
            "rotation": self.rotation.tolist(),
            "inner": self.inner.to_json(),
            "strict": self.strict,
        }


@dataclass(frozen=True)
class RegionCoeffs:
    """Affine-skip coefficients and activation for one partition cell."""

    ell: float
    c: float
    d: float
    sigma: PwlScalar

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "c": self.c,
            "d": self.d,
            "sigma": self.sigma.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "RegionCoeffs":
        return RegionCoeffs(
            float(obj["ell"]),
            float(obj["c"]),
            float(obj["d"]),
            PwlScalar.from_json(obj["sigma"]),
        )


@dataclass(frozen=True)
class PartitionedLayer:
    """Region-wise map: x -> ell_i x + c_i + d_i A^T sigma_i(Bx + b).

    Cells are cut by signed hyperplanes (sign(0) = +1); each reachable
    sign vector needs coefficients (or a declared default).  Strict mode
    enforces, per region, the case-i slope set when ell = 0 and the
    case-ii slope set plus shared weights when ell != 0.  A and B are
    shared when they are one array (``make_partitioned`` ties equal
    arrays), and then train as one parameter.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    hyperplanes: tuple[tuple[np.ndarray, float], ...]
    regions: dict
    default: RegionCoeffs | None = None
    strict: bool = True

    def __post_init__(self):
        n = self.B.shape[0]
        as_matrix(self.A, n, n)
        as_matrix(self.B, n, n)
        as_vector(self.b, n)
        for normal, _offset in self.hyperplanes:
            hn = as_vector(normal, n)
            if not np.any(hn != 0.0):
                raise InvalidGateError("partition hyperplane normal must be nonzero")
        j = len(self.hyperplanes)
        coeff_list = list(self.regions.values())
        if self.default is not None:
            coeff_list.append(self.default)
        for key in self.regions:
            if len(key) != j or any(s not in (-1, 1) for s in key):
                raise DimensionError(
                    f"region key {key!r} does not match {j} hyperplanes"
                )
        if self.strict:
            _require_orthogonal(self.A, "A")
            _require_orthogonal(self.B, "B")
            for coeffs in coeff_list:
                if coeffs.d == 0.0:
                    raise SlopeMismatchError("region needs d != 0", 0.0)
                if coeffs.ell == 0.0:
                    allowed = (-1.0 / coeffs.d, 1.0 / coeffs.d)
                else:
                    if not self.shared_weights:
                        raise MixedCaseError(
                            "regions with a skip term (ell != 0) require A = B"
                            " (one shared array)"
                        )
                    allowed = (
                        (1.0 - coeffs.ell) / coeffs.d,
                        -(1.0 + coeffs.ell) / coeffs.d,
                    )
                _require_slopes(coeffs.sigma, allowed, "partitioned layer region")

    @property
    def width(self) -> int:
        return self.B.shape[0]

    @property
    def shared_weights(self) -> bool:
        return self.A is self.B

    def sign_vector(self, x) -> tuple[int, ...]:
        return tuple(
            1 if float(normal @ x) - offset >= 0.0 else -1
            for normal, offset in self.hyperplanes
        )

    def _coeffs(self, key: tuple[int, ...]) -> RegionCoeffs:
        coeffs = self.regions.get(key, self.default)
        if coeffs is None:
            raise MissingRegionError(key)
        return coeffs

    def _group_rows(self, X):
        if not self.hyperplanes:
            yield (), np.arange(X.shape[0])
            return
        normals = np.stack([normal for normal, _ in self.hyperplanes])
        offsets = np.asarray([offset for _, offset in self.hyperplanes])
        signs = np.where(X @ normals.T - offsets >= 0.0, 1, -1)
        seen: dict[tuple[int, ...], list[int]] = {}
        for i, row in enumerate(signs):
            seen.setdefault(tuple(int(s) for s in row), []).append(i)
        for key in sorted(seen):
            yield key, np.asarray(seen[key])

    forward = _forward_one

    def forward_batch(self, X):
        out = np.empty_like(X)
        for key, idx in self._group_rows(X):
            co = self._coeffs(key)
            out[idx] = _core_forward(
                co.ell, co.c, co.d, self.A, self.B, self.b, co.sigma, X[idx]
            )
        return out

    def kink_distance(self, x) -> float:
        co = self._coeffs(self.sign_vector(x))
        z = self.B @ x + self.b
        dist = float(np.min(co.sigma.distance_to_breakpoint(z)))
        for normal, offset in self.hyperplanes:
            dist = min(dist, abs(float(normal @ x) - offset))
        return dist

    def jacobian(self, x, margin: float = DEFAULT_MARGIN):
        _check_margin(self.kink_distance(x), margin)
        co = self._coeffs(self.sign_vector(x))
        return _core_jacobian(co.ell, co.d, self.A, self.B, self.b, co.sigma, x)

    vjp = _vjp_one

    def vjp_batch(self, X, V):
        n = self.width
        dX = np.empty_like(X)
        gA = np.zeros((n, n))
        gB = np.zeros((n, n))
        gb = np.zeros(n)
        for key, idx in self._group_rows(X):
            co = self._coeffs(key)
            part_dX, part_gA, part_gB, part_gb = _core_vjp(
                co.ell, co.d, self.A, self.B, self.b, co.sigma, X[idx], V[idx]
            )
            dX[idx] = part_dX
            gA += part_gA
            gB += part_gB
            gb += part_gb
        if self.shared_weights:
            return dX, {"B": gA + gB, "b": gb}
        return dX, {"A": gA, "B": gB, "b": gb}

    def params(self) -> dict:
        if self.shared_weights:
            return {"B": self.B, "b": self.b}
        return {"A": self.A, "B": self.B, "b": self.b}

    def to_json(self) -> dict:
        return {
            "type": "partitioned",
            "n": self.width,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "b": self.b.tolist(),
            "hyperplanes": [
                {"normal": normal.tolist(), "offset": offset}
                for normal, offset in self.hyperplanes
            ],
            "regions": [
                {"signs": list(key), **coeffs.to_json()}
                for key, coeffs in sorted(self.regions.items())
            ],
            "default": self.default.to_json() if self.default else None,
            "strict": self.strict,
        }


# ---------------------------------------------------------------------------
# slope fields and the smooth-coefficient limit layer
# ---------------------------------------------------------------------------


def _power_iteration_norm(w: np.ndarray, iters: int = 200, tol: float = 1e-13) -> float:
    """Largest singular value of ``w`` by power iteration on w^T w."""
    n = w.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n))
    last = 0.0
    for _ in range(iters):
        u = w.T @ (w @ v)
        norm = float(np.sqrt(u @ u))
        if norm == 0.0:
            return 0.0
        v = u / norm
        est = float(np.sqrt(norm))
        if abs(est - last) <= tol * max(est, 1.0):
            return est
        last = est
    return last


@dataclass(frozen=True)
class ConstantField:
    """Scalar field m(x) = value."""

    value: float

    def eval_batch(self, X):
        return np.full(X.shape[0], self.value)

    def grad_batch(self, X):
        return np.zeros_like(X)

    def lipschitz_bound(self) -> float:
        return 0.0

    def kink_distance(self, x) -> float:
        return np.inf

    def params(self) -> dict:
        return {}

    def param_grads_batch(self, X, coeff) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class GaussianBumpField:
    """Scalar field m(x) = scale * exp(-||x||^2).

    The gradient norm 2*scale*r*exp(-r^2) peaks at r = 1/sqrt(2), giving
    the exact Lipschitz constant sqrt(2) * exp(-1/2) * |scale|.
    """

    scale: float

    def eval_batch(self, X):
        return self.scale * np.exp(-np.sum(X * X, axis=1))

    def grad_batch(self, X):
        return -2.0 * self.eval_batch(X)[:, np.newaxis] * X

    def lipschitz_bound(self) -> float:
        return np.sqrt(2.0) * np.exp(-0.5) * abs(self.scale)

    def kink_distance(self, x) -> float:
        return np.inf

    def params(self) -> dict:
        return {}

    def param_grads_batch(self, X, coeff) -> dict:
        return {}

    def to_json(self) -> dict:
        return {"kind": "gaussian_bump", "scale": self.scale}


@dataclass(frozen=True)
class MiniNetField:
    """Scalar field m(x) = w_out . relu(w_in @ x + bias).

    A trainable two-layer scalar net; its Lipschitz bound is the product
    of the layer spectral norms (relu is 1-Lipschitz).
    """

    w_in: np.ndarray
    bias: np.ndarray
    w_out: np.ndarray

    def __post_init__(self):
        h = self.w_in.shape[0]
        as_matrix(self.w_in)
        as_vector(self.bias, h)
        as_vector(self.w_out, h)

    def _hidden(self, X):
        return X @ self.w_in.T + self.bias

    def eval_batch(self, X):
        return np.maximum(self._hidden(X), 0.0) @ self.w_out

    def grad_batch(self, X):
        mask = (self._hidden(X) >= 0.0).astype(np.float64)
        return (mask * self.w_out) @ self.w_in

    def lipschitz_bound(self) -> float:
        out_norm = float(np.sqrt(self.w_out @ self.w_out))
        return out_norm * _power_iteration_norm(self.w_in)

    def kink_distance(self, x) -> float:
        return float(np.min(np.abs(self.w_in @ x + self.bias)))

    def params(self) -> dict:
        return {"w_in": self.w_in, "bias": self.bias, "w_out": self.w_out}

    def param_grads_batch(self, X, coeff) -> dict:
        """Gradients of sum_s coeff_s * m(x_s) w.r.t. the net weights."""
        H = self._hidden(X)
        act = np.maximum(H, 0.0)
        mask = (H >= 0.0).astype(np.float64)
        weighted = coeff[:, np.newaxis] * mask * self.w_out
        return {
            "w_in": weighted.T @ X,
            "bias": weighted.sum(axis=0),
            "w_out": act.T @ coeff,
        }

    def to_json(self) -> dict:
        return {
            "kind": "mini_net",
            "w_in": self.w_in.tolist(),
            "bias": self.bias.tolist(),
            "w_out": self.w_out.tolist(),
        }


SlopeField = Union[ConstantField, GaussianBumpField, MiniNetField]


def make_mini_net_field(
    n: int, hidden: int = 16, seed: int = 0, init_std: float = 0.05
) -> MiniNetField:
    """Seeded mini-net field; draws w_in, bias, w_out in that order."""
    stream = SplitMix64(derive_seed(seed, 0x6D))
    w_in = init_std * stream.gaussian_matrix(hidden, n)
    bias = init_std * stream.gaussian(hidden)
    w_out = init_std * stream.gaussian(hidden)
    return MiniNetField(w_in, bias, w_out)


def field_from_json(obj: dict) -> SlopeField:
    kind = obj.get("kind")
    if kind == "constant":
        return ConstantField(float(obj["value"]))
    if kind == "gaussian_bump":
        return GaussianBumpField(float(obj["scale"]))
    if kind == "mini_net":
        if "seed" in obj:
            return make_mini_net_field(
                int(obj["n"]),
                int(obj.get("hidden", 16)),
                int(obj["seed"]),
                float(obj.get("init_std", 0.05)),
            )
        return MiniNetField(
            as_matrix(obj["w_in"]),
            as_vector(obj["bias"]),
            as_vector(obj["w_out"]),
        )
    raise DimensionError(f"unknown slope-field kind {kind!r}")


@dataclass(frozen=True)
class LimitLayer:
    """Reflection layer with smooth scalar coefficient fields.

    Evaluates ``q(x)*1 + (1 - m(x)) * B^T b + (x - 2 B^T relu(Bx + b))``.
    With constant m and q this is an exact member of the case-ii family;
    in general its Jacobian is the orthogonal reflection part plus the
    rank-two correction ``1 grad_q(x)^T - (B^T b) grad_m(x)^T``, so all
    singular values stay within max(2*Lip(m)*||b||, 2*sqrt(n)*Lip(q)) of 1.
    """

    B: np.ndarray
    b: np.ndarray
    m_field: SlopeField
    q_field: SlopeField
    strict: bool = True

    def __post_init__(self):
        n = self.B.shape[0]
        as_matrix(self.B, n, n)
        as_vector(self.b, n)
        if self.strict:
            _require_orthogonal(self.B, "B")

    @property
    def width(self) -> int:
        return self.B.shape[0]

    def _bias_pull(self) -> np.ndarray:
        return self.B.T @ self.b

    forward = _forward_one

    def forward_batch(self, X):
        Z = X @ self.B.T + self.b
        core = X - 2.0 * (np.maximum(Z, 0.0) @ self.B)
        mvals = self.m_field.eval_batch(X)
        qvals = self.q_field.eval_batch(X)
        return core + qvals[:, np.newaxis] + (1.0 - mvals)[:, np.newaxis] * self._bias_pull()

    def kink_distance(self, x) -> float:
        z = self.B @ x + self.b
        dist = float(np.min(np.abs(z)))
        dist = min(dist, self.m_field.kink_distance(x))
        return min(dist, self.q_field.kink_distance(x))

    def jacobian(self, x, margin: float = DEFAULT_MARGIN):
        _check_margin(self.kink_distance(x), margin)
        x = np.asarray(x, dtype=np.float64)
        z = self.B @ x + self.b
        slopes = (z >= 0.0).astype(np.float64)
        jac = -2.0 * ((self.B.T * slopes) @ self.B)
        jac[np.diag_indices_from(jac)] += 1.0
        grad_q = self.q_field.grad_batch(x[np.newaxis])[0]
        grad_m = self.m_field.grad_batch(x[np.newaxis])[0]
        jac += np.outer(np.ones(self.width), grad_q)
        jac -= np.outer(self._bias_pull(), grad_m)
        return jac

    vjp = _vjp_one

    def vjp_batch(self, X, V):
        Z = X @ self.B.T + self.b
        R = np.maximum(Z, 0.0)
        mask = (Z >= 0.0).astype(np.float64)
        W = mask * (-2.0 * (V @ self.B.T))
        bias_pull = self._bias_pull()
        mvals = self.m_field.eval_batch(X)
        v_sum = V.sum(axis=1)
        v_pull = V @ bias_pull
        dX = V + W @ self.B
        dX += v_sum[:, np.newaxis] * self.q_field.grad_batch(X)
        dX -= v_pull[:, np.newaxis] * self.m_field.grad_batch(X)
        one_minus_m = (1.0 - mvals)[:, np.newaxis] * V
        gB = -2.0 * (R.T @ V) + W.T @ X + np.outer(self.b, one_minus_m.sum(axis=0))
        gb = W.sum(axis=0) + (one_minus_m @ self.B.T).sum(axis=0)
        grads = {"B": gB, "b": gb}
        for name, g in self.m_field.param_grads_batch(X, -v_pull).items():
            grads[f"m.{name}"] = g
        for name, g in self.q_field.param_grads_batch(X, v_sum).items():
            grads[f"q.{name}"] = g
        return dX, grads

    def params(self) -> dict:
        out = {"B": self.B, "b": self.b}
        for name, arr in self.m_field.params().items():
            out[f"m.{name}"] = arr
        for name, arr in self.q_field.params().items():
            out[f"q.{name}"] = arr
        return out

    def isometry_epsilon(self) -> float:
        """Theoretical half-width of the singular-value interval around 1."""
        b_norm = float(np.sqrt(self.b @ self.b))
        return max(
            2.0 * self.m_field.lipschitz_bound() * b_norm,
            2.0 * np.sqrt(self.width) * self.q_field.lipschitz_bound(),
        )

    def to_json(self) -> dict:
        return {
            "type": "limit",
            "n": self.width,
            "B": self.B.tolist(),
            "b": self.b.tolist(),
            "m": self.m_field.to_json(),
            "q": self.q_field.to_json(),
            "strict": self.strict,
        }


Layer = Union[
    CaseILayer, CaseIILayer, GatedLayer, ComposedLayer, PartitionedLayer, LimitLayer
]


# ---------------------------------------------------------------------------
# constructors and serialization
# ---------------------------------------------------------------------------


def make_case_i(A, B, b, c, d, sigma, strict: bool = True) -> CaseILayer:
    B = as_matrix(B)
    return CaseILayer(
        as_matrix(A), B, as_vector(b, B.shape[0]), float(c), float(d), sigma, strict
    )


def make_case_ii(B, b, ell, c, d, sigma, strict: bool = True) -> CaseIILayer:
    B = as_matrix(B)
    return CaseIILayer(
        B, as_vector(b, B.shape[0]), float(ell), float(c), float(d), sigma, strict
    )


def make_gated(B, b, gate, sigma, strict: bool = True) -> GatedLayer:
    B = as_matrix(B)
    n = B.shape[0]
    return GatedLayer(B, as_vector(b, n), as_vector(gate, n), sigma, strict)


def make_composed(rotation, inner: Layer, strict: bool = True) -> ComposedLayer:
    return ComposedLayer(as_matrix(rotation), inner, strict)


def make_partitioned(
    A,
    B,
    b,
    hyperplanes,
    regions,
    default: RegionCoeffs | None = None,
    strict: bool = True,
) -> PartitionedLayer:
    A = as_matrix(A)
    B = as_matrix(B)
    if A is not B and np.array_equal(A, B):
        A = B
    planes = tuple(
        (as_vector(normal, B.shape[0]), float(offset)) for normal, offset in hyperplanes
    )
    region_map = {tuple(int(s) for s in key): co for key, co in regions.items()}
    return PartitionedLayer(
        A, B, as_vector(b, B.shape[0]), planes, region_map, default, strict
    )


def make_limit(
    B, b, m_field: SlopeField, q_field: SlopeField, strict: bool = True
) -> LimitLayer:
    B = as_matrix(B)
    return LimitLayer(B, as_vector(b, B.shape[0]), m_field, q_field, strict)


def _matrix_from_json(entry, n: int) -> np.ndarray:
    if isinstance(entry, dict) and "seed" in entry:
        from .linalg import random_orthogonal

        return random_orthogonal(n, int(entry["seed"]))
    return as_matrix(entry, n, n)


def layer_from_json(obj: dict) -> Layer:
    """Rebuild a layer from its JSON form (seeded or explicit weights)."""
    kind = obj.get("type")
    n = int(obj["n"])
    b = as_vector(obj.get("b", np.zeros(n)), n)
    strict = bool(obj.get("strict", True))
    if kind == "case_i":
        return make_case_i(
            _matrix_from_json(obj["A"], n),
            _matrix_from_json(obj["B"], n),
            b,
            obj.get("c", 0.0),
            obj["d"],
            PwlScalar.from_json(obj["sigma"]),
            strict,
        )
    if kind == "case_ii":
        return make_case_ii(
            _matrix_from_json(obj["B"], n),
            b,
            obj["ell"],
            obj.get("c", 0.0),
            obj["d"],
            PwlScalar.from_json(obj["sigma"]),
            strict,
        )
    if kind == "gated":
        return make_gated(
            _matrix_from_json(obj["B"], n),
            b,
            obj["gate"],
            PwlScalar.from_json(obj["sigma"]),
            strict,
        )
    if kind == "composed":
        return make_composed(
            _matrix_from_json(obj["rotation"], n), layer_from_json(obj["inner"]), strict
        )
    if kind == "partitioned":
        regions = {
            tuple(int(s) for s in entry["signs"]): RegionCoeffs.from_json(entry)
            for entry in obj["regions"]
        }
        default = RegionCoeffs.from_json(obj["default"]) if obj.get("default") else None
        return make_partitioned(
            _matrix_from_json(obj["A"], n),
            _matrix_from_json(obj["B"], n),
            b,
            [(h["normal"], h["offset"]) for h in obj.get("hyperplanes", [])],
            regions,
            default,
            strict,
        )
    if kind == "limit":
        return make_limit(
            _matrix_from_json(obj["B"], n),
            b,
            field_from_json(obj["m"]),
            field_from_json(obj["q"]),
            strict,
        )
    raise DimensionError(f"unknown layer type {kind!r}")
