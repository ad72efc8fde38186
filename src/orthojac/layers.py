"""Piecewise-linear layer families with orthogonal Jacobians.

Every layer maps R^n -> R^n and exposes the same surface:

* ``forward_batch(X)`` returns the outputs and ``kept``, what the backward
  pass reads of it (the rows' region coefficients, activations and activation
  pieces; a limit layer adds its m values and field states); ``forward(x)``
  is the output of one row,
* ``linearize_batch(X)`` returns the outputs ``(P, n)``, exact Jacobians
  ``(P, n, n)`` and kink distances ``(P,)`` of the rows of X from one pass
  (the distance to the nearest pre-activation node, gate plane or partition
  plane, in those coordinates); ``jacobian(x, margin)`` (away from kinks)
  and ``kink_distance(x)`` are its one-row forms,
* ``vjp_batch(X, V, kept)`` pulls a cotangent back through the layer from
  the ``kept`` of ``forward_batch(X)``, recomputing none of it, and returns
  the input gradient and the per-parameter gradients summed over the batch;
  ``vjp(x, v)`` is its one-row form, which runs the forward pass first,
* ``params()`` names the trainable arrays,
* ``to_json()`` round-trips the layer.

There are three layer classes: the region-affine ``PartitionedLayer``,
whose constructors build the case-i, case-ii, gated and partitioned
families, ``ComposedLayer`` and the smooth-coefficient ``LimitLayer``, a
case-ii reflection layer plus its coefficient fields; the last two are
built directly.  Each layer and field class converts and checks its own
arrays (or nested lists) and numbers.  Strict constructors enforce the
slope and weight conditions under which the Jacobian is exactly
orthogonal wherever it exists; ``strict=False`` skips those checks so
deliberately broken layers can be probed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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
    check_shape,
)
from .linalg import (as_matrix, as_vector, checked, checked_keys, frobenius_defect,
                     is_integer, random_orthogonal_batch)
from .pwl import SLOPE_TOL, PwlScalar, slope_violation
from .rng import SplitMix64, derive_seed

ORTHO_TOL = 1e-10
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


def _sign_key(above: np.ndarray) -> tuple[int, ...]:
    """Region key of one row of plane tests: +1 where True, -1 where False."""
    return tuple(1 if a else -1 for a in above.tolist())


def _by_row(parts, arrays):
    """Each row from the one of ``arrays`` (one per part of ``parts``) its activation gave."""
    out = arrays[0]
    for (_, rows), array in zip(parts[1:], arrays[1:]):
        out = np.where(rows, array, out)
    return out


def _forward_one(self, x):
    """``forward`` of every layer class: ``forward_batch``'s output of one sample."""
    return self.forward_batch(np.asarray(x)[np.newaxis])[0][0]


def _vjp_one(self, x, v):
    """``vjp`` of every layer class: ``forward_batch``, then ``vjp_batch``, on one sample."""
    X = np.asarray(x)[np.newaxis]
    dX, grads = self.vjp_batch(X, np.asarray(v)[np.newaxis], self.forward_batch(X)[1])
    return dX[0], grads


def _kink_distance_one(self, x) -> float:
    """``kink_distance`` of every layer class: ``linearize_batch``'s distance of one sample."""
    return float(self.linearize_batch(np.asarray(x, dtype=np.float64)[np.newaxis])[2][0])


def _jacobian_one(self, x, margin: float = DEFAULT_MARGIN):
    """``jacobian`` of every layer class: ``linearize_batch``'s Jacobian of one sample,
    raising NearKinkError within ``margin`` of a kink (a NaN distance passes)."""
    _, jac, dist = self.linearize_batch(np.asarray(x, dtype=np.float64)[np.newaxis])
    if dist[0] < margin:
        raise NearKinkError(float(dist[0]), margin)
    return jac[0]


def _spec_json(layer, kind: str) -> dict:
    """The spec of a composed or limit layer: ``type`` (``kind``), ``n``, then the layer's
    attribute of each of the type's SPEC_KEYS, arrays as nested lists, layers and fields as
    their specs, and ``strict`` as it is."""
    spec = {"type": kind, "n": layer.width}
    for key in SPEC_KEYS[kind]:
        value = getattr(layer, key)
        spec[key] = (value if key == "strict" else value.tolist()
                     if isinstance(value, np.ndarray) else value.to_json())
    return spec


# ---------------------------------------------------------------------------
# layer families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComposedLayer:
    """x -> O @ inner(x): a layer post-composed with a fixed rotation.

    The Jacobian O @ J_inner stays orthogonal exactly when O is; the
    rotation is frozen (not trainable).
    """

    rotation: np.ndarray
    inner: "Layer"
    strict: bool = True

    kind = "ComposedLayer"

    def __post_init__(self):
        checked(self.strict, "strict", "a bool")
        n = self.inner.width
        object.__setattr__(self, "rotation", as_matrix(self.rotation, n, n))
        if self.strict:
            _require_orthogonal(self.rotation, "rotation")

    @property
    def width(self) -> int:
        return self.inner.width

    forward = _forward_one
    jacobian = _jacobian_one
    kink_distance = _kink_distance_one

    def forward_batch(self, X):
        out, kept = self.inner.forward_batch(X)
        return out @ self.rotation.T, kept

    def linearize_batch(self, X):
        out, jac, dist = self.inner.linearize_batch(X)
        return out @ self.rotation.T, self.rotation @ jac, dist

    vjp = _vjp_one

    def vjp_batch(self, X, V, kept):
        return self.inner.vjp_batch(X, V @ self.rotation, kept)

    def params(self) -> dict:
        return self.inner.params()

    def to_json(self) -> dict:
        return _spec_json(self, "composed")


@dataclass(frozen=True)
class RegionCoeffs:
    """Affine-skip coefficients (finite numbers, kept as floats) and activation for one cell."""

    ell: float
    c: float
    d: float
    sigma: PwlScalar

    def __post_init__(self):
        for key in ("ell", "c", "d"):
            object.__setattr__(self, key, float(checked(getattr(self, key), key)))

    def to_json(self) -> dict:
        return {"ell": self.ell, "c": self.c, "d": self.d, "sigma": self.sigma.to_json()}

    @staticmethod
    def from_json(obj: dict, context: str = "the default region", keys=()) -> "RegionCoeffs":
        """A region from its JSON form: ``ell``, ``c``, ``d``, ``sigma`` and ``keys``."""
        checked_keys(obj, context, (), (*keys, "ell", "c", "d", "sigma"))
        return RegionCoeffs(obj.get("ell"), obj.get("c"), obj.get("d"),
                            PwlScalar.from_json(obj.get("sigma")))


# the report ``kind`` of each family: the class name it had before case-i,
# case-ii and gated layers became constructors of PartitionedLayer
_KINDS = {
    "case_i": "CaseILayer",
    "case_ii": "CaseIILayer",
    "gated": "GatedLayer",
    "partitioned": "PartitionedLayer",
}


@dataclass(frozen=True)
class PartitionedLayer:
    """Region-wise map: x -> ell_r x + c_r*1 + d_r A^T sigma_r(Bx + b).

    The one region-affine layer.  Cells are cut by signed hyperplanes
    (sign(0) = +1); each reachable sign vector needs coefficients (or a
    declared default).  A batched pass goes over a block once, straddling
    a plane or not, and evaluates each distinct activation once.  Strict
    mode requires A and B orthogonal, d != 0 and, per region, one rule:
    every slope s has |ell + d s| = 1, that is s in {(1 - ell)/d,
    -(1 + ell)/d}, and A = B (one shared array) where ell != 0, so every
    Jacobian ell*I + d A^T D B is orthogonal wherever it exists.
    A and B are shared when they are given as one object, and then train
    as one parameter.  The weights, bias and plane normals may be arrays
    or nested lists of numbers; every array, offset and region key is
    checked (DimensionError) and kept converted.

    The constructors build the families of the paper as members:

    * ``make_case_i``: x -> c*1 + d A^T sigma(Bx + b) with distinct A and
      B, no hyperplanes and one region (0, c, d, sigma);
    * ``make_case_ii``: x -> ell*x + c*1 + d B^T sigma(Bx + b), A is B,
      no hyperplanes and one region (ell, c, d, sigma);
    * ``make_gated``: x -> sign(gate.x) * (x - 2 B^T sigma(Bx + b)), A is
      B, one hyperplane (gate, 0), region (+1,) = (1, 0, -2, sigma) and
      region (-1,) = (-1, 0, 2, sigma);
    * ``make_partitioned``: any arrangement.

    ``family`` names the constructor that built the layer and picks the
    JSON form of ``to_json`` and the report ``kind``.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    hyperplanes: tuple[tuple[np.ndarray, float], ...]
    regions: dict
    default: RegionCoeffs | None = None
    strict: bool = True
    family: str = "partitioned"
    _lookup: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checked(self.strict, "strict", "a bool")
        B = as_matrix(self.B)
        if B.shape[0] != B.shape[1]:
            raise DimensionError(f"B must be a square matrix, got shape {B.shape}")
        n = len(B)
        # A and B given as one object are one array
        object.__setattr__(self, "A", B if self.A is self.B else as_matrix(self.A, n, n))
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", as_vector(self.b, n))
        planes = tuple((as_vector(normal, n), float(checked(offset, "offset")))
                       for normal, offset in self.hyperplanes)
        if any(not np.any(normal != 0.0) for normal, _ in planes):
            raise InvalidGateError("partition hyperplane normal must be nonzero")
        # each plane's normal is a row of one stack
        normals = np.array([normal for normal, _ in planes]).reshape(len(planes), n)
        object.__setattr__(self, "hyperplanes", tuple(
            (row, offset) for row, (_, offset) in zip(normals, planes)))
        regions = {}
        for key, coeffs in self.regions.items():
            if not (isinstance(key, tuple) and len(key) == len(planes)
                    and all(is_integer(s) and s in (-1, 1) for s in key)):
                raise DimensionError(
                    f"region key {key!r} does not match {len(planes)} hyperplanes")
            regions[tuple(map(int, key))] = coeffs
        object.__setattr__(self, "regions", regions)
        cells = [*regions.values(), self.default]
        coeff_list = [co for co in cells if co is not None]
        sigmas = tuple(dict.fromkeys(co.sigma for co in coeff_list))
        # how a block's rows find their regions: the plane normals and offsets, the region
        # keys as plane tests and, for each region and then the default (index -1), ell, c,
        # d and the index of its activation among the distinct ones
        object.__setattr__(self, "_lookup", (
            normals, np.array([offset for _, offset in planes]),
            np.array(list(regions), dtype=np.int64).reshape(len(regions), len(planes)) > 0,
            np.array([(co.ell, co.c, co.d) if co else (np.nan,) * 3 for co in cells]),
            sigmas, np.array([sigmas.index(co.sigma) if co else 0 for co in cells])))
        if self.strict:
            if not self.shared_weights:
                _require_orthogonal(self.A, "A")
            _require_orthogonal(self.B, "B")
            for coeffs in coeff_list:
                if coeffs.d == 0.0:
                    raise SlopeMismatchError("region needs d != 0", 0.0)
                if coeffs.ell != 0.0 and not self.shared_weights:
                    raise MixedCaseError(
                        "regions with a skip term (ell != 0) require A = B (one shared array)")
                # |ell + d s| = 1 for every slope s
                allowed = ((1.0 - coeffs.ell) / coeffs.d, -(1.0 + coeffs.ell) / coeffs.d)
                _require_slopes(coeffs.sigma, allowed, "partitioned layer region")

    @property
    def width(self) -> int:
        return self.B.shape[0]

    @property
    def shared_weights(self) -> bool:
        return self.A is self.B

    @property
    def kind(self) -> str:
        return _KINDS[self.family]

    def _planes(self, X):
        """Signed offset of every row of X from every hyperplane, ``(P, planes)``, or None."""
        if not self.hyperplanes:
            return None
        normals, offsets = self._lookup[:2]
        return X @ normals.T - offsets

    def sign_vector(self, x) -> tuple[int, ...]:
        if not self.hyperplanes:
            return ()
        return _sign_key(self._planes(np.asarray(x)[np.newaxis])[0] >= 0.0)

    def _coeffs(self, key: tuple[int, ...]) -> RegionCoeffs:
        coeffs = self.regions.get(key, self.default)
        if coeffs is None:
            raise MissingRegionError(key)
        return coeffs

    def _regions(self, planes, rows: int):
        """The regions of a block of ``rows`` rows with these ``_planes``: ``(ell, c, d,
        parts)``.  The coefficients are floats when every row lies in one cell, else
        ``(P, 1)`` columns; ``parts`` pairs each activation the rows use with its rows,
        a ``(P, 1)`` mask (True for all of them).  An empty block needs no region: any
        activation gives its zero-row arrays."""
        if not rows:
            return 0.0, 0.0, 0.0, [(_RELU, True)]
        above = None if planes is None else planes >= 0.0
        if above is None or (above == above[0]).all():
            co = self._coeffs(() if above is None else _sign_key(above[0]))
            return co.ell, co.c, co.d, [(co.sigma, True)]
        signs, table, sigmas, sigma_of = self._lookup[2:]
        # each row's region, -1 (the default) in a cell no region declares
        region = (above[:, np.newaxis] == signs).all(axis=2) @ np.arange(1, len(signs) + 1) - 1
        if self.default is None and (region < 0).any():
            # the first undeclared cell in sorted sign order
            self._coeffs(min(map(_sign_key, above[region < 0])))
        ell, c, d = table[region].T[..., np.newaxis]
        used = sigma_of[region]
        return ell, c, d, [(sigma, (used == i)[:, np.newaxis])
                           for i, sigma in enumerate(sigmas) if (used == i).any()]

    # the map on a block's rows X:  ell X + c + d sigma(X B^T + b) A, with each row's
    # region coefficients and activation

    forward = _forward_one
    jacobian = _jacobian_one
    kink_distance = _kink_distance_one

    def forward_batch(self, X):
        ell, c, d, parts = regions = self._regions(self._planes(X), len(X))
        Z = X @ self.B.T + self.b
        values = [sigma.value_and_piece(Z) for sigma, _ in parts]
        S = _by_row(parts, [value for value, _ in values])
        return ell * X + c + d * (S @ self.A), (regions, S, [piece for _, piece in values])

    def linearize_batch(self, X):
        planes = self._planes(X)
        ell, c, d, parts = self._regions(planes, len(X))
        Z = X @ self.B.T + self.b
        S, slope, dist = (_by_row(parts, arrays)
                          for arrays in zip(*(sigma.linearize(Z) for sigma, _ in parts)))
        out = ell * X + c + d * (S @ self.A)
        # A^T with its columns scaled by each row's slopes times d, then times B
        jac = np.einsum("ij,pj->pij", self.A.T, d * slope) @ self.B
        # ell on the diagonal, every n+1-th entry of a flattened n x n matrix, where it is
        # not 0: a row of ell 0 keeps its bits, signed zeros included, as in the vjp
        diag = jac.reshape(len(jac), self.width ** 2)[:, :: self.width + 1]
        np.add(diag, ell, out=diag, where=ell != 0.0)
        dist = np.min(dist, axis=1)
        if planes is None:
            return out, jac, dist
        return out, jac, np.minimum(dist, np.min(np.abs(planes), axis=1))

    vjp = _vjp_one

    def vjp_batch(self, X, V, kept):
        (ell, c, d, parts), S, pieces = kept
        slope = _by_row(parts, [sigma.slope(piece) for (sigma, _), piece in zip(parts, pieces)])
        dV = d * V
        W = slope * (dV @ self.A.T)
        dX = W @ self.B
        np.add(dX, ell * V, out=dX, where=ell != 0.0)
        gA, gB, gb = S.T @ dV, W.T @ X, W.sum(axis=0)
        if self.shared_weights:
            return dX, {"B": gA + gB, "b": gb}
        return dX, {"A": gA, "B": gB, "b": gb}

    def params(self) -> dict:
        if self.shared_weights:
            return {"B": self.B, "b": self.b}
        return {"A": self.A, "B": self.B, "b": self.b}

    def to_json(self) -> dict:
        """The spec of the family's constructor: ``type``, ``n``, then its SPEC_KEYS."""
        spec = {"type": self.family, "n": self.width, "A": self.A.tolist(),
                "B": self.B.tolist(), "b": self.b.tolist(), "strict": self.strict}
        if self.family == "partitioned":
            spec.update(hyperplanes=[{"normal": normal.tolist(), "offset": offset}
                                     for normal, offset in self.hyperplanes],
                        regions=[{"signs": list(key), **coeffs.to_json()}
                                 for key, coeffs in sorted(self.regions.items())],
                        default=self.default.to_json() if self.default else None)
        else:
            # the one region, or a gated layer's on the +1 side of its gate
            spec.update(self.regions[(1,) * len(self.hyperplanes)].to_json(),
                        gate=self.hyperplanes[0][0].tolist() if self.hyperplanes else None)
        return {key: spec[key] for key in ("type", "n", *SPEC_KEYS[self.family])}


# The family class names stay as aliases because the benchmark tracer
# (perfbench/tracer.py) looks every name in its LAYER_CLASSES up on this
# module; they can go when the benchmark stops reporting them.
CaseILayer = CaseIILayer = GatedLayer = PartitionedLayer


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


class _SmoothField:
    """The kink-free, parameter-free part of the constant and bump fields."""

    def __post_init__(self):
        # the field's one number, checked and kept as a float
        (key,) = (f.name for f in fields(self))
        object.__setattr__(self, key, float(checked(getattr(self, key), key)))

    def hidden_batch(self, X):
        return None

    def kink_distance_batch(self, X, H):
        return np.full(len(X), np.inf)

    def params(self) -> dict:
        return {}

    def param_grads_batch(self, X, coeff, H) -> dict:
        return {}


@dataclass(frozen=True)
class ConstantField(_SmoothField):
    """Scalar field m(x) = value."""

    value: float

    def eval_batch(self, X, H):
        return np.full(X.shape[0], self.value)

    def grad_batch(self, X, H):
        return np.zeros_like(X)

    def lipschitz_bound(self) -> float:
        return 0.0

    def to_json(self) -> dict:
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class GaussianBumpField(_SmoothField):
    """Scalar field m(x) = scale * exp(-||x||^2).

    The gradient norm 2*scale*r*exp(-r^2) peaks at r = 1/sqrt(2), giving
    the exact Lipschitz constant sqrt(2) * exp(-1/2) * |scale|.
    """

    scale: float

    def eval_batch(self, X, H):
        return self.scale * np.exp(-np.sum(X * X, axis=1))

    def grad_batch(self, X, H):
        return -2.0 * self.eval_batch(X, H)[:, np.newaxis] * X

    def lipschitz_bound(self) -> float:
        return np.sqrt(2.0) * np.exp(-0.5) * abs(self.scale)

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
        object.__setattr__(self, "w_in", as_matrix(self.w_in))
        for key in ("bias", "w_out"):
            object.__setattr__(self, key, as_vector(getattr(self, key), len(self.w_in)))

    def hidden_batch(self, X):
        """Pre-activations w_in x + bias of the rows of X; the batch methods take them as H."""
        return X @ self.w_in.T + self.bias

    def eval_batch(self, X, H):
        return np.maximum(H, 0.0) @ self.w_out

    def grad_batch(self, X, H):
        mask = (H >= 0.0).astype(np.float64)
        return (mask * self.w_out) @ self.w_in

    def lipschitz_bound(self) -> float:
        out_norm = float(np.sqrt(self.w_out @ self.w_out))
        return out_norm * _power_iteration_norm(self.w_in)

    def kink_distance_batch(self, X, H):
        return np.min(np.abs(H), axis=1)

    def params(self) -> dict:
        return {"w_in": self.w_in, "bias": self.bias, "w_out": self.w_out}

    def param_grads_batch(self, X, coeff, H) -> dict:
        """Gradients of sum_s coeff_s * m(x_s) w.r.t. the net weights."""
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
    n = checked(n, "n", "a positive integer")
    hidden = checked(hidden, "hidden", "a positive integer")
    seed = checked(seed, "seed", "an integer")
    init_std = float(checked(init_std, "init_std"))
    stream = SplitMix64(derive_seed(seed, 0x6D))
    w_in = init_std * stream.gaussian_matrix(hidden, n)
    bias = init_std * stream.gaussian(hidden)
    w_out = init_std * stream.gaussian(hidden)
    return MiniNetField(w_in, bias, w_out)


def field_from_json(obj: dict) -> SlopeField:
    kind = checked(obj, "a slope field", "a JSON object").get("kind")
    if kind == "constant":
        checked_keys(obj, "a constant field", ("kind",), ("value",))
        return ConstantField(obj.get("value"))
    if kind == "gaussian_bump":
        checked_keys(obj, "a gaussian_bump field", ("kind",), ("scale",))
        return GaussianBumpField(obj.get("scale"))
    if kind == "mini_net" and "seed" in obj:
        checked_keys(obj, "a seeded mini_net field", ("kind", "seed"), ("n", "hidden", "init_std"))
        return make_mini_net_field(obj.get("n"), **{key: obj[key] for key in
                                   ("hidden", "seed", "init_std") if key in obj})
    if kind == "mini_net":
        checked_keys(obj, "a mini_net field", ("kind",), ("w_in", "bias", "w_out"))
        return MiniNetField(obj.get("w_in"), obj.get("bias"), obj.get("w_out"))
    raise DimensionError(f"unknown slope-field kind {kind!r}")


_RELU = PwlScalar((0.0,), (0.0, 1.0), 0.0)


@dataclass(frozen=True)
class LimitLayer:
    """Reflection layer with smooth scalar coefficient fields.

    Evaluates ``q(x)*1 + (1 - m(x)) * B^T b + (x - 2 B^T relu(Bx + b))``.
    The reflection part ``x - 2 B^T relu(Bx + b)`` is ``reflection``, the
    case-ii layer (ell 1, c 0, d -2, relu) that reads and checks B, b and
    ``strict``; its B and b are this layer's.  With constant m and q the
    layer is an exact member of the case-ii family; in general its Jacobian
    is the reflection's plus the rank-two correction
    ``1 grad_q(x)^T - (B^T b) grad_m(x)^T``, so all singular values stay
    within max(2*Lip(m)*||b||, 2*sqrt(n)*Lip(q)) of 1.
    """

    B: np.ndarray
    b: np.ndarray
    m: SlopeField
    q: SlopeField
    strict: bool = True
    reflection: PartitionedLayer = field(init=False, repr=False, compare=False)

    kind = "LimitLayer"

    def __post_init__(self):
        reflection = make_case_ii(self.B, self.b, 1.0, 0.0, -2.0, _RELU, self.strict)
        object.__setattr__(self, "reflection", reflection)
        object.__setattr__(self, "B", reflection.B)
        object.__setattr__(self, "b", reflection.b)
        for f in (self.m, self.q):
            if isinstance(f, MiniNetField) and f.w_in.shape[1] != self.width:
                raise DimensionError(f"a mini-net field's w_in must be of shape"
                                     f" (None, {self.width}), got shape {f.w_in.shape}")

    @property
    def width(self) -> int:
        return self.B.shape[0]

    def _bias_pull(self) -> np.ndarray:
        return self.B.T @ self.b

    def with_fields(self, core, X):
        """``core``, the reflection's output rows, plus the field terms of m and q at the rows
        of X; also m and q there and the fields' states ``(H_m, H_q)`` they came from."""
        H = self.m.hidden_batch(X), self.q.hidden_batch(X)
        m_vals, q_vals = self.m.eval_batch(X, H[0]), self.q.eval_batch(X, H[1])
        out = core + q_vals[:, np.newaxis] + (1.0 - m_vals)[:, np.newaxis] * self._bias_pull()
        return out, m_vals, q_vals, H

    forward = _forward_one
    jacobian = _jacobian_one
    kink_distance = _kink_distance_one

    def forward_batch(self, X):
        core, kept = self.reflection.forward_batch(X)
        out, m_vals, _, H = self.with_fields(core, X)
        return out, (kept, m_vals, H)

    def linearize_batch(self, X):
        # the reflection's, then the field terms, the rank-two correction
        # 1 grad_q^T - (B^T b) grad_m^T and the field kinks
        out, jac, dist = self.reflection.linearize_batch(X)
        out, _, _, (H_m, H_q) = self.with_fields(out, X)
        jac += self.q.grad_batch(X, H_q)[:, np.newaxis, :]
        jac -= self._bias_pull()[:, np.newaxis] * self.m.grad_batch(X, H_m)[:, np.newaxis, :]
        dist = np.minimum(dist, self.m.kink_distance_batch(X, H_m))
        return out, jac, np.minimum(dist, self.q.kink_distance_batch(X, H_q))

    vjp = _vjp_one

    def vjp_batch(self, X, V, kept):
        core_kept, m_vals, (H_m, H_q) = kept
        dX, grads = self.reflection.vjp_batch(X, V, core_kept)
        bias_pull = self._bias_pull()
        v_sum = V.sum(axis=1)
        v_pull = V @ bias_pull
        dX += v_sum[:, np.newaxis] * self.q.grad_batch(X, H_q)
        dX -= v_pull[:, np.newaxis] * self.m.grad_batch(X, H_m)
        one_minus_m = (1.0 - m_vals)[:, np.newaxis] * V
        grads["B"] += np.outer(self.b, one_minus_m.sum(axis=0))
        grads["b"] += (one_minus_m @ self.B.T).sum(axis=0)
        for name, g in self.m.param_grads_batch(X, -v_pull, H_m).items():
            grads[f"m.{name}"] = g
        for name, g in self.q.param_grads_batch(X, v_sum, H_q).items():
            grads[f"q.{name}"] = g
        return dX, grads

    def params(self) -> dict:
        out = {"B": self.B, "b": self.b}
        for name, arr in self.m.params().items():
            out[f"m.{name}"] = arr
        for name, arr in self.q.params().items():
            out[f"q.{name}"] = arr
        return out

    def isometry_epsilon(self) -> float:
        """Theoretical half-width of the singular-value interval around 1."""
        b_norm = float(np.sqrt(self.b @ self.b))
        return max(
            2.0 * self.m.lipschitz_bound() * b_norm,
            2.0 * np.sqrt(self.width) * self.q.lipschitz_bound(),
        )

    def to_json(self) -> dict:
        return _spec_json(self, "limit")


Layer = Union[ComposedLayer, PartitionedLayer, LimitLayer]


# ---------------------------------------------------------------------------
# constructors and serialization
# ---------------------------------------------------------------------------


def make_case_i(A, B, b, c, d, sigma, strict: bool = True) -> PartitionedLayer:
    if A is B:
        # a case-i layer trains A and B as two parameters; read before the copy
        A = as_matrix(A).copy()
    return PartitionedLayer(A, B, b, (), {(): RegionCoeffs(0.0, c, d, sigma)}, None, strict,
                            "case_i")


def make_case_ii(B, b, ell, c, d, sigma, strict: bool = True) -> PartitionedLayer:
    return PartitionedLayer(B, B, b, (), {(): RegionCoeffs(ell, c, d, sigma)}, None, strict,
                            "case_ii")


def make_gated(B, b, gate, sigma, strict: bool = True) -> PartitionedLayer:
    regions = {(1,): RegionCoeffs(1.0, 0.0, -2.0, sigma),
               (-1,): RegionCoeffs(-1.0, 0.0, 2.0, sigma)}
    return PartitionedLayer(B, B, b, ((gate, 0.0),), regions, None, strict, "gated")


def make_partitioned(A, B, b, hyperplanes, regions, default: RegionCoeffs | None = None,
                     strict: bool = True) -> PartitionedLayer:
    # equal weights are one array, which trains as one parameter
    if A is not B and np.array_equal(A, B):
        A = B
    return PartitionedLayer(A, B, b, hyperplanes, regions, default, strict)


# the keys a spec of each layer type may hold after "type" and "n": its constructor's
# parameter names, in their order, which is the order to_json writes them in
SPEC_KEYS = {
    "case_i": ("A", "B", "b", "c", "d", "sigma", "strict"),
    "case_ii": ("B", "b", "ell", "c", "d", "sigma", "strict"),
    "gated": ("B", "b", "gate", "sigma", "strict"),
    "composed": ("rotation", "inner", "strict"),
    "partitioned": ("A", "B", "b", "hyperplanes", "regions", "default", "strict"),
    "limit": ("B", "b", "m", "q", "strict"),
}


def _spec_seeds(obj: dict) -> list:
    """The distinct seeds of one spec's seeded weights (``inner`` aside); checks its type
    and keys, and that each of its weights given as an object is ``{"seed": k}``."""
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in SPEC_KEYS:
        raise DimensionError(f"unknown layer type {kind!r}")
    checked_keys(obj, f"a {kind} spec", ("type", "n"), SPEC_KEYS[kind])
    seeds = {}
    for key in ("A", "B", "rotation"):  # the key check left those of its type
        if isinstance(obj.get(key), dict):
            seed = checked_keys(obj[key], f"the {key} weight", ("seed",))["seed"]
            seeds[checked(seed, f"{key}.seed", "an integer")] = None
    return list(seeds)


def layers_from_json(specs: list) -> list:
    """Rebuild layers from their JSON forms (seeded or explicit weights).

    A weight given as ``{"seed": k}`` is ``random_orthogonal(n, k)``.  The
    seeded weights of every spec, nested ``inner`` specs included, are
    factored with one ``random_orthogonal_batch`` call per width.  Each
    distinct seed of one spec is one array, so a partitioned spec with one
    seed for A and B gets one shared array; no array is shared between two
    specs, a composed spec and its ``inner`` spec included.  A bad spec
    raises DimensionError; no value is coerced (``linalg.checked``).
    """
    nodes = []
    for spec in specs:
        nodes.append(spec)
        while checked(nodes[-1], "a layer spec", "a JSON object").get("type") == "composed":
            nodes.append(nodes[-1].get("inner"))
    wanted = [(checked(node.get("n"), "n", "a positive integer"), _spec_seeds(node))
              for node in nodes]
    for n, _ in wanted:
        # every layer has an n x n weight
        check_shape((n, n), f"a layer spec of n = {n}")
    by_width: dict[int, list] = {}
    for n, seeds in wanted:
        by_width.setdefault(n, []).extend(seeds)
    stacks = {n: iter(random_orthogonal_batch(n, seeds))
              for n, seeds in by_width.items() if seeds}
    tables = iter([{seed: next(stacks[n]) for seed in seeds} for n, seeds in wanted])
    return [_layer_from_spec(spec, tables) for spec in specs]


def layer_from_json(obj: dict) -> Layer:
    """Rebuild one layer from its JSON form: ``layers_from_json([obj])[0]``."""
    return layers_from_json([obj])[0]


def _layer_from_spec(obj: dict, tables) -> Layer:
    """Build one spec (``layers_from_json`` checked its type and ``n``); ``tables``
    yields each spec's seeded weights, outer spec first.  The layer classes check
    the spec's values, and the built layer's width must be the spec's ``n``."""
    seeded = next(tables)
    kind, n = obj["type"], obj["n"]
    b = obj.get("b", np.zeros(n))
    strict = obj.get("strict", True)

    def matrix(key: str):
        entry = obj.get(key)
        return seeded[entry["seed"]] if isinstance(entry, dict) else entry

    if kind == "case_i":
        layer = make_case_i(matrix("A"), matrix("B"), b, obj.get("c", 0.0), obj.get("d"),
                            PwlScalar.from_json(obj.get("sigma")), strict)
    elif kind == "case_ii":
        layer = make_case_ii(matrix("B"), b, obj.get("ell"), obj.get("c", 0.0), obj.get("d"),
                             PwlScalar.from_json(obj.get("sigma")), strict)
    elif kind == "gated":
        layer = make_gated(matrix("B"), b, obj.get("gate"), PwlScalar.from_json(obj.get("sigma")),
                           strict)
    elif kind == "composed":
        layer = ComposedLayer(matrix("rotation"), _layer_from_spec(obj["inner"], tables), strict)
    elif kind == "partitioned":
        regions = {}
        for entry in checked(obj.get("regions"), "regions", "a list of JSON objects"):
            signs = tuple(checked(entry.get("signs"), "signs", "a list of integers"))
            if signs in regions:
                raise DimensionError(f"two regions have the signs {list(signs)}")
            regions[signs] = RegionCoeffs.from_json(entry, "a region", ("signs",))
        default = None if obj.get("default") is None else RegionCoeffs.from_json(obj["default"])
        planes = [(h.get("normal"), h.get("offset")) for h in (
            checked_keys(entry, "a hyperplane", (), ("normal", "offset")) for entry in
            checked(obj.get("hyperplanes", []), "hyperplanes", "a list of JSON objects"))]
        layer = make_partitioned(matrix("A"), matrix("B"), b, planes, regions, default, strict)
    else:
        layer = LimitLayer(matrix("B"), b, field_from_json(obj.get("m")),
                           field_from_json(obj.get("q")), strict)
    if layer.width != n:
        raise DimensionError(f"a layer spec of n = {n} has weights of width {layer.width}")
    return layer
