"""Continuous piecewise-linear scalar functions.

A function is stored as its strictly increasing breakpoints, one slope per
piece (``len(breakpoints) + 1`` pieces), and the value at the first
breakpoint.  Values anywhere follow by integrating the slopes, so
continuity holds by construction.  Derivatives at breakpoints take the
right-hand slope, and NaN takes the rightmost slope (the piece
``searchsorted(..., side="right")`` gives it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSlopesError,
    InvalidAssignmentError,
    InvalidBreakpointsError,
)
from .linalg import as_vector, checked, checked_keys

SLOPE_TOL = 1e-12


@dataclass(frozen=True)
class PwlScalar:
    """Continuous piecewise-linear function of one variable.

    Parameters
    ----------
    breakpoints : tuple of float
        Strictly increasing kink locations, at least one.
    slopes : tuple of float
        One slope per piece, left to right; adjacent pieces must have
        different slopes so every breakpoint is a genuine kink.
    anchor_value : float
        Function value at ``breakpoints[0]``.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    anchor_value: float
    _bp_values: np.ndarray = field(init=False, repr=False, compare=False)
    _rectifier: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("breakpoints", "slopes", "anchor_value"):
            for v in np.ravel(np.asarray(getattr(self, name), dtype=object)):
                checked(v, f"an entry of {name}", "a number that fits a float")
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        sl = np.asarray(self.slopes, dtype=np.float64)
        if bp.ndim != 1 or bp.size < 1:
            raise InvalidBreakpointsError("need at least one breakpoint")
        if not np.all(np.isfinite(bp)):
            raise InvalidBreakpointsError("breakpoints must be finite")
        if bp.size > 1 and not np.all(np.diff(bp) > 0.0):
            raise InvalidBreakpointsError(
                f"breakpoints must be strictly increasing, got {bp.tolist()}"
            )
        if sl.size != bp.size + 1:
            raise InvalidAssignmentError(
                f"{bp.size} breakpoints need {bp.size + 1} slopes, got {sl.size}"
            )
        if not np.all(np.isfinite(sl)) or not np.isfinite(self.anchor_value):
            raise InvalidAssignmentError("slopes and anchor must be finite")
        if np.any(np.abs(np.diff(sl)) <= SLOPE_TOL):
            raise InvalidAssignmentError(
                "adjacent pieces must change slope at every breakpoint"
            )
        object.__setattr__(self, "breakpoints", tuple(float(v) for v in bp))
        object.__setattr__(self, "slopes", tuple(float(v) for v in sl))
        object.__setattr__(self, "anchor_value", float(self.anchor_value))
        # function values at the breakpoints, by integrating interior slopes
        vals = np.empty(bp.size)
        vals[0] = self.anchor_value
        if bp.size > 1:
            vals[1:] = self.anchor_value + np.cumsum(sl[1:-1] * np.diff(bp))
        object.__setattr__(self, "_bp_values", vals)
        # slopes (+0.0, 1.0), the zero's sign included: a (-0.0, 1.0) activation
        # compares equal but keeps np.where, which gives its -0.0
        object.__setattr__(self, "_rectifier", self.slopes == (0.0, 1.0)
                           and not np.signbit(self.slopes[0]))

    def _locate(self, x):
        """Every element of the array ``x``: its piece, its offset from the breakpoint
        the piece is measured from, and the value at that breakpoint.  With one
        breakpoint t the piece is a bool, True on the left piece (``x - t < 0`` exactly
        when ``x < t``: IEEE subtraction is 0 only for equal operands); else it is the
        smallest unsigned int that holds its index."""
        if len(self.breakpoints) == 1:
            offset = x - self.breakpoints[0]
            return offset < 0.0, offset, self.anchor_value
        p = np.searchsorted(np.asarray(self.breakpoints), x, side="right")
        p = p.astype(np.min_scalar_type(len(self.breakpoints)))
        base = np.maximum(p, 1) - 1
        return p, x - np.asarray(self.breakpoints)[base], self._bp_values[base]

    def slope(self, piece):
        """The slope of every piece ``_locate`` gives: ``deriv`` at its element.  A
        rectifier's is ``1 - piece``, one cast and subtraction with the bits of
        ``np.where(piece, 0.0, 1.0)``: 1 - 1 = +0.0 on the left piece, 1 - 0 = 1.0 on
        the right one, NaN included."""
        if self._rectifier:
            return np.subtract(1.0, piece)
        if len(self.breakpoints) == 1:
            return np.where(piece, *self.slopes)
        return np.asarray(self.slopes)[piece]

    def value_and_piece(self, x):
        """``value(x)`` of an array ``x``, and the piece of every element, from one
        lookup; ``slope`` of the piece is ``deriv(x)``."""
        p, out, base_value = self._locate(np.asarray(x, dtype=np.float64))
        # base value + slope * (x - base breakpoint), computed in place
        out *= self.slope(p)
        out += base_value
        return out, p

    def linearize(self, x):
        """``value(x)``, ``deriv(x)`` and ``distance_to_breakpoint(x)`` of an array ``x``
        from one lookup; with one breakpoint t the distance is ``|x - t|``, read off
        the lookup's offset before it becomes the value."""
        x = np.asarray(x, dtype=np.float64)
        p, out, base_value = self._locate(x)
        dist = np.abs(out) if len(self.breakpoints) == 1 else self.distance_to_breakpoint(x)
        slope = self.slope(p)
        out *= slope
        out += base_value
        return out, slope, dist

    def value(self, x):
        """Evaluate at a scalar or array ``x``."""
        out = self.value_and_piece(x)[0]
        return float(out) if out.ndim == 0 else out

    __call__ = value

    def deriv(self, x):
        """Right-hand derivative at a scalar or array ``x``."""
        out = self.slope(self._locate(np.asarray(x, dtype=np.float64))[0])
        return float(out) if out.ndim == 0 else out

    def distance_to_breakpoint(self, x):
        """Distance from ``x`` to the nearest breakpoint (scalar or array)."""
        x = np.asarray(x, dtype=np.float64)
        d = np.min(np.abs(x[..., np.newaxis] - np.asarray(self.breakpoints)), axis=-1)
        return float(d) if d.ndim == 0 else d

    def to_json(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "slopes": list(self.slopes),
            "anchor_value": self.anchor_value,
        }

    @staticmethod
    def from_json(obj: dict) -> "PwlScalar":
        checked_keys(obj, "an activation", (), ("breakpoints", "slopes", "anchor_value"))
        bp, slopes = (tuple(as_vector(obj.get(key))) for key in ("breakpoints", "slopes"))
        return PwlScalar(bp, slopes, checked(obj.get("anchor_value"), "anchor_value"))


def make_relu_k(nodes: Sequence[float]) -> PwlScalar:
    """Multi-node rectifier: slopes alternate 0, 1, 0, 1, ... left to right.

    With a single node at 0 this is ReLU; with nodes (-1, 1) it evaluates
    to HardTanh(x) + 1.
    """
    return make_two_slope(0.0, 1.0, nodes)


def make_sigma_k(nodes: Sequence[float]) -> PwlScalar:
    """Unit-slope zigzag: slopes alternate +1, -1, ... left to right.

    Equals ``x - 2 * make_relu_k(nodes)(x)``; with a single node at 0 it
    is ``-|x|``.
    """
    nodes = tuple(nodes)
    return PwlScalar(nodes, make_two_slope(1.0, -1.0, nodes).slopes, float(nodes[0]))


def make_two_slope(alpha: float, beta: float, nodes: Sequence[float]) -> PwlScalar:
    """Slopes alternating alpha, beta, ... from the left, with value 0 at
    the first node (e.g. LeakyReLU, |x|, HardTanh)."""
    if abs(alpha - beta) <= SLOPE_TOL:
        raise DegenerateSlopesError(
            f"slopes {alpha!r} and {beta!r} are not distinct"
        )
    nodes = tuple(nodes)
    slopes = tuple(alpha if i % 2 == 0 else beta for i in range(len(nodes) + 1))
    return PwlScalar(nodes, slopes, 0.0)


def slope_violation(
    f: PwlScalar, allowed: Sequence[float], tol: float = SLOPE_TOL
) -> float | None:
    """First slope of ``f`` not within ``tol`` of any allowed value, if any."""
    for s in f.slopes:
        if not any(abs(s - a) <= tol for a in allowed):
            return s
    return None
