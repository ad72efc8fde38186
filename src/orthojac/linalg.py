"""Dense float64 kernels, seeded orthogonal matrices, and a Jacobi SVD.

Matrices are row-major C-contiguous float64 ``numpy.ndarray`` objects and
vectors are 1-D float64 arrays.  The helpers here add the shape/finiteness
validation the rest of the package relies on.

``householder_qr`` factors one matrix or a stack by blocked Householder
reflections in compact WY form (Schreiber & Van Loan 1989).

``svd_values`` is a one-sided Jacobi SVD over one matrix or a stack of
them.  Each sweep tests all column pairs at once through a Gram product
and finishes the matrices that pass; the rest get one round-robin sweep
(Brent & Luk 1985) in which every round rotates disjoint column pairs of
the whole stack together.  Jacobi is kept over LAPACK-style QR iteration
for its accuracy on small singular values (Demmel & Veselic 1992).
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import ConvergenceError, DimensionError
from .rng import SplitMix64

JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60
# matrices of a stack rotated or measured together; bounds long stacks' temporaries
JACOBI_BLOCK = 16
# columns of a Householder panel: reflected one by one, then applied to the
# trailing columns and to Q as one block reflector
QR_BLOCK = 16


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; bools are not integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number, not NaN, infinite or beyond the
    float range; bools are not numbers here."""
    return RULES["a number that fits a float"](value) and math.isfinite(value)


# what a JSON value must be, each rule keyed by the words its message uses
RULES = {
    "a number": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    # NaN and the infinities fit; an integer beyond the float range does not
    "a number that fits a float": lambda v: RULES["a number"](v) and (
        isinstance(v, (float, np.floating)) or abs(v) <= sys.float_info.max),
    "finite": is_finite_number,
    "a finite number": is_finite_number,
    "a positive finite number": lambda v: is_finite_number(v) and v > 0,
    "a non-negative finite number": lambda v: is_finite_number(v) and v >= 0,
    "an integer": is_integer,
    "a positive integer": lambda v: is_integer(v) and v > 0,
    "a non-negative integer": lambda v: is_integer(v) and v >= 0,
    "a bool": lambda v: isinstance(v, bool),
    "a JSON object": lambda v: isinstance(v, dict),
    "a non-empty list": lambda v: isinstance(v, list) and len(v) > 0,
    "a list of integers": lambda v: isinstance(v, list) and all(map(is_integer, v)),
    "a list of JSON objects": lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
}


def checked(value, name: str, rule: str = "a finite number", error=DimensionError):
    """``value`` itself if it is what ``rule`` (a key of RULES) names, else ``error``
    naming ``name``, the rule and the value.  Nothing is coerced (``"0.1"`` and ``true``
    are not numbers), and a missing key, read as None, passes no rule."""
    if not RULES[rule](value):
        raise error(f"{name} must be {rule}, got {value!r}")
    return value


def _as_array(obj, shape: tuple, what: str) -> np.ndarray:
    """``obj``, a numeric array or nested lists of numbers, as a C-contiguous finite
    float64 array of ``shape`` (None: any size).  Strings, bools, null, objects, ragged
    lists and integers beyond the float range raise DimensionError, not NumPy's errors."""
    todo = [obj]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(item)
        elif not (RULES["a number"](item)
                  or isinstance(item, np.ndarray) and item.dtype.kind in "fiu"):
            raise DimensionError(f"expected a {what} of numbers, found {item!r}")
    try:
        a = np.ascontiguousarray(obj, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise DimensionError(f"expected a {what} of finite numbers: {exc}") from exc
    if a.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, a.shape)):
        raise DimensionError(f"expected a {what} of shape {shape}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError(f"{what} contains non-finite entries")
    return a


def as_matrix(obj, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and convert ``obj`` to a 2-D finite float64 array (see ``_as_array``)."""
    return _as_array(obj, (rows, cols), "matrix")


def as_vector(obj, size: int | None = None) -> np.ndarray:
    """Validate and convert ``obj`` to a 1-D finite float64 array (see ``_as_array``)."""
    return _as_array(obj, (size,), "vector")


def per_matrix(values_of, m: np.ndarray):
    """``values_of`` on one square matrix, giving a float, or on an ``(L, n, n)``
    stack, giving ``(L,)`` values, each the same as for the matrix alone.

    ``values_of`` maps a ``(B, n, n)`` block to its ``(B,)`` values; a stack goes
    through in blocks of ``JACOBI_BLOCK`` matrices, which bounds the temporaries.
    Raises DimensionError unless ``m`` is square."""
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack, got {m.shape}")
    stack = m[np.newaxis] if m.ndim == 2 else m
    values = np.empty(len(stack))
    for start in range(0, len(stack), JACOBI_BLOCK):
        values[start:start + JACOBI_BLOCK] = values_of(stack[start:start + JACOBI_BLOCK])
    return float(values[0]) if m.ndim == 2 else values


def _gram_defects(block: np.ndarray) -> np.ndarray:
    gram = block @ block.transpose(0, 2, 1)
    diag = np.arange(block.shape[1])
    gram[:, diag, diag] -= 1.0
    return np.sqrt(np.sum(np.square(gram, out=gram), axis=(1, 2)))


def frobenius_defect(m: np.ndarray):
    """Frobenius distance ``||M M^T - I||_F`` from orthogonality (see ``per_matrix``)."""
    return per_matrix(_gram_defects, m)


def _reflect_panel(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflect every panel ``p[b]`` (no more columns than rows) to upper-triangular form.

    ``p`` is overwritten; its entries below the diagonal are left at
    rounding level.  Column ``c`` gets the reflector ``H_c = I + tau u u^T``
    with ``u = x + sign(x_0) ||x|| e_0`` made from the column's entries on
    and below the diagonal (the sign avoids cancellation; sign(0) := +1)
    and ``tau = -2 / (u . u)``; a column whose squared norm is 0 keeps
    ``tau = 0``, so ``H_c = I``.  Returns the reflectors as the rows of
    ``vt`` (``(L, width, rows)``) and the upper-triangular ``t`` with
    ``H_0 H_1 ... H_{width-1} = I + vt^T t vt``.
    """
    count, rows, width = p.shape
    # rows :width hold the panel's columns and rows width: the reflectors, so
    # one product gives u against every later column and every earlier reflector
    work = np.zeros((count, 2 * width, rows))
    work[:, :width] = p.transpose(0, 2, 1)
    t = np.zeros((count, width, width))
    for c in range(width):
        x = work[:, c, c:]
        x0 = x[:, 0]
        norm = np.sqrt(np.add.reduce(x * x, axis=1))
        alpha = np.copysign(norm, x0 + 0.0)
        u = work[:, width + c, c:]
        u[...] = x
        u0 = x0 + alpha
        u[:, 0] = u0
        # u . u = 2 alpha u0
        half_uu = alpha * u0
        tau = np.divide(-1.0, half_uu, out=t[:, c, c], where=half_uu > 0.0)
        z = work[:, c:width + c, c:] @ (tau[:, np.newaxis] * u)[:, :, np.newaxis]
        # t[:c, c] = tau t[:c, :c] V[:, :c]^T u
        np.matmul(t[:, :c, :c], z[:, width - c:], out=t[:, :c, c, np.newaxis])
        work[:, c:width, c:] += z[:, :width - c] * u[:, np.newaxis, :]
    p[...] = work[:, :width].transpose(0, 2, 1)
    return work[:, width:], t


def householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization by blocked Householder reflections.

    ``a`` is one ``(m, n)`` matrix, giving ``(Q, R)`` with Q ``(m, m)``
    orthogonal and R ``(m, n)`` upper triangular (zero below the
    diagonal), or an ``(L, m, n)`` stack, giving ``(L, m, m)`` and
    ``(L, m, n)`` stacks.  Columns are reflected in panels of ``QR_BLOCK``:
    each panel column by column (``_reflect_panel``), then the trailing
    columns get the panel's block reflector ``I + V T^T V^T`` in three
    matrix products, and Q is accumulated backwards from the identity, one
    block reflector per panel.  Every step is elementwise, a reduction
    along one matrix's row, or a matrix product per matrix, so a matrix's
    Q and R are bitwise the same whether it is passed alone or in a stack
    of any make-up, and reruns are bitwise identical.
    """
    single = np.ndim(a) == 2
    r = np.array(as_matrix(a)[np.newaxis] if single else _as_array(a, (None,) * 3, "matrix stack"))
    count, m, n = r.shape
    q = np.broadcast_to(np.eye(m), (count, m, m)).copy()
    panels = []
    for j0 in range(0, min(m, n), QR_BLOCK):
        j1 = min(j0 + QR_BLOCK, m, n)
        vt, t = _reflect_panel(r[:, j0:, j0:j1])
        if j1 < n:
            trail = r[:, j0:, j1:]
            trail += vt.transpose(0, 2, 1) @ (t.transpose(0, 2, 1) @ (vt @ trail))
        panels.append((j0, vt, t))
    for j0, vt, t in reversed(panels):
        block = q[:, j0:, j0:]
        block += vt.transpose(0, 2, 1) @ (t @ (vt @ block))
    r = np.triu(r)
    return (q[0], r[0]) if single else (q, r)


def random_orthogonal_batch(n: int, seeds) -> np.ndarray:
    """Seeded random orthogonal matrices, one per seed: an ``(L, n, n)`` stack.

    Matrix ``i`` is unique per ``(n, seeds[i])`` and bitwise the same
    whatever else the batch holds, so ``random_orthogonal(n, k)`` is the
    same matrix.  A standard-Gaussian matrix is drawn from the SplitMix64
    stream for each seed (row-major fill), the stack is QR-factorized by
    Householder reflections, and the columns of each Q are sign-flipped so
    the diagonal of R is non-negative, which makes the factorization (and
    hence the result) unambiguous.
    """
    if n < 1:
        raise DimensionError(f"matrix size must be positive, got {n}")
    g = np.empty((len(seeds), n, n))
    for i, seed in enumerate(seeds):
        g[i] = SplitMix64(seed).gaussian_matrix(n, n)
    q, r = householder_qr(g)
    # sign(0) := +1
    signs = np.where(np.diagonal(r, axis1=1, axis2=2) >= 0.0, 1.0, -1.0)
    return q * signs[:, np.newaxis, :]


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Seeded random orthogonal matrix, unique per (n, seed): one row of
    ``random_orthogonal_batch``."""
    return random_orthogonal_batch(n, [seed])[0]


def _round_robin_step(n: int) -> np.ndarray:
    """Column permutation that moves a round-robin pairing on by one round.

    ``n`` is even and column ``i`` is paired with column ``n/2 + i``.
    Applying the permutation ``n - 1`` times pairs every column with every
    other exactly once (the circle method; Brent & Luk 1985).
    """
    half = n // 2

    def slot(player: int) -> int:
        # circle position -> column: the top row, then the bottom row reversed
        return player if player < half else half + n - 1 - player

    # one player stays put while the others move one seat round the circle
    step = np.empty(n, dtype=np.intp)
    step[slot(0)] = slot(0)
    step[slot(1)] = slot(n - 1)
    for player in range(2, n):
        step[slot(player)] = slot(player - 1)
    return step


def _worst_off_diagonal(w: np.ndarray) -> np.ndarray:
    """Per ``w[b]``, the largest ``|a_p . a_q| / (||a_p|| ||a_q||)`` over rows ``p != q``.

    Pairs with a zero row count as 0, as the rotation test passes them.
    """
    gram = w @ w.transpose(0, 2, 1)
    sq = np.diagonal(gram, axis1=1, axis2=2)
    inv = np.divide(1.0, np.sqrt(sq), out=np.zeros_like(sq), where=sq > 0.0)
    diag = np.arange(w.shape[1])
    gram[:, diag, diag] = 0.0
    gram *= inv[:, :, np.newaxis]
    gram *= inv[:, np.newaxis, :]
    return np.max(np.abs(gram, out=gram), axis=(1, 2))


def _sweep(w: np.ndarray, tol: float, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round-robin Jacobi sweep over the rows of every ``w[b]``.

    Each of the ``n - 1`` rounds rotates the disjoint row pairs ``(i, n/2 + i)``
    of the whole stack together; a pair that passes the test gets
    ``cs = 1, sn = 0`` and is left unchanged.  Returns the rotated stack
    and, per matrix, whether any pair was rotated.
    """
    half = w.shape[1] // 2
    rotated = np.zeros(len(w), dtype=bool)
    # zeta is inf or nan only on pairs that are not rotated
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(w.shape[1] - 1):
            p, q = w[:, :half], w[:, half:]
            app = np.einsum("bij,bij->bi", p, p)
            aqq = np.einsum("bij,bij->bi", q, q)
            apq = np.einsum("bij,bij->bi", p, q)
            rotate = np.abs(apq) > tol * np.sqrt(app * aqq)
            rotated |= rotate.any(axis=1)
            zeta = (aqq - app) / (2.0 * apq)
            t = np.copysign(1.0 / (np.abs(zeta) + np.hypot(1.0, zeta)), zeta)
            t = np.where(rotate, t, 0.0)
            cs = 1.0 / np.hypot(1.0, t)
            sn = (cs * t)[:, :, np.newaxis]
            cs = cs[:, :, np.newaxis]
            new_p = cs * p - sn * q
            w[:, half:] = sn * p + cs * q
            w[:, :half] = new_p
            w = w[:, step]
    return w, rotated


def _jacobi_block(w: np.ndarray, tol: float, max_sweeps: int, offset: int) -> np.ndarray:
    """Final row norms of every ``w[b]``, after its rows are made orthogonal.

    ``w`` has an even number of rows; it is overwritten.  ``offset`` is the
    stack index of ``w[0]``, used to name a matrix that does not converge.
    """
    norms = np.empty(w.shape[:2])
    live = np.arange(len(w))
    step = _round_robin_step(w.shape[1])

    def finish(done):
        nonlocal w, live
        rows = w[done]
        norms[live[done]] = np.sqrt(np.einsum("bij,bij->bi", rows, rows))
        w, live = w[~done], live[~done]

    for _ in range(max_sweeps):
        # a matrix whose every pair already passes needs no rotation at all
        finish(_worst_off_diagonal(w) <= tol)
        if not len(live):
            break
        w, rotated = _sweep(w, tol, step)
        finish(~rotated)
        if not len(live):
            break
    else:
        residual = _worst_off_diagonal(w)
        worst = int(np.argmax(residual))
        raise ConvergenceError(
            f"one-sided Jacobi SVD did not converge in {max_sweeps} sweeps",
            float(residual[worst]), index=int(offset + live[worst]),
        )
    return norms


def svd_values(
    m: np.ndarray,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> np.ndarray:
    """Singular values by one-sided Jacobi, sorted descending.

    ``m`` is one ``(rows, cols)`` matrix, giving a vector of
    ``min(rows, cols)`` values, or a ``(B, rows, cols)`` stack, giving a
    ``(B, min(rows, cols))`` array.  Each matrix's values are bitwise the
    same whether it is passed alone or in a stack.

    The columns of the taller orientation are rotated pairwise until every
    off-diagonal inner product satisfies
    ``|a_p . a_q| <= tol * ||a_p|| * ||a_q||``; singular values are the
    final column norms.  Each sweep first tests all pairs at once through
    one Gram product, and a matrix that passes is finished without
    rotating (an orthogonal matrix costs one small matmul).  Otherwise the
    sweep runs ``n - 1`` round-robin rounds (Brent & Luk 1985), each
    rotating ``n/2`` disjoint column pairs of the whole stack together; an
    odd ``n`` gets a zero column that no rotation touches.  A matrix stops
    when a sweep rotates nothing.  The stack is processed in blocks of
    ``JACOBI_BLOCK`` matrices.  Each matrix is scaled by the power of two
    that brings its largest entry into [0.5, 1), and its values are scaled
    back, so entries far outside the normal range (around 1e-160 or 1e200)
    lose no accuracy; the scaling is exact, so it changes no value of a
    matrix whose squared column norms were in range.  Raises
    ConvergenceError (carrying the matrix's stack index and its worst
    relative off-diagonal) if a matrix still rotates after ``max_sweeps``
    sweeps.
    """
    single = np.ndim(m) == 2
    a = as_matrix(m)[np.newaxis] if single else _as_array(m, (None,) * 3, "matrix stack")
    if a.shape[1] < a.shape[2]:
        a = a.transpose(0, 2, 1)
    count, rows, cols = a.shape
    values = np.empty((count, cols))
    if cols == 0:
        return values[0] if single else values
    pad = cols % 2
    for start in range(0, count, JACOBI_BLOCK):
        block = a[start:start + JACOBI_BLOCK]
        # an exact power of two brings each matrix's largest entry into
        # [0.5, 1), so squared column norms neither underflow nor overflow
        _, exp = np.frexp(np.max(np.abs(block), axis=(1, 2)))
        # the columns of each matrix become the rows of w, for contiguous dots
        w = np.zeros((len(block), cols + pad, rows))
        np.ldexp(block.transpose(0, 2, 1), -exp[:, np.newaxis, np.newaxis],
                 out=w[:, :cols])
        norms = _jacobi_block(w, tol, max_sweeps, start)
        # a pad column keeps norm 0, so after the descending sort it is last
        values[start:start + len(block)] = np.ldexp(
            np.sort(norms, axis=1)[:, ::-1][:, :cols], exp[:, np.newaxis])
    return values[0] if single else values
