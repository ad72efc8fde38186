"""Dense float64 kernels, seeded orthogonal matrices, and a Jacobi SVD.

Matrices are row-major C-contiguous float64 ``numpy.ndarray`` objects and
vectors are 1-D float64 arrays.  The helpers here add the shape/finiteness
validation the rest of the package relies on.

``householder_qr`` factors one matrix or a stack by blocked Householder
reflections in compact WY form (Schreiber & Van Loan 1989).

``svd_values`` is a one-sided Jacobi SVD over one matrix or a stack of
them.  A Gram product tests all column pairs at once and finishes the
matrices that pass (every orthogonal one).  The rest run Jacobi on the R of
a column-pivoted QR (Drmac & Veselic 2008): each sweep tests R's rows the
same way and rotates the matrices that fail in one round-robin sweep (Brent
& Luk 1985), whose every round is one batched product over the block.
Jacobi is kept over LAPACK-style QR iteration for its accuracy on small
singular values (Demmel & Veselic 1992); a row of R below rounding level of
the matrix's norm is deflated to zero.

A stack goes through ``svd_values`` and ``per_matrix`` in blocks of as many
matrices as fit in ``JACOBI_BLOCK_ENTRIES`` entries: 16 of width 64, 64 of
width 32.  Each matrix's values are the same in a block of any make-up, so
the block size sets only the cost per NumPy call and the temporaries' size.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from .errors import ConvergenceError, DimensionError, check_shape
from .rng import SplitMix64

JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60
# entries of the matrices of a stack rotated or measured together (16 matrices
# of 64 x 64); bounds long stacks' temporaries, whatever the matrix size
JACOBI_BLOCK_ENTRIES = 16 * 64 * 64
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


def checked_keys(obj, context: str, required, optional=(), error=DimensionError) -> dict:
    """``obj`` itself if it is a JSON object with every ``required`` key and no key outside
    those and ``optional``, else ``error`` naming ``context`` and the unknown, else missing,
    keys."""
    checked(obj, context, "a JSON object", error)
    for what, keys in (("unknown", set(obj) - set(required) - set(optional)),
                       ("missing", set(required) - set(obj))):
        if keys:
            raise error(f"{context}: {what} keys {sorted(keys)}")
    return obj


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


def _blocks(stack: np.ndarray):
    """``(start, stack[start:start + size])`` for consecutive blocks of an ``(L, r, c)``
    stack, each holding as many matrices as fit in ``JACOBI_BLOCK_ENTRIES`` entries,
    and at least one."""
    size = max(1, JACOBI_BLOCK_ENTRIES // max(1, stack.shape[1] * stack.shape[2]))
    for start in range(0, len(stack), size):
        yield start, stack[start:start + size]


def per_matrix(values_of, m: np.ndarray):
    """``values_of`` on one square matrix, giving a float, or on an ``(L, n, n)``
    stack, giving ``(L,)`` values, each the same as for the matrix alone.

    ``values_of`` maps a ``(B, n, n)`` block to its ``(B,)`` values; a stack goes
    through in blocks of at most ``JACOBI_BLOCK_ENTRIES`` entries (and at least
    one matrix), which bounds the temporaries.  Raises DimensionError unless
    ``m`` is square."""
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack, got {m.shape}")
    stack = m[np.newaxis] if m.ndim == 2 else m
    values = np.empty(len(stack))
    for start, block in _blocks(stack):
        values[start:start + len(block)] = values_of(block)
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
    check_shape((len(seeds), n, n), f"{len(seeds)} orthogonal matrices of size {n}")
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
    # circle seat -> column: the top row, then the bottom row reversed; one player
    # stays put while the others move one seat round the circle
    seats = np.r_[:half, n - 1:half - 1:-1]
    step = np.empty(n, dtype=np.intp)
    step[seats] = seats[np.r_[0, n - 1, 1:n - 1]]
    return step


def _worst_off_diagonal(w: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Per ``w[b]``, the largest ``|a_p . a_q| / (||a_p|| ||a_q||)`` over rows ``p != q``.

    A row whose squared norm is at most ``floor[b]`` is set to zero in ``w``
    first (deflated).  Pairs with a zero row count as 0, as the rotation test
    passes them.
    """
    gram = w @ w.transpose(0, 2, 1)
    sq = np.diagonal(gram, axis1=1, axis2=2)
    keep = sq > floor[:, np.newaxis]
    w[~keep] = 0.0
    inv = np.divide(1.0, np.sqrt(sq), out=np.zeros_like(sq), where=keep)
    diag = np.arange(w.shape[1])
    gram[:, diag, diag] = 0.0
    gram *= inv[:, :, np.newaxis]
    gram *= inv[:, np.newaxis, :]
    return np.max(np.abs(gram, out=gram), axis=(1, 2))


def _pivoted_r(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R of a column-pivoted Householder QR of every matrix, and its column order.

    Row ``j`` of ``w[b]`` (``(L, n, m)``) is column ``j`` of an ``m x n``
    matrix ``A``; ``w`` is overwritten.  Returns R, ``(L, min(m, n), n)``
    upper triangular, and ``perm`` with ``A[:, perm] = Q R``; Q is not formed.
    Step ``j`` swaps in the column whose part on and below row ``j`` is longest
    (Businger & Golub 1965), its norm recomputed rather than downdated, so
    ``|R[j, j]|`` does not increase down the diagonal, and reflects it to
    ``R[j, j] e_0`` by ``I - tau v v^T`` with ``v_0 = 1`` (LAPACK's ``dlarfg``
    form: ``tau`` is in [1, 2] and ``|v| <= 1``); a zero column gets ``tau = 0``.
    Every step is per matrix, so a matrix's R is bitwise the same alone or in a
    stack.
    """
    count, n, m = w.shape
    perm = np.broadcast_to(np.arange(n), (count, n)).copy()
    each = np.arange(count)[:, np.newaxis]
    for j in range(min(m, n)):
        sq = np.einsum("bij,bij->bi", w[:, j:, j:], w[:, j:, j:])
        swap = np.stack([np.full(count, j), j + np.argmax(sq, axis=1)], axis=1)
        w[each, swap] = w[each, swap[:, ::-1]]
        perm[each, swap] = perm[each, swap[:, ::-1]]
        x = w[:, j, j:]
        beta = -np.copysign(np.sqrt(np.max(sq, axis=1, keepdims=True)), x[:, :1])
        v = np.divide(x, x[:, :1] - beta, out=np.zeros_like(x), where=beta != 0.0)
        v[:, 0] = 1.0
        tau = np.divide(beta - x[:, :1], beta, out=np.zeros_like(beta), where=beta != 0.0)
        rest = w[:, j + 1:, j:]
        rest -= (rest @ (tau * v)[:, :, np.newaxis]) * v[:, np.newaxis, :]
        x[:, 1:] = 0.0
        x[:, :1] = beta
    return w[:, :, :min(m, n)].transpose(0, 2, 1), perm


def _round_index(n: int) -> np.ndarray:
    """Flat positions of the ``cs, -sn, sn, cs`` entries of an ``n x n`` round matrix.

    Its rows are those of the rotation of pairs ``(i, n/2 + i)`` (``n`` even)
    in ``_round_robin_step``'s order, so one product rotates and moves on.
    """
    row = np.argsort(_round_robin_step(n))
    p, q = np.arange(n // 2), np.arange(n // 2, n)
    return np.concatenate([row[p] * n + p, row[p] * n + q, row[q] * n + p, row[q] * n + q])


def _sweep(w: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round-robin Jacobi sweep over the rows of every ``w[b]``.

    Each of the ``n - 1`` rounds rotates the disjoint row pairs ``(i, n/2 + i)``
    of the whole stack together, by one product with a round matrix filled at
    ``index`` (``_round_index(n)``); a pair that passes the test gets
    ``cs = 1, sn = 0`` and is left unchanged.  Returns the rotated stack
    and, per matrix, whether any pair was rotated.
    """
    count, n, _ = w.shape
    half = n // 2
    rotated = np.zeros(count, dtype=bool)
    rounds = np.zeros((count, n, n))
    for _ in range(n - 1):
        sq = np.einsum("bij,bij->bi", w, w)
        app, aqq = sq[:, :half], sq[:, half:]
        apq = np.einsum("bij,bij->bi", w[:, :half], w[:, half:])
        rotate = np.abs(apq) > JACOBI_TOL * np.sqrt(app * aqq)
        rotated |= rotate.any(axis=1)
        # t = sign(zeta) / (|zeta| + hypot(1, zeta)), zeta = diff / (2 apq), times 2|apq|
        # over 2|apq|, so nothing overflows; only rotating pairs (apq != 0) divide
        diff = aqq - app
        t = np.divide(2.0 * np.copysign(1.0, diff) * apq,
                      np.abs(diff) + np.hypot(diff, 2.0 * apq),
                      out=np.zeros_like(apq), where=rotate)
        cs = 1.0 / np.hypot(1.0, t)
        sn = cs * t
        rounds.reshape(count, n * n)[:, index] = np.concatenate([cs, -sn, sn, cs], axis=1)
        w = rounds @ w
    return w, rotated


def _jacobi_block(w: np.ndarray, offset: int) -> np.ndarray:
    """Unsorted singular values of every ``w[b]`` (``(B, n, m)``, ``m >= n``,
    overwritten), plus a 0 if ``n`` is odd: the row norms of ``w[b]`` if its
    rows pass the first Gram test, else those of its R (``_pivoted_r``, padded
    with a zero row) once rotated orthogonal.  ``offset`` is the stack index
    of ``w[0]``, used to name a matrix that does not converge.  Before each
    Gram test of R, a row whose squared norm is at most ``(m eps)^2
    ||R[b]||_F^2`` is rounding noise of a rank-deficient matrix and is set to
    zero: rows of noise can keep failing the relative rotation test.
    """
    count, n, m = w.shape
    norms = np.zeros((count, n + n % 2))
    live = np.flatnonzero(_worst_off_diagonal(w, np.zeros(count)) > JACOBI_TOL)
    norms[:, :n] = np.sqrt(np.einsum("bij,bij->bi", w, w))
    if not len(live):
        return norms
    r = np.zeros((len(live), n + n % 2, n))
    r[:, :n] = _pivoted_r(w[live])[0]
    index = _round_index(n + n % 2)
    floor = (m * np.finfo(np.float64).eps) ** 2 * np.einsum("bij,bij->b", r, r)

    def finish(done):
        nonlocal r, live, floor
        rows = r[done]
        norms[live[done]] = np.sqrt(np.einsum("bij,bij->bi", rows, rows))
        r, live, floor = r[~done], live[~done], floor[~done]

    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        # a matrix whose every pair already passes needs no rotation at all
        residual = _worst_off_diagonal(r, floor)
        finish(residual <= JACOBI_TOL)
        if not len(live):
            return norms
        if sweep == JACOBI_MAX_SWEEPS:
            residual = residual[residual > JACOBI_TOL]
            worst = int(np.argmax(residual))
            raise ConvergenceError(
                f"one-sided Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} sweeps",
                float(residual[worst]), index=int(offset + live[worst]),
            )
        r, rotated = _sweep(r, index)
        finish(~rotated)


def svd_values(m: np.ndarray) -> np.ndarray:
    """Singular values by one-sided Jacobi, sorted descending.

    ``m`` is one ``(rows, cols)`` matrix, giving a vector of
    ``min(rows, cols)`` values, or a ``(B, rows, cols)`` stack, giving a
    ``(B, min(rows, cols))`` array.  Each matrix's values are bitwise the
    same whether it is passed alone or in a stack.

    One Gram product first tests whether every pair of columns of the
    taller orientation satisfies ``|a_p . a_q| <= JACOBI_TOL * ||a_p|| * ||a_q||``;
    a matrix that passes (an orthogonal one, for one small matmul) has its
    exact column norms as values.  Each other matrix is replaced by the R of
    a column-pivoted Householder QR, whose rows are rotated pairwise to the
    same test (Drmac & Veselic 2008); its values are their final norms.  A
    sweep tests them through a Gram product, then runs ``n - 1`` round-robin
    rounds (Brent & Luk 1985), each one batched product that rotates ``n/2``
    disjoint row pairs of the block and moves the pairing on; an odd ``n``
    gets a zero row.  A matrix stops when its rows pass or a sweep rotates
    nothing.  Before each test of R, a row whose norm is at most
    ``max(rows, cols) * eps`` times the matrix's Frobenius norm is set to
    zero, so a rank-deficient matrix converges; its value is then 0.  The
    first test deflates nothing: an exact tiny value is kept.
    The stack is processed in blocks of as many matrices as fit in
    ``JACOBI_BLOCK_ENTRIES`` entries (and at least one), so a width-32 stack
    rotates up to 64 matrices in each NumPy call and a width-64 stack 16.
    Each matrix is scaled by the power of two that brings its largest entry
    into [0.5, 1), and its values are scaled back, so entries far outside
    the normal range (around 1e-160 or 1e200) lose no accuracy; the scaling
    is exact, so it changes no value of a matrix whose squared column norms
    were in range.  Raises ConvergenceError (carrying the matrix's stack
    index and its worst relative off-diagonal) if a matrix's rows still fail
    the test after ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    single = np.ndim(m) == 2
    a = as_matrix(m)[np.newaxis] if single else _as_array(m, (None,) * 3, "matrix stack")
    if a.shape[1] < a.shape[2]:
        a = a.transpose(0, 2, 1)
    count, rows, cols = a.shape
    values = np.empty((count, cols))
    if cols == 0:
        return values[0] if single else values
    for start, block in _blocks(a):
        # an exact power of two brings each matrix's largest entry into
        # [0.5, 1), so squared column norms neither underflow nor overflow
        _, exp = np.frexp(np.max(np.abs(block), axis=(1, 2)))
        # the columns of each matrix become the rows of w, for contiguous dots
        w = np.empty((len(block), cols, rows))
        np.ldexp(block.transpose(0, 2, 1), -exp[:, np.newaxis, np.newaxis], out=w)
        norms = _jacobi_block(w, start)
        # a pad value is 0, so after the descending sort it is last
        values[start:start + len(block)] = np.ldexp(
            np.sort(norms, axis=1)[:, ::-1][:, :cols], exp[:, np.newaxis])
    return values[0] if single else values
