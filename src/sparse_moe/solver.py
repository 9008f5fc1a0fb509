"""L1-ball-constrained weighted least squares.

The one optimization primitive the trainer needs: minimize a weighted
sum-of-squares residual over an L1 ball (optionally intersected with the
nonnegative orthant), with selected coordinates (the bias) exempt from the
constraint.  One call solves a batch of right-hand sides that share the
design; they form blocks, each with its own row weights and so its own
weighted Gram matrix.  The free coordinates are eliminated exactly (Schur
complement), a feasible unconstrained minimizer is returned as is, and
every other column runs accelerated projected gradient (FISTA) with a
monotone restart until its Frank-Wolfe duality gap certifies optimality.
No external QP dependency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError

MAX_ITERS = 10_000
# A column stops once its Frank-Wolfe gap, an upper bound on its distance
# to the optimal objective, is at most GAP_RTOL times its scale: the larger
# of its objective at the origin and at the warm start, plus its gap at the
# origin.  The last term grows with the radius, as does the rounding error
# of the gap, so a huge inactive radius still certifies.
GAP_RTOL = 1e-10
# Relative rounding error of a step's objective change, per coordinate.
_ROUNDING = 4.0 * np.finfo(float).eps


def _blocks(design, target, row_weights):
    """Design (m, p), targets (m, r), weights (m, g) and block width c of a
    WLS batch, checked: the r = g * c target columns form g consecutive
    blocks, and block i is weighted by weight column i.  ``(m,)`` weights
    are one block.  Weights must be finite and nonnegative."""
    a = np.atleast_2d(np.asarray(design, dtype=float))
    b = np.asarray(target, dtype=float)
    w = np.asarray(row_weights, dtype=float)
    m = a.shape[0]
    if w.ndim < 2:
        w = w.reshape(-1, 1)
    if b.ndim not in (1, 2) or w.ndim != 2 or len(b) != m or len(w) != m:
        raise ConfigError("design/target/weight shapes inconsistent")
    b = b.reshape(m, -1)
    c = b.shape[1] // max(w.shape[1], 1)
    if c * w.shape[1] != b.shape[1]:
        raise ConfigError("target columns do not form equal weight blocks")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ConfigError("row weights must be finite and nonnegative")
    return a, b, w, c


@dataclass
class WlsProblem:
    """Weighted least squares over an L1 ball, for one or more targets.

    minimize    sum_m  w_m * (a_m . z - b_m)^2
    subject to  ||z_restricted||_1 <= radius,  z_restricted >= 0 if flagged

    ``target`` is ``(m,)`` for one problem or ``(m, r)`` for r problems
    that share the design.  ``row_weights`` is ``(m,)``, shared by all
    problems, or ``(m, g)``: the r columns then form g equal consecutive
    blocks, and block i is weighted by column i.  Coordinates listed in
    ``free_coords`` bypass both constraints.
    """

    design: np.ndarray
    target: np.ndarray
    row_weights: np.ndarray
    radius: float
    free_coords: tuple[int, ...] = ()
    nonnegative: bool = False

    def __post_init__(self):
        self.design, _, weights, _ = _blocks(self.design, self.target, self.row_weights)
        self.target = np.asarray(self.target, dtype=float)
        self.row_weights = weights if np.ndim(self.row_weights) == 2 else weights[:, 0]
        if not self.radius > 0:
            raise ConfigError("radius must be positive")


@dataclass
class SolveReport:
    """Result of :func:`solve`.

    For a ``(m,)`` target, ``solution`` is ``(p,)`` and ``final_objective``,
    ``gap`` and ``converged`` are scalars; for a ``(m, r)`` target they are
    ``(r, p)`` and ``(r,)`` arrays, one entry per column.  ``iterations``
    is the number of accelerated steps run (0 when every column was
    certified without iterating).  ``gap`` is the Frank-Wolfe duality gap
    of the solution, which bounds its objective's excess over the optimum;
    ``converged`` is False for a column that reached ``MAX_ITERS`` without
    certifying.
    """

    solution: np.ndarray
    iterations: int
    final_objective: float | np.ndarray
    gap: float | np.ndarray
    converged: bool | np.ndarray
    objective_trace: list = field(default_factory=list)


def project_l1_ball(v, radius, nonnegative=False):
    """Euclidean projection of ``v`` onto {||z||_1 <= radius}.

    ``v`` is one vector or an ``(r, p)`` array whose rows are projected
    independently.  When ``nonnegative`` is set, v is first clamped to the
    nonnegative orthant, which makes the result the projection onto the
    intersection of ball and orthant.  Sort-based soft thresholding (Duchi
    et al. 2008): the threshold is the largest of (sum of the j largest
    magnitudes - radius) / j over j, and 0 for a point inside the ball.
    Exact up to float error.
    """
    if not radius > 0:
        raise ConfigError("radius must be positive")
    v = np.asarray(v, dtype=float)
    mag = np.maximum(v, 0.0) if nonnegative else np.abs(v)
    u = np.sort(mag, axis=-1)[..., ::-1]
    ranks = np.arange(1, v.shape[-1] + 1)
    theta = ((np.cumsum(u, axis=-1) - radius) / ranks).max(axis=-1, keepdims=True, initial=0.0)
    shrunk = np.maximum(mag - theta, 0.0)
    return shrunk if nonnegative else np.sign(v) * shrunk


def _grams(a, w):
    """The weighted Gram matrix A'diag(w_i)A of each weight column i, (g, p, p).

    Each is S'S for S the rows of a scaled by sqrt(w_i), in one reused
    buffer; NumPy computes S'S as a symmetric rank-k update (BLAS syrk),
    half the multiplications of a general product, and exactly symmetric.
    """
    gram = np.empty((w.shape[1], a.shape[1], a.shape[1]))
    s = np.empty_like(a)
    root = np.sqrt(w)
    for i in range(w.shape[1]):
        np.multiply(a, root[:, i, None], out=s)
        np.matmul(s.T, s, out=gram[i])
    return gram


def _stacked(op, fallback, *stacks):
    """op over stacks of matrices.  A singular matrix makes op fail for its
    whole stack; the stack is then split, down to single matrices that get
    fallback, so that one matrix never changes another's result."""
    try:
        return op(*stacks)
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return fallback(*stacks)
        parts = ([s[i:i + 1] for s in stacks] for i in range(len(stacks[0])))
        return np.concatenate([_stacked(op, fallback, *part) for part in parts])


def unconstrained_wls(design, target, row_weights, ridge=0.0):
    """Ridge-stabilized weighted least squares via the normal equations.

    Solves (A'WA + ridge*I) z = A'Wb with a dense factorization.  A
    ``(m,)`` target gives a ``(p,)`` solution; an ``(m, r)`` target gives
    the ``(r, p)`` solutions of its columns.  Weights are ``(m,)`` or
    ``(m, g)`` blocks as in :class:`WlsProblem`; the columns of a block
    share one factorization.
    """
    if ridge < 0:
        raise ConfigError("ridge must be nonnegative")
    a, b, w, c = _blocks(design, target, row_weights)
    p = a.shape[1]
    gram = _grams(a, w)
    rhs = np.empty((w.shape[1], p, c))
    for i in range(w.shape[1]):
        rhs[i] = a.T @ (b[:, i * c:(i + 1) * c] * w[:, i, None])
    try:
        z = np.linalg.solve(gram + ridge * np.eye(p), rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("normal equations numerically singular") from exc
    z = z.transpose(0, 2, 1).reshape(-1, p)
    return z if np.ndim(target) == 2 else z[0]


def enumerate_subsets(k, budget):
    """All subsets of {0..k-1} with 1 <= |S| <= budget, lexicographic within size."""
    if budget < 1 or budget > k:
        raise ConfigError(f"subset budget {budget} out of range for k={k}")
    if math.comb(k, budget) > 1_000_000:
        raise ConfigError(f"C({k},{budget}) exceeds the enumeration guard")
    for size in range(1, budget + 1):
        yield from itertools.combinations(range(k), size)


def _rowwise(x, mat):
    """x @ mat one row at a time, so that a row's result does not depend on
    the other rows (a BLAS matrix product may round it differently)."""
    return (x[:, None, :] @ mat)[:, 0]


def _fw_gap(half_grad, x_dot_half_grad, radius, nonnegative):
    """Frank-Wolfe duality gap of each row x, the largest g'(x - s) over
    feasible s for the gradient g, from h = g / 2 and the products x'h."""
    if nonnegative:
        worst = -half_grad.min(axis=1, initial=0.0)
    else:
        worst = np.abs(half_grad).max(axis=1, initial=0.0)
    return 2.0 * (x_dot_half_grad + radius * worst)


def solve(problem: WlsProblem, warm_start=None, collect_trace=False) -> SolveReport:
    """Certified solve of a WlsProblem, one or many right-hand sides.

    The free coordinates are minimized out in closed form, leaving a
    problem in the restricted coordinates x with Hessian 2S (S the Schur
    complement of the free block of A'WA) and linear term -2d.  Columns
    whose unconstrained minimizer S^-1 d is feasible and certified are
    returned with no iteration.  The rest start from the projected warm
    start (zero by default) and take FISTA steps of size 1/L, with
    L = 2 lambda_max(S) and momentum (c - 1) / (c + 2) after c accepted
    steps.  A momentum step that would raise a column's objective (by more
    than the rounding error of the change) is rejected and that column's
    momentum reset, so its next step is a plain projected gradient step,
    which cannot raise it; the objective is therefore non-increasing from
    the warm start, up to rounding.  Each column stops,
    and is frozen, once its Frank-Wolfe gap is within ``GAP_RTOL`` of its
    scale, or at ``MAX_ITERS``.  Each weight block has its own S, L and
    factorizations, and every column uses its block's.  Columns never mix,
    so a batched column matches its single solve bit for bit.
    """
    a, b, w, c = _blocks(problem.design, problem.target, problem.row_weights)
    single = problem.target.ndim == 1
    p, r = a.shape[1], b.shape[1]
    block = np.repeat(np.arange(w.shape[1]), c)  # weight block of each column
    radius, nonneg = problem.radius, problem.nonnegative

    gram = _grams(a, w)
    bt = np.ascontiguousarray(b.T)
    bw = bt * w.T[block]  # each column's target times its block's weights
    lin = _rowwise(bw, a)
    energy = (bw * bt).sum(axis=1)  # objective at the origin, per column
    free = sorted(set(problem.free_coords))
    kept = [j for j in range(p) if j not in free]
    g_kf = gram[:, kept][:, :, free]
    g_ff_inv = _stacked(np.linalg.inv, np.linalg.pinv, gram[:, free][:, :, free])
    coupling = g_kf @ g_ff_inv
    schur = gram[:, kept][:, :, kept] - coupling @ g_kf.transpose(0, 2, 1)
    # Each column takes its block's matrices.  Column subsets are taken
    # with take(), which keeps rows contiguous, so that row-wise arithmetic
    # rounds the same in a batch as alone.
    s_col, g_kf_col, inv_col = schur[block], g_kf[block], g_ff_inv[block]
    lin_f = lin.take(free, axis=1)
    d = lin.take(kept, axis=1) - _rowwise(lin_f, coupling[block].transpose(0, 2, 1))  # (r, pr)
    offset = energy - (_rowwise(lin_f, inv_col) * lin_f).sum(axis=1)

    warm = np.zeros((r, p)) if warm_start is None else np.reshape(warm_start, (r, p))

    def evaluate(x):
        """Objective, Frank-Wolfe gap and half gradient of each row of x."""
        half_grad = _rowwise(x, s_col) - d
        x_hg = (x * half_grad).sum(axis=1)
        obj = x_hg - (x * d).sum(axis=1) + offset
        return obj, _fw_gap(half_grad, x_hg, radius, nonneg), half_grad

    x = project_l1_ball(warm.take(kept, axis=1), radius, nonneg)
    obj, gap, half_grad = evaluate(x)
    tol = GAP_RTOL * (np.maximum(energy, obj) + _fw_gap(-d, 0.0, radius, nonneg))

    # Exact shortcut: a feasible unconstrained minimizer needs no
    # iterations.  A column whose S is singular keeps its start.
    x_u = _stacked(lambda s, v, _: np.linalg.solve(s, v), lambda s, v, x0: x0,
                   s_col, d[:, :, None], x[:, :, None])[:, :, 0]
    _, gap_u, half_grad_u = evaluate(x_u)
    ok = (np.abs(x_u).sum(axis=1) <= radius) & (gap_u <= tol)
    if nonneg:
        ok &= np.all(x_u >= 0.0, axis=1)
    x[ok], gap[ok], half_grad[ok] = x_u[ok], gap_u[ok], half_grad_u[ok]

    trace = [evaluate(x)[0]] if collect_trace else []
    cols = np.flatnonzero(gap > tol)
    iterations = 0
    if cols.size:
        lam = np.linalg.eigvalsh(schur).max(axis=1, initial=0.0)
        # A block with lam = 0 has an objective constant in x (zero design
        # or weights): any feasible point is optimal.
        cols = cols[lam[block[cols]] > 0.0]
        # A gradient step of size 1/L from y is y @ descent + d / lam.
        lam_w = lam[block[cols]]
        s_w = s_col[cols]
        descent = np.eye(len(kept)) - s_w / lam_w[:, None, None]
        rounding = _ROUNDING * len(kept)
        # Working copies of the columns still iterating.
        xw, hgw, tolw, dw = x[cols], half_grad[cols], tol[cols], d[cols]
        dw_step = dw / lam_w[:, None]
        xw_prev = xw
        accepted = np.zeros(cols.size, dtype=int)
    while cols.size and iterations < MAX_ITERS:
        iterations += 1
        # FISTA momentum after c accepted steps since the last (re)start.
        beta = (np.maximum(accepted - 1, 0) / (accepted + 2.0))[:, None]
        y = xw + beta * (xw - xw_prev)
        z = project_l1_ball(_rowwise(y, descent) + dw_step, radius, nonneg)
        hg_z = _rowwise(z, s_w) - dw
        # f(z) - f(x) = (z - x)'(Sz + Sx - 2d), without the cancellation of
        # subtracting two objective values.  Near a face of the ball, z - x
        # has a rounding-size part off the face that the large gradient
        # multiplies, so a rise below that size is not a rise.  A plain
        # step (beta == 0) is kept unconditionally: it cannot raise the
        # objective, and a test at rounding level would stall it.
        both = hg_z + hgw
        rise = ((z - xw) * both).sum(axis=1)
        keep = (accepted <= 1) | (rise <= 0.0)
        xw_prev = xw
        if keep.all():
            xw, hgw = z, hg_z
            accepted = accepted + 1
        else:
            size = np.abs(z).sum(axis=1) + np.abs(xw).sum(axis=1)
            keep |= rise <= rounding * size * np.abs(both).max(axis=1)
            xw = np.where(keep[:, None], z, xw)
            hgw = np.where(keep[:, None], hg_z, hgw)
            accepted = np.where(keep, accepted + 1, 0)
        done = _fw_gap(hgw, (xw * hgw).sum(axis=1), radius, nonneg) <= tolw
        any_done = done.any()
        if collect_trace or any_done or iterations == MAX_ITERS:
            x[cols] = xw
        if collect_trace:
            trace.append(evaluate(x)[0])
        if any_done:
            go = ~done
            cols, xw, xw_prev, hgw = cols[go], xw[go], xw_prev[go], hgw[go]
            accepted, tolw, dw, dw_step = accepted[go], tolw[go], dw[go], dw_step[go]
            s_w, descent = s_w[go], descent[go]

    obj, gap, _ = evaluate(x)
    solution = np.empty((r, p))
    solution[:, kept] = x
    solution[:, free] = _rowwise(lin_f - _rowwise(x, g_kf_col), inv_col)
    converged = gap <= tol
    if single:
        return SolveReport(
            solution[0], iterations, float(obj[0]), float(gap[0]), bool(converged[0]),
            [float(v[0]) for v in trace],
        )
    return SolveReport(solution, iterations, obj, gap, converged, trace)
