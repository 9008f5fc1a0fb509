"""L1-ball-constrained weighted least squares.

The one optimization primitive the trainer needs: minimize a weighted
sum-of-squares residual over an L1 ball (optionally intersected with the
nonnegative orthant), with the last design column (the bias) optionally
exempt from the constraint.  One call solves a batch of right-hand sides
that share the design; they form blocks, each with its own row weights and
so its own weighted Gram matrix.  The bias is eliminated exactly (Schur
complement of its 1x1 block), and a feasible unconstrained minimizer is
returned as is.
Every other column runs the primal active-set method of Osborne,
Presnell & Turlach (2000): exact linear solves on a support with signs,
on the face of the ball or inside it, that drop and add one coordinate at
a time until the column's Frank-Wolfe duality gap certifies optimality.
The set-up starts from the weighted Gram matrices, one per block
(:func:`grams`), which a caller can build once and hand in.  No external
QP dependency.

Two layers.  The checked boundary is where a library caller comes in:
building a :class:`WlsProblem` checks its arrays, and
:func:`unconstrained_wls` checks its own.  Under it is the engine, which
checks nothing of what the boundary checked: :func:`solve`, on a checked
:class:`WlsProblem` or on a :class:`WlsArrays` whose arrays its caller
built and checked, and :func:`ridge_wls`.  A fit checks its fixed arrays
once and hands every M-step to the engine.

Of a subspace-sweep call's time (m=600, p=11, 12 columns in 5 blocks;
the 500 calls of ten sweep jobs, replayed on a 2-vCPU x86-64 host with
one BLAS thread), the set-up takes 25-26%, the shortcut 15%, the
rounds' entry 14-15% (389 of the calls enter the rounds), the rounds 40%
and the solution's assembly 4%.  Most of it is NumPy's per-call
overhead: LAPACK's solves are 15-16%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SolverError

MAX_ITERS = 10_000
# A column stops once its Frank-Wolfe gap, an upper bound on its distance
# to the optimal objective, is at most GAP_RTOL times its scale: its
# objective at the origin plus its gap there.  The gap grows with the
# radius, as does its rounding error, so a huge inactive radius still
# certifies.
GAP_RTOL = 1e-10


def _blocks(design, target, row_weights, blocks=None):
    """Design (m, p), targets (m, r), weights (m, g) and the weight block of
    each target column, (r,), of a WLS batch, checked.  Column j is weighted
    by weight column ``blocks[j]``; without an index the r target columns
    form g equal consecutive blocks.  ``(m,)`` weights are one block.
    The design and targets must be finite, the weights finite and
    nonnegative."""
    a = np.atleast_2d(np.asarray(design, dtype=float))
    b = np.asarray(target, dtype=float)
    w = np.asarray(row_weights, dtype=float)
    w = w.reshape(-1, 1) if w.ndim < 2 else w
    m = a.shape[0]
    if b.ndim not in (1, 2) or w.ndim != 2 or len(b) != m or len(w) != m:
        raise ConfigError("design/target/weight shapes inconsistent")
    # A NaN weight makes both bounds fail.
    if not (w.min(initial=0.0) >= 0.0 and w.max(initial=0.0) < np.inf):
        raise ConfigError("row weights must be finite and nonnegative")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ConfigError("design and targets must be finite")
    b = b.reshape(m, -1)
    g, r = w.shape[1], b.shape[1]
    if blocks is None:
        c = r // max(g, 1)
        if c * g != r:
            raise ConfigError("target columns do not form equal weight blocks")
        return a, b, w, np.repeat(np.arange(g), c)
    index = np.asarray(blocks)
    if (index.shape != (r,) or index.dtype.kind not in "iu"
            or r and not 0 <= index.min() <= index.max() < g):
        raise ConfigError("the block index must name a weight block for each target column")
    return a, b, w, index


@dataclass(frozen=True)
class WlsProblem:
    """Weighted least squares over an L1 ball, for one or more targets.

    minimize    sum_m  w_m * (a_m . z - b_m)^2
    subject to  ||z_restricted||_1 <= radius,  z_restricted >= 0 if flagged

    ``target`` is ``(m,)`` for one problem or ``(m, r)`` for r problems
    that share the design.  ``row_weights`` is ``(m,)``, shared by all
    problems, or ``(m, g)``: g weight blocks, block i weighted by column i.
    ``blocks`` gives the block of each target column, ``(r,)`` integers in
    [0, g); without it the r columns form g equal consecutive blocks.
    ``radius`` is one finite positive radius for every problem or ``(r,)``,
    one per column.  If ``bias`` (a bool), the last design column is free
    of both constraints.  A problem is checked once, here, and frozen,
    holding ``(m, g)`` weights and ``(r,)`` blocks and radii for
    :func:`solve`.  It holds the caller's arrays, not copies (a float array
    is kept as it is), so they must not change after it is built: the
    check would not see the change.
    """

    design: np.ndarray
    target: np.ndarray
    row_weights: np.ndarray
    radius: float | np.ndarray
    bias: bool = False
    nonnegative: bool = False
    blocks: np.ndarray | None = None

    def __post_init__(self):
        if type(self.bias) is not bool:
            raise ConfigError("bias must be a bool")
        a, _, w, index = _blocks(self.design, self.target, self.row_weights, self.blocks)
        if self.bias and not a.shape[1]:
            raise ConfigError("a free bias needs a design column")
        radius = np.asarray(self.radius, dtype=float)
        radius = np.full(len(index), radius) if radius.ndim == 0 else radius
        if radius.shape != index.shape or not ((radius > 0) & (radius < np.inf)).all():
            raise ConfigError("radius must be finite and positive: one, or one per target column")
        checked = {"design": a, "target": np.asarray(self.target, dtype=float),
                   "row_weights": w, "radius": radius, "blocks": index}
        for name, value in checked.items():
            object.__setattr__(self, name, value)


class WlsArrays(NamedTuple):
    """A batch for the engine, :func:`solve`, with the fields of a checked
    :class:`WlsProblem`, from a caller that built and checked the arrays
    itself: nothing checks them again.  The caller must ensure what
    :class:`WlsProblem` would check: a finite ``(m, p)`` float design that
    does not change while the batch is in use (read-only, say), with a
    column for a free ``bias``; finite float targets ``(m, r)``; finite
    nonnegative float weights ``(m, g)``; ``(r,)`` integer blocks in
    [0, g); and ``(r,)`` finite positive float radii.  ``bias`` and
    ``nonnegative`` are bools.  A fit checks its fixed arrays once and
    builds the others in a form that meets the rest.
    """

    design: np.ndarray
    target: np.ndarray
    row_weights: np.ndarray
    radius: np.ndarray
    bias: bool
    nonnegative: bool
    blocks: np.ndarray


@dataclass
class SolveReport:
    """Result of :func:`solve`.

    For a ``(m,)`` target, ``solution`` is ``(p,)`` and ``final_objective``,
    ``gap`` and ``converged`` are scalars; for a ``(m, r)`` target they are
    ``(r, p)`` and ``(r,)`` arrays, one entry per column.  ``iterations``
    counts the active-set rounds after the first, by the slowest column: 0
    where every column certifies by the first round.  ``gap`` is the
    Frank-Wolfe duality gap of the solution, which bounds its objective's
    excess over the optimum; ``converged`` is False for a column still
    uncertified after ``MAX_ITERS`` rounds.
    """

    solution: np.ndarray
    iterations: int
    final_objective: float | np.ndarray
    gap: float | np.ndarray
    converged: bool | np.ndarray


def project_l1_ball(v, radius, nonnegative=False):
    """Euclidean projection of ``v`` onto {||z||_1 <= radius}.

    ``v`` is one vector or an ``(..., p)`` array whose rows are projected
    independently, onto one ball or, for a radius per row, one each.
    When ``nonnegative`` is set, v is first clamped to the nonnegative
    orthant, which makes the result the projection onto the intersection of
    ball and orthant.  Sort-based soft thresholding (Duchi et al. 2008):
    the threshold is the largest of (sum of the j largest magnitudes -
    radius) / j over j, and 0 for a point inside the ball.  Exact up to
    float error.  A NaN or an infinite magnitude in ``v``, or an L1 norm
    that overflows, raises ConfigError (with ``nonnegative``, -inf is
    clamped to 0 first).
    """
    radius = np.asarray(radius, dtype=float)
    if not (radius > 0).all():
        raise ConfigError("radius must be positive")
    with np.errstate(over="ignore"):
        return _project(np.asarray(v, dtype=float), radius, nonnegative)


def _project(v, radius, nonnegative):
    """:func:`project_l1_ball` of a float array onto positive float radii,
    taken unchecked, under the caller's error state, which ignores
    overflow."""
    mag = np.maximum(v, 0.0) if nonnegative else np.abs(v)
    u = np.sort(mag, axis=-1)[..., ::-1]
    ranks = np.arange(1, v.shape[-1] + 1)
    total = np.cumsum(u, axis=-1)
    theta = ((total - radius[..., None]) / ranks).max(axis=-1, keepdims=True, initial=0.0)
    # A NaN, an infinite magnitude or magnitudes whose sum overflows make
    # their row's threshold non-finite.
    if not np.isfinite(theta).all():
        raise ConfigError("the vector to project and its L1 norm must be finite")
    shrunk = np.maximum(mag - theta, 0.0)
    z = shrunk if nonnegative else np.sign(v) * shrunk
    z += 0.0  # -0.0 + 0.0 == +0.0
    return z


def grams(design, row_weights, out=None):
    """The weighted Gram matrix A'diag(w_i)A of each column i of ``(m, g)``
    row weights, ``(g, p, p)``, from arguments taken unchecked, written
    into ``out`` if it is given (a C-ordered ``(g, p, p)`` float array).

    Each is S'S for S the design rows scaled by sqrt(w_i), in one reused
    buffer; NumPy computes S'S as a symmetric rank-k update (BLAS syrk),
    half the multiplications of a general product, and exactly symmetric.
    """
    gram = np.empty((row_weights.shape[1], design.shape[1], design.shape[1])) if out is None else out
    s = np.empty_like(design)
    root = np.sqrt(row_weights)
    for i in range(row_weights.shape[1]):
        np.multiply(design, root[:, i, None], out=s)
        np.matmul(s.T, s, out=gram[i])
    return gram


def _solve_or_fill(mats, rhs, fill):
    """Each linear system of a stack solved.  A singular matrix makes the
    solve fail for its whole stack; the stack is then split, down to single
    systems, so that one system never changes another's result, and a
    singular one is filled with ``fill``."""
    try:
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.full_like(rhs, fill)
        return np.concatenate([_solve_or_fill(m[None], v[None], fill) for m, v in zip(mats, rhs)])


def unconstrained_wls(design, target, row_weights, ridge=0.0):
    """Ridge-stabilized weighted least squares via the normal equations.

    Solves (A'WA + ridge*I) z = A'Wb with a dense factorization.  A
    ``(m,)`` target gives a ``(p,)`` solution; an ``(m, r)`` target gives
    the ``(r, p)`` solutions of its columns.  Weights are ``(m,)`` or
    ``(m, g)`` weights, the r target columns forming g equal consecutive
    blocks as in :class:`WlsProblem`; the columns of a block share one
    factorization.  The arguments are checked, then handed to the engine,
    :func:`ridge_wls`.
    """
    if not 0.0 <= ridge < np.inf:
        raise ConfigError("ridge must be finite and nonnegative")
    a, b, w, _ = _blocks(design, target, row_weights)
    z = ridge_wls(a, b, w, ridge)
    return z if np.ndim(target) == 2 else z[0]


def ridge_wls(design, target, row_weights, ridge):
    """The engine of :func:`unconstrained_wls`, on arrays the caller built
    and checked: a finite ``(m, p)`` float design that does not change
    during the call, finite ``(m, r)`` float targets, finite nonnegative
    ``(m, g)`` float weights whose g blocks split the r columns evenly,
    and a finite nonnegative ridge.  Nothing is checked again.  Returns
    the ``(r, p)`` solutions, bit for bit those of the checked call.
    """
    p, c = design.shape[1], target.shape[1] // max(row_weights.shape[1], 1)
    gram = grams(design, row_weights)
    rhs = np.empty((row_weights.shape[1], p, c))
    for i in range(row_weights.shape[1]):
        rhs[i] = design.T @ (target[:, i * c:(i + 1) * c] * row_weights[:, i, None])
    try:
        z = np.linalg.solve(gram + ridge * np.eye(p), rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("normal equations numerically singular") from exc
    return z.transpose(0, 2, 1).reshape(-1, p)


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


def _support_step(x, half_grad, sign, s, unit, radius, eye):
    """The step from each row x (half gradient h) to the minimizer on its
    support A, with signs sigma, within the ball; NaN if singular.  On the
    face: S_AA step_A + theta sigma = -h_A, sigma'step_A = radius - sigma'x,
    a (p+1)x(p+1) solve per row with identity rows (``eye``) off A.  Where
    theta < 0, a second solve, for the right-hand sides (-h_A, 0) and
    (0, 1), gives the step y on x's level set of sigma'z and the direction
    u, with multipliers theta' and tau, along which the level moves it.
    Where the objective curves along u (tau < 0), y - (theta' / tau) u steps
    to the unconstrained minimizer on A.  ``s`` = DSD for D = diag(``unit``)."""
    n, p = x.shape
    on = sign != 0.0
    some = on.any(axis=1)  # an empty support has the step 0
    kkt = np.zeros((n, p + 1, p + 1))
    kkt[:, :p, :p] = np.where(on[:, :, None] & on[:, None, :], s, eye)
    kkt[:, :p, p] = kkt[:, p, :p] = sign * unit
    kkt[:, p, p] = ~some
    rhs = np.empty((n, p + 1, 1))
    rhs[:, :p, 0] = -(unit * half_grad) * on
    rhs[:, p, 0] = (radius - (sign * x).sum(axis=1)) * some
    sol = _solve_or_fill(kkt, rhs, np.nan)
    step, inward = sol[:, :p, 0], (sol[:, p, 0] < 0.0).nonzero()[0]
    if inward.size:
        rhs = np.concatenate([rhs[inward], np.zeros((inward.size, p + 1, 1))], axis=2)
        rhs[:, p] = [0.0, 1.0]
        sol = _solve_or_fill(kkt[inward], rhs, np.nan)
        level = -sol[:, p, 0] / sol[:, p, 1]
        curved = sol[:, p, 1] < 0.0
        step[inward[curved]] = (sol[:, :p, 0] + level[:, None] * sol[:, :p, 1])[curved]
    step = unit * step
    return np.where(np.isfinite(step), step, np.nan)


def _line_step(x, half_grad, step, sign, s, tol, radius):
    """The step of each row x to the minimum on the line of ``step``,
    reversed if it ascends, and cut short where the line leaves the ball.
    Rows that this lowers by no more than tol are lost: they step to the
    origin.  Returns the steps and the lost rows."""
    slope = (half_grad * step).sum(axis=1)
    step = step * np.where(slope > 0.0, -1.0, 1.0)[:, None]
    slope = -np.abs(slope)
    curve = (step * _rowwise(step, s)).sum(axis=1)
    length = np.where(curve > 0.0, -slope / curve, np.inf)
    sx, sd = (sign * x).sum(axis=1), (sign * step).sum(axis=1)
    length = np.where(sd > 0.0, np.minimum(length, (radius - sx) / sd), length)
    lost = ~(-length * (2.0 * slope + length * curve) > tol) | ~np.isfinite(length)
    step = length[:, None] * step
    step[lost] = -x[lost]
    return step, lost


def solve(problem: WlsProblem | WlsArrays, *, gram=None) -> SolveReport:
    """Certified solve of a WlsProblem, one or many right-hand sides.

    This is the engine: it reads the problem's arrays as checked, either
    by :class:`WlsProblem` on construction or, in a :class:`WlsArrays`, by
    the caller (see there), and checks only the Gram stack's shape and
    each column's scale, which depend on the call.

    A free bias is minimized out in closed form, leaving a problem in the
    restricted coordinates x with Hessian 2S (S the Schur complement of the
    bias in A'WA, or A'WA itself without a bias) and linear term -2d.  A
    column takes x_u = S^-1 d if that is feasible and certifies; every
    other column runs the active-set rounds of :func:`_active_set`.
    ``iterations`` counts the rounds after the first, up to ``MAX_ITERS``;
    objective and gap are those of the round that certified the column, or
    of the cap.  Each column uses its weight block's S (``blocks``) and its
    own radius; columns never mix, so a batched column matches its single
    solve bit for bit.

    The Gram stack of the design and weights is built with :func:`grams`
    unless ``gram`` hands it in, bit for bit the same; a stack that is not
    ``(g, p, p)``, or a column whose scale overflows, raises ConfigError.
    """
    a, w, block, radius = problem.design, problem.row_weights, problem.blocks, problem.radius
    p, r, nonneg, bias = a.shape[1], len(block), problem.nonnegative, problem.bias
    gram = grams(a, w) if gram is None else gram
    if np.shape(gram) != (w.shape[1], p, p):
        raise ConfigError("the Gram stack must be (g, p, p) for the problem's g weight blocks "
                          "and p design columns")

    bt = np.ascontiguousarray(problem.target.reshape(len(a), r).T)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in tol, below
        bw = bt * w.T[block]  # each column's target times its block's weights
        lin = _rowwise(bw, a)
        energy = (bw * bt).sum(axis=1)  # objective at the origin, per column
        # Each block's coupling g_kf of the restricted coordinates to the bias,
        # the reciprocal of its bias entry (0 where that is 0, as the
        # pseudo-inverse gives) and its Schur complement of the bias.  Each
        # column takes its block's; take() keeps rows contiguous, so that
        # row-wise arithmetic rounds the same in a batch as alone.
        if bias:
            g_kf, g_ff = gram[:, :-1, -1:], gram[:, -1:, -1:]
            inv = 1.0 / np.where(g_ff != 0.0, g_ff, np.inf)
            coupling = g_kf @ inv
            schur = gram[:, :-1, :-1] - coupling @ g_kf.transpose(0, 2, 1)
            g_kf_col, inv_col = g_kf.take(block, axis=0), inv[block]
            lin_f = lin[:, -1:]
            d = lin[:, :-1] - _rowwise(lin_f, coupling.transpose(0, 2, 1)[block])  # (r, p - 1)
            offset = energy - (_rowwise(lin_f, inv_col) * lin_f)[:, 0]
        else:
            schur, d, offset = gram, lin, energy
        s_col = schur.take(block, axis=0)

        # Every column starts at the origin, with the bias minimized, unless
        # the exact shortcut x_u certifies (a singular S keeps the origin).
        gap = _fw_gap(-d, 0.0, radius, nonneg)
        tol = GAP_RTOL * (energy + gap)
    if not np.isfinite(tol).all():  # an infinite tol would certify any point
        raise ConfigError("a column's scale (objective and gap at the origin) overflows")
    x_u = _solve_or_fill(s_col, d[:, :, None], 0.0)[:, :, 0]
    hg_u = _rowwise(x_u, s_col) - d
    x_hg = (x_u * hg_u).sum(axis=1)
    gap_u = _fw_gap(hg_u, x_hg, radius, nonneg)
    ok = (np.abs(x_u).sum(axis=1) <= radius) & (gap_u <= tol)
    if nonneg:
        ok &= np.all(x_u >= 0.0, axis=1)
    x = np.where(ok[:, None], x_u, 0.0)
    x_hg[~ok] = 0.0
    gap = np.where(ok, gap_u, gap)
    converged = gap <= tol

    cols = (~converged).nonzero()[0]
    iterations = 0
    if cols.size:
        # One error state for all rounds: nearly singular supports divide by
        # zero and overflow, and their NaN and inf steps are caught.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            iterations = _active_set(x_u, s_col, d, radius, tol, nonneg, cols, x, gap, x_hg,
                                     converged)
    obj = x_hg - (x * d).sum(axis=1) + offset

    solution = x
    if bias:
        solution = np.concatenate([x, _rowwise(lin_f - _rowwise(x, g_kf_col), inv_col)], axis=1)
    if problem.target.ndim == 1:
        return SolveReport(solution[0], iterations, float(obj[0]), float(gap[0]),
                           bool(converged[0]))
    return SolveReport(solution, iterations, obj, gap, converged)


def _active_set(x_u, s_col, d, radius, tol, nonneg, cols, x, gap, x_hg, converged):
    """Rounds of the primal active-set method (Osborne, Presnell & Turlach
    2000) for :func:`solve`'s columns ``cols``, from the projection of their
    x_u and its signs (on an orthonormal design, the optimal face).  A round
    steps to the minimizer on the support within the ball
    (:func:`_support_step`), or to where a coordinate reaches zero and
    leaves the support.  There a column certifies if its Frank-Wolfe gap is
    within its tol and it is in the ball; if not, the coordinate off the
    support with the largest gradient (nonnegative ball: most negative)
    joins.  A step that would raise the objective by more than tol comes
    from a nearly singular system (m < p, duplicate or zero design columns,
    zero weights), which LAPACK does not always report: :func:`_line_step`
    replaces it.  With no step size, column scale does not slow the method.
    Writes each column's x, gap, x'h and converged flag as of the round that
    ends it, and returns the number of rounds after the first."""
    sw, dw, radw, tolw = s_col[cols], d[cols], radius[cols], tol[cols]
    xw = _project(x_u[cols], radw, nonneg)
    sign = np.sign(xw)
    hg = _rowwise(xw, sw) - dw
    # Powers of two that bring S's diagonal near 1 (_support_step).
    unit = np.ldexp(1.0, -(np.frexp(np.diagonal(sw, axis1=1, axis2=2))[1] // 2))
    scaled = unit[:, :, None] * sw * unit[:, None, :]
    eye = np.eye(xw.shape[1])
    iterations = 0
    while True:
        step = _support_step(xw, hg, sign, scaled, unit, radw, eye)
        z = xw + step
        hg_z = _rowwise(z, sw) - dw
        # f(z) - f(x) = step'(h + h_z); a rise above tol marks a bad solve.
        odd = (~((step * (hg + hg_z)).sum(axis=1) <= tolw)).nonzero()[0]
        if odd.size:
            step[odd], lost = _line_step(xw[odd], hg[odd], step[odd], sign[odd], sw[odd],
                                         tolw[odd], radw[odd])
            z[odd] = xw[odd] + step[odd]
            sign[odd[lost]] = 0.0
        # A coordinate that reaches zero on the way stops the column there,
        # and leaves the support.
        cross = sign * z < 0.0
        short = cross.any(axis=1)  # not at the minimizer on the support
        rows = short.nonzero()[0]
        if rows.size:
            xr, sr = xw[rows], step[rows]
            ratio = np.divide(xr, -sr, out=np.full_like(xr, np.inf), where=cross[rows])
            sign[rows, ratio.argmin(axis=1)] = 0.0
            xs = xr + ratio.min(axis=1)[:, None] * sr
            z[rows] = np.where(sign[rows] * xs > 0.0, xs, 0.0)
        if odd.size:
            short[odd] = True
            rows = short.nonzero()[0]
        if rows.size:
            hg_z[rows] = _rowwise(z[rows], sw[rows]) - dw[rows]
        xw, hg = z, hg_z
        xw_hg = (xw * hg).sum(axis=1)
        gap_w = _fw_gap(hg, xw_hg, radw, nonneg)
        done = (gap_w <= tolw) & (np.abs(xw).sum(axis=1) <= radw * (1.0 + 1e-12))
        if nonneg:
            done &= np.all(xw >= 0.0, axis=1)
        x[cols], gap[cols], x_hg[cols], converged[cols] = xw, gap_w, xw_hg, done
        if iterations == MAX_ITERS or done.all():
            return iterations
        # A coordinate joins where its gradient alone keeps the gap above
        # tol, with the sign that descends.
        pull = np.where(sign == 0.0, -hg if nonneg else np.abs(hg), -np.inf)
        best = pull.max(axis=1)
        grow = (~(short | done) & (best > 0.0)
                & (2.0 * (xw_hg + radw * best) > tolw)).nonzero()[0]
        if grow.size:
            j = pull[grow].argmax(axis=1)
            sign[grow, j] = -np.sign(hg[grow, j])
        if done.any():
            go = (~done).nonzero()[0]
            cols, xw, hg, sign = cols[go], xw[go], hg[go], sign[go]
            sw, dw, radw, tolw = sw[go], dw[go], radw[go], tolw[go]
            unit, scaled = unit[go], scaled[go]
        iterations += 1
