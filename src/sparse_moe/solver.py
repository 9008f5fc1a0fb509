"""L1-ball-constrained weighted least squares.

The one optimization primitive the trainer needs: minimize a weighted
sum-of-squares residual over an L1 ball (optionally intersected with the
nonnegative orthant), with selected coordinates (the bias) exempt from the
constraint.  One call solves a batch of right-hand sides that share the
design; they form blocks, each with its own row weights and so its own
weighted Gram matrix.  The free coordinates are eliminated exactly (Schur
complement), and a feasible unconstrained minimizer is returned as is.
Every other column runs the primal active-set method of Osborne,
Presnell & Turlach (2000): exact linear solves on a support with signs,
on the face of the ball or inside it, that drop and add one coordinate at
a time until the column's Frank-Wolfe duality gap certifies optimality.
The costly part of the set-up is the stack of weighted Gram matrices,
one per block (:func:`grams`); a caller that solves many batches under
the same weights can build it once and hand it to each solve.
No external QP dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError

MAX_ITERS = 10_000
# A column stops once its Frank-Wolfe gap, an upper bound on its distance
# to the optimal objective, is at most GAP_RTOL times its scale: the larger
# of its objective at the origin and at the warm start, plus its gap at the
# origin.  The last term grows with the radius, as does the rounding error
# of the gap, so a huge inactive radius still certifies.
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
    if not np.all(np.isfinite(w)) or np.any(w < 0):
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
    ``radius`` is one radius for every problem or ``(r,)``, one per column.
    Coordinates in ``free_coords`` (design columns) bypass both constraints.
    A problem is checked once, here, and frozen, holding ``(m, g)`` weights,
    ``(r,)`` blocks and radii and sorted free coordinates for :func:`solve`.
    It holds the caller's arrays, not copies (a float array is kept as it
    is), so they must not change after the problem is built: the check
    would not see the change.
    """

    design: np.ndarray
    target: np.ndarray
    row_weights: np.ndarray
    radius: float | np.ndarray
    free_coords: tuple[int, ...] = ()
    nonnegative: bool = False
    blocks: np.ndarray | None = None

    def __post_init__(self):
        a, _, w, index = _blocks(self.design, self.target, self.row_weights, self.blocks)
        radius = np.asarray(self.radius, dtype=float)
        radius = np.full(len(index), radius) if radius.ndim == 0 else radius
        if radius.shape != index.shape or not (radius > 0).all():
            raise ConfigError("radius must be positive: one, or one per target column")
        free = np.asarray(self.free_coords)
        if free.size and (free.ndim != 1 or free.dtype.kind not in "iu"
                          or not 0 <= free.min() <= free.max() < a.shape[1]):
            raise ConfigError("free coordinates must be column indices of the design")
        checked = {"design": a, "target": np.asarray(self.target, dtype=float),
                   "row_weights": w, "radius": radius, "blocks": index,
                   "free_coords": tuple(sorted(set(free.tolist())))}
        for name, value in checked.items():
            object.__setattr__(self, name, value)


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

    ``v`` is one vector or an ``(r, p)`` array whose rows are projected
    independently, onto one ball or, for an ``(r,)`` radius, one each.
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
    v = np.asarray(v, dtype=float)
    mag = np.maximum(v, 0.0) if nonnegative else np.abs(v)
    u = np.sort(mag, axis=-1)[..., ::-1]
    ranks = np.arange(1, v.shape[-1] + 1)
    # A NaN, an infinite magnitude or magnitudes whose sum overflows make
    # their row's threshold non-finite.
    with np.errstate(over="ignore"):
        total = np.cumsum(u, axis=-1)
    theta = ((total - radius[..., None]) / ranks).max(axis=-1, keepdims=True, initial=0.0)
    if not np.isfinite(theta).all():
        raise ConfigError("the vector to project and its L1 norm must be finite")
    shrunk = np.maximum(mag - theta, 0.0)
    return shrunk if nonnegative else np.sign(v) * shrunk


def grams(design, row_weights):
    """The weighted Gram matrix A'diag(w_i)A of each column i of ``(m, g)``
    row weights, ``(g, p, p)``, from arguments taken unchecked.

    Each is S'S for S the design rows scaled by sqrt(w_i), in one reused
    buffer; NumPy computes S'S as a symmetric rank-k update (BLAS syrk),
    half the multiplications of a general product, and exactly symmetric.
    """
    gram = np.empty((row_weights.shape[1], design.shape[1], design.shape[1]))
    s = np.empty_like(design)
    root = np.sqrt(row_weights)
    for i in range(row_weights.shape[1]):
        np.multiply(design, root[:, i, None], out=s)
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


def _solve_or_keep(mats, rhs, start):
    """Each linear system of a stack solved; a singular one keeps its start."""
    return _stacked(lambda m, v, _: np.linalg.solve(m, v), lambda m, v, x0: x0, mats, rhs, start)


def unconstrained_wls(design, target, row_weights, ridge=0.0):
    """Ridge-stabilized weighted least squares via the normal equations.

    Solves (A'WA + ridge*I) z = A'Wb with a dense factorization.  A
    ``(m,)`` target gives a ``(p,)`` solution; an ``(m, r)`` target gives
    the ``(r, p)`` solutions of its columns.  Weights are ``(m,)`` or
    ``(m, g)`` weights, the r target columns forming g equal consecutive
    blocks as in :class:`WlsProblem`; the columns of a block share one
    factorization.
    """
    if not 0.0 <= ridge < np.inf:
        raise ConfigError("ridge must be finite and nonnegative")
    a, b, w, _ = _blocks(design, target, row_weights)
    p, c = a.shape[1], b.shape[1] // max(w.shape[1], 1)
    gram = grams(a, w)
    rhs = np.empty((w.shape[1], p, c))
    for i in range(w.shape[1]):
        rhs[i] = a.T @ (b[:, i * c:(i + 1) * c] * w[:, i, None])
    try:
        z = np.linalg.solve(gram + ridge * np.eye(p), rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("normal equations numerically singular") from exc
    z = z.transpose(0, 2, 1).reshape(-1, p)
    return z if np.ndim(target) == 2 else z[0]


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


def _evaluate(x, half_grad, d, offset, radius, nonneg):
    """Objective and Frank-Wolfe gap of each row of x, from its half
    gradient Sx - d."""
    x_hg = (x * half_grad).sum(axis=1)
    return x_hg - (x * d).sum(axis=1) + offset, _fw_gap(half_grad, x_hg, radius, nonneg)


def _support_step(x, half_grad, sign, s, unit, radius):
    """The step from each row x (half gradient h) to the minimizer on its
    support A, with signs sigma, within the ball; NaN if singular.  On the
    face: S_AA step_A + theta sigma = -h_A, sigma'step_A = radius - sigma'x,
    a (p+1)x(p+1) solve per row with identity rows off A.  Where theta < 0,
    a second solve, for the right-hand sides (-h_A, 0) and (0, 1), gives
    the step y on x's level set of sigma'z and the direction u, with
    multipliers theta' and tau, along which the level moves it.  Where the
    objective curves along u (tau < 0), y - (theta' / tau) u steps to the
    unconstrained minimizer on A.  ``s`` = DSD for D = diag(``unit``)."""
    n, p = x.shape
    on = sign != 0.0
    some = on.any(axis=1)  # an empty support has the step 0
    kkt = np.zeros((n, p + 1, p + 1))
    kkt[:, :p, :p] = np.where(on[:, :, None] & on[:, None, :], s, np.eye(p))
    kkt[:, :p, p] = kkt[:, p, :p] = sign * unit
    kkt[:, p, p] = ~some
    rhs = np.empty((n, p + 1, 1))
    rhs[:, :p, 0] = -(unit * half_grad) * on
    rhs[:, p, 0] = (radius - (sign * x).sum(axis=1)) * some
    sol = _solve_or_keep(kkt, rhs, np.full_like(rhs, np.nan))
    step, inward = sol[:, :p, 0], np.flatnonzero(sol[:, p, 0] < 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if inward.size:
            rhs = np.concatenate([rhs[inward], np.zeros_like(rhs[inward])], axis=2)
            rhs[:, p] = [0.0, 1.0]
            sol = _solve_or_keep(kkt[inward], rhs, np.full_like(rhs, np.nan))
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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


def solve(problem: WlsProblem, warm_start=None, gram=None) -> SolveReport:
    """Certified solve of a WlsProblem, one or many right-hand sides.

    The free coordinates are minimized out in closed form, leaving a
    problem in the restricted coordinates x with Hessian 2S (S the Schur
    complement of the free block of A'WA) and linear term -2d.  A column
    keeps its projected warm start (r*p finite values, zero by default) if
    that certifies, and takes x_u = S^-1 d if that is feasible and
    certifies.  Every other column runs rounds of the primal active-set
    method (Osborne, Presnell & Turlach 2000) from the projection of x_u
    and its signs (on an orthonormal design, the optimal face).  A round
    steps to the minimizer on the support within the ball
    (:func:`_support_step`), or to where a coordinate reaches zero and
    leaves the support.  At that minimizer a column certifies if its
    Frank-Wolfe gap is within ``GAP_RTOL`` of its scale and it is in the
    ball; if not, the coordinate off the support with the largest gradient
    (nonnegative ball: most negative) joins.  A step that would raise the
    objective by more than tol comes from a nearly singular system (m < p,
    duplicate or zero design columns, zero weights), which LAPACK does not
    always report: :func:`_line_step` replaces it.  With no step size,
    column scale does not slow the method: on random 20x5 designs with
    column scales from 1e-6 to 1e6, all 300 columns certified within 11
    rounds.  ``iterations`` counts the rounds after the first, up to
    ``MAX_ITERS``; objective and gap are those of the round that certified
    the column, or of the cap.  Each column uses its weight block's S
    (``blocks``) and its own radius; columns never mix, so a batched
    column matches its single solve bit for bit.

    The set-up starts from the Gram stack of the problem's design and
    weights, built here with :func:`grams` unless ``gram`` hands it in
    (a caller that solves many problems under the same weights can build
    it once); the result is the same bit for bit.  A stack that is not
    ``(g, p, p)``, or a bad warm start, raises ConfigError.
    """
    a, w, block, radius = problem.design, problem.row_weights, problem.blocks, problem.radius
    p, r, nonneg = a.shape[1], len(block), problem.nonnegative
    gram = grams(a, w) if gram is None else gram
    if np.shape(gram) != (w.shape[1], p, p):
        raise ConfigError("the Gram stack must be (g, p, p) for the problem's g weight blocks "
                          "and p design columns")
    warm = np.zeros((r, p)) if warm_start is None else np.asarray(warm_start, dtype=float)
    if warm.size != r * p or not np.isfinite(warm).all():
        raise ConfigError("the warm start must be r*p finite values, one row per column")
    warm = warm.reshape(r, p)

    # Each block's rows g_kf of its Gram matrix that couple restricted to
    # free coordinates, the inverse of its free block, the coupling
    # g_kf g_ff^-1 and the Schur complement of the free block.
    free = list(problem.free_coords)
    kept = [j for j in range(p) if j not in free]
    g_kf = gram[:, kept][:, :, free]
    g_ff_inv = _stacked(np.linalg.inv, np.linalg.pinv, gram[:, free][:, :, free])
    coupling = g_kf @ g_ff_inv
    schur = gram[:, kept][:, :, kept] - coupling @ g_kf.transpose(0, 2, 1)

    bt = np.ascontiguousarray(problem.target.reshape(len(a), r).T)
    bw = bt * w.T[block]  # each column's target times its block's weights
    lin = _rowwise(bw, a)
    energy = (bw * bt).sum(axis=1)  # objective at the origin, per column
    # Each column takes its block's matrices.  Column subsets are taken
    # with take(), which keeps rows contiguous, so that row-wise arithmetic
    # rounds the same in a batch as alone.
    s_col, g_kf_col, inv_col = schur[block], g_kf[block], g_ff_inv[block]
    lin_f = lin.take(free, axis=1)
    coupling_t = coupling[block].transpose(0, 2, 1)
    d = lin.take(kept, axis=1) - _rowwise(lin_f, coupling_t)  # (r, pr)
    offset = energy - (_rowwise(lin_f, inv_col) * lin_f).sum(axis=1)

    x = project_l1_ball(warm.take(kept, axis=1), radius, nonneg)
    obj, gap = _evaluate(x, _rowwise(x, s_col) - d, d, offset, radius, nonneg)
    tol = GAP_RTOL * (np.maximum(energy, obj) + _fw_gap(-d, 0.0, radius, nonneg))

    # Exact shortcut; a column whose S is singular keeps its start.
    x_u = _solve_or_keep(s_col, d[:, :, None], x[:, :, None])[:, :, 0]
    obj_u, gap_u = _evaluate(x_u, _rowwise(x_u, s_col) - d, d, offset, radius, nonneg)
    ok = (np.abs(x_u).sum(axis=1) <= radius) & (gap_u <= tol)
    if nonneg:
        ok &= np.all(x_u >= 0.0, axis=1)
    x[ok], obj[ok], gap[ok] = x_u[ok], obj_u[ok], gap_u[ok]
    converged = gap <= tol

    # Active-set rounds, on working copies of the columns' data that shrink
    # as columns finish.
    cols = np.flatnonzero(~converged)
    iterations = 0
    if cols.size:
        sw, dw, offw, radw, tolw = s_col[cols], d[cols], offset[cols], radius[cols], tol[cols]
        xw = project_l1_ball(x_u[cols], radw, nonneg)
        sign = np.sign(xw)
        hg = _rowwise(xw, sw) - dw
        # Powers of two that bring S's diagonal near 1 (_support_step).
        unit = np.ldexp(1.0, -(np.frexp(np.diagonal(sw, axis1=1, axis2=2))[1] // 2))
        scaled = unit[:, :, None] * sw * unit[:, None, :]
    while cols.size:
        step = _support_step(xw, hg, sign, scaled, unit, radw)
        z = xw + step
        hg_z = _rowwise(z, sw) - dw
        # f(z) - f(x) = step'(h + h_z); a rise above tol marks a bad solve.
        odd = np.flatnonzero(~((step * (hg + hg_z)).sum(axis=1) <= tolw))
        if odd.size:
            step[odd], lost = _line_step(xw[odd], hg[odd], step[odd], sign[odd], sw[odd],
                                         tolw[odd], radw[odd])
            z[odd] = xw[odd] + step[odd]
            sign[odd[lost]] = 0.0
        # A coordinate that reaches zero on the way stops the column there,
        # and leaves the support.
        cross = sign * z < 0.0
        full = ~cross.any(axis=1)  # at the minimizer on the support
        if not full.all():
            rows = np.flatnonzero(~full)
            xr, sr = xw[rows], step[rows]
            ratio = np.divide(xr, -sr, out=np.full_like(xr, np.inf), where=cross[rows])
            sign[rows, ratio.argmin(axis=1)] = 0.0
            xs = xr + ratio.min(axis=1)[:, None] * sr
            z[rows] = np.where(sign[rows] * xs > 0.0, xs, 0.0)
        full[odd] = False
        if not full.all():
            rows = np.flatnonzero(~full)
            hg_z[rows] = _rowwise(z[rows], sw[rows]) - dw[rows]
        xw = z
        hg = hg_z
        x_hg = (xw * hg).sum(axis=1)
        gap_w = _fw_gap(hg, x_hg, radw, nonneg)
        done = (gap_w <= tolw) & (np.abs(xw).sum(axis=1) <= radw * (1.0 + 1e-12))
        if nonneg:
            done &= np.all(xw >= 0.0, axis=1)
        end = np.ones_like(done) if iterations == MAX_ITERS else done
        if end.any():
            fin = cols[end]
            x[fin], gap[fin], converged[fin] = xw[end], gap_w[end], done[end]
            obj[fin] = (x_hg - (xw * dw).sum(axis=1) + offw)[end]
            if end.all():
                break
        # A coordinate joins where its gradient alone keeps the gap above
        # tol, with the sign that descends.
        grow = np.flatnonzero(full & ~done)
        if grow.size:
            pull = np.where(sign[grow] == 0.0, -hg[grow] if nonneg else np.abs(hg[grow]), -np.inf)
            j = pull.argmax(axis=1)
            best = pull[np.arange(grow.size), j]
            keep = (best > 0.0) & (2.0 * (x_hg[grow] + radw[grow] * best) > tolw[grow])
            grow, j = grow[keep], j[keep]
            sign[grow, j] = -np.sign(hg[grow, j])
        if done.any():
            go = ~done
            cols, xw, hg, sign = cols[go], xw[go], hg[go], sign[go]
            sw, dw, offw, radw, tolw = sw[go], dw[go], offw[go], radw[go], tolw[go]
            unit, scaled = unit[go], scaled[go]
        iterations += 1

    solution = np.empty((r, p))
    solution[:, kept] = x
    solution[:, free] = _rowwise(lin_f - _rowwise(x, g_kf_col), inv_col)
    if problem.target.ndim == 1:
        return SolveReport(solution[0], iterations, float(obj[0]), float(gap[0]),
                           bool(converged[0]))
    return SolveReport(solution, iterations, obj, gap, converged)
