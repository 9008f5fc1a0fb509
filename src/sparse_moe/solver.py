"""L1-ball-constrained weighted least squares.

The one optimization primitive the trainer needs: minimize a weighted
sum-of-squares residual over an L1 ball (optionally intersected with the
nonnegative orthant), with selected coordinates (the bias) exempt from the
constraint.  One call solves a batch of right-hand sides that share the
design; they form blocks, each with its own row weights and so its own
weighted Gram matrix.  The free coordinates are eliminated exactly (Schur
complement), and a feasible unconstrained minimizer is returned as is.
Every other column first tries one exact face step: a linear solve on the
face of the ball that holds the projection of its unconstrained minimizer
(the active-set step of Osborne, Presnell & Turlach 2000).  The columns
that step does not certify run accelerated projected gradient (FISTA)
with a monotone restart until their Frank-Wolfe duality gap certifies
optimality; once an iterate's signs settle, the face step is tried again
on the iterate's face, under the same certificate.
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
# Relative rounding error of a step's objective change, per coordinate.
_ROUNDING = 4.0 * np.finfo(float).eps


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
    is the number of FISTA steps run, by the slowest column; a column
    certified before the loop, by the unconstrained shortcut or the first
    face step, takes none, so a call whose columns all certify there
    reports 0.  ``gap`` is the Frank-Wolfe duality gap
    of the solution, which bounds its objective's excess over the optimum;
    ``converged`` is False for a column that reached ``MAX_ITERS`` without
    certifying.
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
    float error.  A NaN or an infinite magnitude in ``v`` raises
    ConfigError (with ``nonnegative``, -inf is clamped to 0 first).
    """
    radius = np.asarray(radius, dtype=float)
    if not (radius > 0).all():
        raise ConfigError("radius must be positive")
    v = np.asarray(v, dtype=float)
    mag = np.maximum(v, 0.0) if nonnegative else np.abs(v)
    u = np.sort(mag, axis=-1)[..., ::-1]
    ranks = np.arange(1, v.shape[-1] + 1)
    theta = ((np.cumsum(u, axis=-1) - radius[..., None]) / ranks).max(axis=-1, keepdims=True,
                                                                      initial=0.0)
    # A NaN or an infinite magnitude makes its row's threshold non-finite.
    if not np.isfinite(theta).all():
        raise ConfigError("the vector to project must be finite")
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


def _face_step(x, half_grad, sigma, s, d, tol, radius, nonneg):
    """The exact minimizer of each row's objective on the face of the ball
    given by the row's sign pattern sigma, where it certifies.

    The face is sigma's support A and signs.  Its KKT system, the rows
    S_AA x_A + theta sigma = d_A and sigma'x_A = radius, padded with
    identity rows (right-hand side 0) off A, is one (p+1)x(p+1) solve per
    row, with the row's own radius; a singular one leaves its row at x.
    The solution is projected onto the ball like a FISTA step, and is
    accepted where its Frank-Wolfe gap is within tol and it does not raise
    the objective from x, the current iterate with half gradient
    half_grad.  Returns the candidates, their half gradients and the
    accepted rows.
    """
    n, p = x.shape
    on = sigma != 0.0
    kkt = np.zeros((n, p + 1, p + 1))
    kkt[:, :p, :p] = np.where(on[:, :, None] & on[:, None, :], s, np.eye(p))
    kkt[:, :p, p] = kkt[:, p, :p] = sigma
    rhs = np.column_stack([np.where(on, d, 0.0), radius])[:, :, None]
    start = np.column_stack([x, np.zeros(n)])[:, :, None]
    sol = _solve_or_keep(kkt, rhs, start)
    z = project_l1_ball(sol[:, :p, 0], radius, nonneg)
    hg_z = _rowwise(z, s) - d
    rise = ((z - x) * (hg_z + half_grad)).sum(axis=1)
    ok = (_fw_gap(hg_z, (z * hg_z).sum(axis=1), radius, nonneg) <= tol) & (rise <= 0.0)
    return z, hg_z, ok


def solve(problem: WlsProblem, warm_start=None, gram=None) -> SolveReport:
    """Certified solve of a WlsProblem, one or many right-hand sides.

    The free coordinates are minimized out in closed form, leaving a
    problem in the restricted coordinates x with Hessian 2S (S the Schur
    complement of the free block of A'WA) and linear term -2d.  Columns
    whose unconstrained minimizer x_u = S^-1 d is feasible and certified
    are returned with no iteration.  For every other column, the exact
    minimizer on the face of the ball that holds x_u's projection onto
    the ball (:func:`_face_step`; on an orthonormal design, the optimal
    face) is tried before the first FISTA step.  It is kept if it
    certifies and does not raise the objective from the projected warm
    start (r*p finite values, zero by default).  Only the columns it
    fails iterate: from the projected warm start, they take FISTA steps of
    size 1/L, with L = 2 lambda_max(S) and momentum (c - 1) / (c + 2)
    after c accepted steps.  A momentum step that would raise a column's
    objective (by more than the rounding error of the change) is rejected
    and that column's momentum reset, so its next step is a plain
    projected gradient step, which cannot raise it; the objective is
    therefore non-increasing from the warm start, up to rounding.  After a
    step that leaves a column's sign pattern as it was, the exact minimizer
    on that face of the ball (:func:`_face_step`) replaces the iterate if
    it certifies and does not raise the objective; a pattern whose face
    step failed is not tried again until it changes.  Each column stops,
    and is frozen, once its Frank-Wolfe gap is within ``GAP_RTOL`` of its
    scale, or at ``MAX_ITERS``.  ``iterations`` counts FISTA steps only.
    Each weight block has its own S and L,
    and every column uses its block's (the problem's ``blocks`` index) and
    its own radius.  Columns never mix, so a batched column matches its
    single solve bit for bit, whatever the other columns' blocks and radii.

    Certification assumes design columns of comparable scale: the step
    size is one per block, so small-scale coordinates barely move.  On
    random 20x5 designs with column scales from 1e-6 to 1e6, 212 of 300
    columns were uncertified at 2,000 iterations (none at scales 0.1-10).
    ``fit`` standardizes its design; such a column has ``converged=False``.

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
    x_u = _solve_or_keep(s_col, d[:, :, None], x[:, :, None])[:, :, 0]
    _, gap_u, half_grad_u = evaluate(x_u)
    ok = (np.abs(x_u).sum(axis=1) <= radius) & (gap_u <= tol)
    if nonneg:
        ok &= np.all(x_u >= 0.0, axis=1)
    x[ok], gap[ok], half_grad[ok] = x_u[ok], gap_u[ok], half_grad_u[ok]

    # One exact face step before the first FISTA step, on the face of the
    # projected unconstrained minimizer (on an orthonormal design, the
    # optimal face), under the loop's certificate and its test against
    # the projected warm start.
    cols = np.flatnonzero(gap > tol)
    if cols.size:
        sigma = np.sign(project_l1_ball(x_u[cols], radius[cols], nonneg))
        z, hg_z, ok = _face_step(x[cols], half_grad[cols], sigma, s_col[cols], d[cols],
                                 tol[cols], radius[cols], nonneg)
        x[cols[ok]], half_grad[cols[ok]] = z[ok], hg_z[ok]
        cols = cols[~ok]
    iterations = 0
    if cols.size:
        # lambda_max(S) of the blocks that the iterating columns use, and of
        # no other.  A block with lam = 0 has an objective constant in x
        # (zero design or weights): any feasible point is optimal.
        used, of_col = np.unique(block[cols], return_inverse=True)
        lam_w = np.linalg.eigvalsh(schur[used]).max(axis=1, initial=0.0)[of_col]
        cols, lam_w = cols[lam_w > 0.0], lam_w[lam_w > 0.0]
        # A gradient step of size 1/L from y is y @ descent + d / lam.
        s_w = s_col[cols]
        descent = np.eye(len(kept)) - s_w / lam_w[:, None, None]
        rounding = _ROUNDING * len(kept)
        # Working copies of the columns still iterating.
        xw, hgw, tolw, dw, radw = x[cols], half_grad[cols], tol[cols], d[cols], radius[cols]
        dw_step = dw / lam_w[:, None]
        xw_prev = xw
        accepted = np.zeros(cols.size, dtype=int)
        tried = np.zeros(cols.size, dtype=bool)  # face step failed on this pattern
    while cols.size and iterations < MAX_ITERS:
        iterations += 1
        # FISTA momentum after c accepted steps since the last (re)start.
        beta = (np.maximum(accepted - 1, 0) / (accepted + 2.0))[:, None]
        y = xw + beta * (xw - xw_prev)
        z = project_l1_ball(_rowwise(y, descent) + dw_step, radw, nonneg)
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
        done = _fw_gap(hgw, (xw * hgw).sum(axis=1), radw, nonneg) <= tolw
        # Once a column's sign pattern repeats, try the exact face step.
        # Its candidate depends on the pattern alone, so a pattern whose
        # candidate failed is not tried again until it changes.
        sign = np.sign(xw)
        stable = np.all(sign == np.sign(xw_prev), axis=1)
        tried &= stable
        face = np.flatnonzero(~done & stable & ~tried)
        if face.size:
            z, hg_z, ok = _face_step(xw[face], hgw[face], sign[face], s_w[face], dw[face],
                                     tolw[face], radw[face], nonneg)
            tried[face[~ok]] = True
            face = face[ok]
            xw[face], hgw[face], done[face] = z[ok], hg_z[ok], True
        any_done = done.any()
        if any_done or iterations == MAX_ITERS:
            x[cols] = xw
        if any_done:
            go = ~done
            cols, xw, xw_prev, hgw = cols[go], xw[go], xw_prev[go], hgw[go]
            accepted, tolw, dw, dw_step = accepted[go], tolw[go], dw[go], dw_step[go]
            tried, radw = tried[go], radw[go]
            s_w, descent = s_w[go], descent[go]

    obj, gap, _ = evaluate(x)
    solution = np.empty((r, p))
    solution[:, kept] = x
    solution[:, free] = _rowwise(lin_f - _rowwise(x, g_kf_col), inv_col)
    converged = gap <= tol
    if problem.target.ndim == 1:
        return SolveReport(solution[0], iterations, float(obj[0]), float(gap[0]),
                           bool(converged[0]))
    return SolveReport(solution, iterations, obj, gap, converged)
