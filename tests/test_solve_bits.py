"""solve's outputs, pinned byte for byte.

solve sets up its bias-only Schur complement from views and a guarded
reciprocal, and runs leaner active-set rounds under one error state.
None of that changes a value.  This file keeps a reference copy of the
earlier solve, written for any set of free coordinates with a stacked
matrix inverse and fancy-indexed copies, adapted only to read the bias
flag as the free coordinate p - 1 (or none).  It requires the same
solution, objective, gap and converged bytes and the same iteration count
from solve on random batches: with and without a bias, on the ball and on
its nonnegative part, with mixed weight blocks and per-column radii from
tight to inactive, with the Gram stack built and handed in, and on
degenerate designs (fewer rows than columns, zero and duplicated columns,
zero weights and zero-weight blocks, column scales from 1e-6 to 1e6).
"""

import numpy as np
import pytest

from sparse_moe import ConfigError, Hyperparams, WlsProblem, fit, generate_synthetic, preset_spec
from sparse_moe import SolveReport, solver, trainer

MAX_ITERS = 10_000
GAP_RTOL = 1e-10


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
    z = shrunk if nonnegative else np.sign(v) * shrunk
    z += 0.0  # -0.0 + 0.0 == +0.0
    return z


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


def ref_solve(problem, *, gram=None):
    """solve as it was, for free coordinates given as column indices; here
    the bias's column p - 1, or none."""
    a, w, block, radius = problem.design, problem.row_weights, problem.blocks, problem.radius
    p, r, nonneg = a.shape[1], len(block), problem.nonnegative
    gram = grams(a, w) if gram is None else gram
    if np.shape(gram) != (w.shape[1], p, p):
        raise ConfigError("the Gram stack must be (g, p, p) for the problem's g weight blocks "
                          "and p design columns")

    # Each block's rows g_kf of its Gram matrix that couple restricted to
    # free coordinates, the inverse of its free block, the coupling
    # g_kf g_ff^-1 and the Schur complement of the free block.
    free = [p - 1] if problem.bias else []
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

    # Every column starts at the origin, with its free coordinates minimized.
    x, obj, gap = np.zeros_like(d), offset.copy(), _fw_gap(-d, 0.0, radius, nonneg)
    tol = GAP_RTOL * (energy + gap)

    # Exact shortcut; a column whose S is singular keeps its start.
    x_u = _solve_or_keep(s_col, d[:, :, None], x[:, :, None])[:, :, 0]
    hg_u = _rowwise(x_u, s_col) - d
    x_hg = (x_u * hg_u).sum(axis=1)
    obj_u, gap_u = x_hg - (x_u * d).sum(axis=1) + offset, _fw_gap(hg_u, x_hg, radius, nonneg)
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


def same_report(got, want):
    assert got.iterations == want.iterations
    for field in ("solution", "final_objective", "gap", "converged"):
        g, w = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert g.shape == w.shape and g.dtype == w.dtype, field
        assert g.tobytes() == w.tobytes(), field
    assert type(got.final_objective) is type(want.final_objective)
    assert type(got.converged) is type(want.converged)


def random_batch(seed, bias, nonneg, degenerate):
    """A batch of r columns over g weight blocks with per-column radii from
    tight (1e-2) to inactive (1e6); a degenerate one has fewer rows than
    columns at times, zero and duplicated columns, column scales from 1e-6
    to 1e6, zero weights and zero-weight blocks."""
    rng = np.random.default_rng([seed, bias, nonneg, degenerate])
    p = int(rng.integers(1 + bias, 13))
    if degenerate:
        m = int(rng.integers(1, p + 20))
        a = rng.normal(0, 1, (m, p))
        kind = rng.random(p)
        a[:, kind < 0.15] = 0.0
        copies = np.flatnonzero((kind >= 0.15) & (kind < 0.35))
        a[:, copies] = a[:, rng.integers(0, p, copies.size)]
        a *= 10.0 ** rng.uniform(-6, 6, p)
    else:
        m = p + int(rng.integers(1, 40))
        a = rng.normal(0, 1, (m, p)) * rng.uniform(0.1, 3.0, p)
    if bias:
        a[:, -1] = 1.0
    if rng.random() < 0.5:
        a = np.asfortranarray(a)  # the layout prepare_inputs builds
    g, r = int(rng.integers(1, 5)), int(rng.integers(1, 10))
    w = rng.uniform(0.05, 2.0, (m, g))
    if degenerate:
        w[rng.random((m, g)) < 0.2] = 0.0
        w[:, rng.random(g) < 0.2] = 0.0
    b = rng.normal(0, 3, (m, r))
    b[:, rng.random(r) < 0.1] = 0.0
    blocks = rng.integers(0, g, r)
    radius = 10.0 ** rng.uniform(-2, 6, r)
    return WlsProblem(a, b, w, radius, bias, nonneg, blocks)


# Degenerate batches whose nearly singular supports take the line step
# (_line_step): about 1 in 100, here with OpenBLAS 0.3.31's Haswell
# kernels.  Another LAPACK may report other systems as singular; the
# batches are compared all the same.  Most of these run into the round
# cap uncertified, which the tests below lower to CAP rounds, in both
# copies, so that they end fast; each column is compared at the cap.
LINE_STEP_SEEDS = {(False, False): [525, 599], (False, True): [591],
                   (True, False): [93, 197, 377, 394], (True, True): [359, 461, 906]}
CAP = 100


@pytest.mark.parametrize("degenerate", [False, True], ids=["plain", "degenerate"])
@pytest.mark.parametrize("nonneg", [False, True], ids=["ball", "nonneg"])
@pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
def test_random_batches_match_reference(monkeypatch, bias, nonneg, degenerate):
    monkeypatch.setattr(solver, "MAX_ITERS", CAP)
    monkeypatch.setitem(globals(), "MAX_ITERS", CAP)
    extra = LINE_STEP_SEEDS[bias, nonneg] if degenerate else []
    for seed in [*range(60), *extra]:
        problem = random_batch(seed, bias, nonneg, degenerate)
        want = ref_solve(problem)
        same_report(solver.solve(problem), want)
        same_report(solver.solve(problem, gram=solver.grams(problem.design, problem.row_weights)),
                    want)


@pytest.mark.parametrize("nonneg", [False, True], ids=["ball", "nonneg"])
@pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
def test_single_columns_match_reference(bias, nonneg):
    # A (m,) target returns scalars, as in the reference.
    for seed in range(30):
        batch = random_batch(seed, bias, nonneg, seed % 2 == 1)
        j = seed % len(batch.blocks)
        problem = WlsProblem(batch.design, batch.target[:, j].copy(),
                             batch.row_weights[:, batch.blocks[j]].copy(), batch.radius[j],
                             bias, nonneg)
        same_report(solver.solve(problem), ref_solve(problem))


@pytest.mark.parametrize("selector", ["none", "l1"])
def test_fit_solves_match_reference(monkeypatch, selector):
    # Every solve call of short fits, with the Gram stack the trainer hands in.
    calls = []
    real = trainer.solve

    def spy(problem, *, gram=None):
        report = real(problem, gram=gram)
        calls.append(1)
        same_report(report, ref_solve(problem, gram=gram))
        return report

    monkeypatch.setattr(trainer, "solve", spy)
    data = generate_synthetic(preset_spec("noisy-subspace", 40, 4, seed=3))
    for schedule in ("full", "fast"):
        for lam in (0.5, 5.0, 1e6):
            fit(data, Hyperparams(k=3, lambda_nu=2.0, lambda_omega=lam, max_iters=4, seed=1,
                                  schedule=schedule, selector_mode=selector,
                                  lambda_mu=None if selector == "none" else 1.5))
    assert len(calls) >= 24

