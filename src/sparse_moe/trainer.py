"""EM training of the regularized mixture with per-instance expert selection.

The gate and expert M-steps are L1-constrained weighted least-squares
problems built by inverting the softmax (fitting logits to log-targets)
and handed to the batched, gap-certified active-set solver in
:mod:`sparse_moe.solver`.  Every M-step of a fit is one call of
:func:`_m_step`, which poses all of its constrained problems in one solver
call; two bools, ``gate`` and ``experts``, say which halves it solves.
Both halves read the same responsibilities and neither reads the other's
result, so the gate and expert problems form one batch, each column with
its own radius.  The k*q expert problems form one block per expert,
weighted by its responsibilities; the k gate rows share unit weights
without a selector, and otherwise each row is a block weighted by its
squared selector entries.  The fast schedule is :func:`fit`'s alone: its
inner iterations fit the experts by a ridge step
(:func:`~sparse_moe.solver.ridge_wls`) and solve the gate, and its final
pass solves the experts alone.  The selector update runs first in each
outer iteration with gate and expert weights frozen, then
responsibilities are refreshed and the M-step runs.  A fit builds, once,
what its M-steps share (:func:`_m_step_setup`): one column layout with
each column's weight block and radius, the tiled class targets and,
without a selector, the gate's unit weights and Gram matrix, all
read-only.  The gate and expert weights are the fit's: each M-step writes
its refit rows into them in place.  The set-up checks nothing: in a fit
its inputs are valid by construction, and :func:`m_step_experts` checks a
library caller's arrays at the solver's boundary.  Each M-step's batch
is a mask over the layout, handed to the engine as a
:class:`~sparse_moe.solver.WlsArrays`: no ``WlsProblem`` is built inside
the EM loop.
The selectors need no solver: the l1 selector is exact water-filling in
closed form and the l0 selector an exhaustive search over expert
subsets, both as passes over all instances at once.

The forward pass (the kernel in :mod:`sparse_moe.model`) runs once per EM
iteration: the pass that scores an iteration's objective also gives the
next iteration's responsibilities, and a selector update recomputes only
the gate probabilities, since the experts' label likelihoods do not
depend on the selector.  The E-step keeps the kernel's class-major (k, n).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, fit_scaler
from .errors import ConfigError, DataError, DimensionError, TrainingError
from .model import (
    PROB_FLOOR,
    SPARSITY_THRESHOLD,
    ExpertParams,
    ExpertSelector,
    GateParams,
    Hyperparams,
    MixtureModel,
    _check_l1_budget,
    _expert_softmax,
    _gate_softmax,
    _softmax,
    _top_class,
    enumerate_subsets,
    gate_forward,
    mixture_probs,
    prepare_inputs,
    sparsity,
    write_json,
)
from .solver import WlsArrays, WlsProblem, grams, project_l1_ball, ridge_wls, solve

EXPERT_TARGET_EPS = 1e-3
GATE_TARGET_EPS = 1e-12
DEAD_EXPERT_FRACTION = 1e-8
RIDGE = 1e-8
SELECTOR_POLICIES = ("ones", "gate-surrogate")


@dataclass(frozen=True)
class Responsibilities:
    r: np.ndarray  # (n, k), row-stochastic


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    expected_complete_ll: float
    l1_penalty_nu: float
    l1_penalty_omega: float
    selector_penalty: float
    penalized_total: float
    observed_ll: float  # sum_n log sum_i g_ni h_ni, the likelihood EM is meant to raise


@dataclass
class FitReport:
    trace: list[TraceRecord]
    iterations_run: int
    converged: bool
    sparsity: float
    selector_histogram: dict[int, int]
    constrained_solves: int  # gate and expert problems (columns, not calls)
    solver_cap_hits: int  # gate and expert solves that reached MAX_ITERS uncertified
    solver_iterations: int  # active-set rounds after a call's first, by its slowest column, summed
    solver_calls: int  # solve calls: one per M-step whose batch has columns
    solver_rounds_max: int  # the most active-set rounds after the first in one call
    dead_expert_reinits: list[list[int]]  # [iteration, expert] of each re-initialization
    objective_decreases: int  # trace records whose penalized_total fell
    observed_ll_decreases: int  # trace records whose observed_ll fell

    def to_dict(self) -> dict:
        doc = asdict(self)
        # Keys as text, so that the file lists them in text order (1, 10, 2).
        doc["selector_histogram"] = {str(k): v for k, v in self.selector_histogram.items()}
        return {"format_version": 1, **doc}

    def save(self, path) -> None:
        write_json(self.to_dict(), path)


# ---------------------------------------------------------------------------
# E-step on prepared inputs (standardized, bias appended)


def _label_index(labels, k):
    """The flat (k, n) index of p(y_n | m_i) in the kernel's (q, k, n) output."""
    n = len(labels)
    return np.arange(k * n).reshape(k, n) + np.asarray(labels) * (k * n)


def _label_probs(omega, x_mat, index):
    """p(y_n | x_n, m_i), class-major (k, n), at a :func:`_label_index`."""
    return _expert_softmax(omega, x_mat).take(index)


def _transposed(a):
    """``a.T`` as a C-ordered copy: (k, n) as (n, k) rows, or back."""
    return np.ascontiguousarray(a.T)


def _posterior(g, h):
    """Responsibilities from label likelihoods g and gate probabilities h,
    all (k, n), and each instance's evidence sum_i g_i h_i, (n,), from the same
    (floored) joint."""
    joint = np.maximum(g * h, PROB_FLOOR)
    # Summed as (n, k) rows, which NumPy adds pairwise from 8 terms on, so
    # that it rounds as the row-major code did.
    evidence = _transposed(joint).sum(axis=1)
    return joint / evidence, evidence


def e_step(model: MixtureModel, dataset: Dataset, selector: ExpertSelector) -> Responsibilities:
    """Posterior responsibility of each expert for each instance."""
    x_mat = prepare_inputs(dataset.features, model.scaler)
    g = _label_probs(model.experts.omega, x_mat, _label_index(dataset.labels, model.k))
    return Responsibilities(_posterior(g, _gate_softmax(model.gate.nu, x_mat, selector.mu))[0].T)


# ---------------------------------------------------------------------------
# surrogate targets


def build_expert_targets(labels, q):
    """Log-clamped one-hot targets: 0 at the true class,
    log(EXPERT_TARGET_EPS) elsewhere."""
    labels = np.asarray(labels, dtype=int)
    t = np.full((labels.shape[0], q), np.log(EXPERT_TARGET_EPS))
    t[np.arange(labels.shape[0]), labels] = 0.0
    return t


def build_gate_targets(r):
    """log responsibilities, clamped at GATE_TARGET_EPS to survive exact zeros."""
    return np.log(np.maximum(np.asarray(r, dtype=float), GATE_TARGET_EPS))


# ---------------------------------------------------------------------------
# M-steps

class _MStepSetup(NamedTuple):
    """What a fit fixes for its M-steps, built once by :func:`_m_step_setup`.
    The fit has one column layout: the k gate rows, then expert i's q
    class columns for each expert i.  Its weight blocks are the gate's (one
    under unit weights, otherwise one per row), then one per expert, and
    ``blocks`` and ``radius`` give each layout column's block and radius.
    A batch is a mask over the layout; it carries the gate's blocks if it
    solves a gate row and every expert's if it solves an expert column, so
    a column's block moves only by the gate's blocks."""

    x_mat: np.ndarray  # (n, p) prepared design
    targets: np.ndarray  # (k*q, n) class targets tiled per expert, class-major
    blocks: np.ndarray  # (k + k*q,)
    radius: np.ndarray  # (k + k*q,) lambda_nu for gate rows, lambda_omega for experts
    # Under unit weights (a fit without a selector), the gate's (1, n) unit
    # weights and their (1, p, p) Gram matrix; both None with a selector.
    unit: np.ndarray | None
    gram: np.ndarray | None


def _m_step_setup(x_mat, k, targets, lambda_omega, lambda_nu, unit):
    """The fixed part of M-steps on ``x_mat`` with k experts: expert
    ``targets`` of radius ``lambda_omega``, gate rows of radius
    ``lambda_nu``, sharing one unit-weight block if ``unit``.  It checks
    nothing: in a fit the design is finite, the targets are 0 and
    log(EXPERT_TARGET_EPS), a checked Hyperparams holds the radii, and the
    layout is valid by construction.  Every array it builds is read-only,
    so a write raises instead of slipping past.
    """
    n, q = targets.shape
    gate_blocks = 1 if unit else k
    ones = np.ones((1, n)) if unit else None
    built = _MStepSetup(
        x_mat,
        np.ascontiguousarray(np.tile(targets, k).T),
        np.concatenate([np.zeros(k, dtype=int) if unit else np.arange(k),
                        np.repeat(np.arange(gate_blocks, gate_blocks + k), q)]),
        np.repeat(np.array([lambda_nu, lambda_omega], dtype=float), [k, k * q]),
        ones,
        grams(x_mat, ones.T) if unit else None,
    )
    for array in built[1:]:
        if array is not None:
            array.setflags(write=False)
    return built


def _live(r):
    """Experts whose mass in (k, n) ``r`` is above DEAD_EXPERT_FRACTION of the rows."""
    return r.sum(axis=1) > DEAD_EXPERT_FRACTION * r.shape[1]


def _m_step(setup: _MStepSetup, r, live, nu, omega, mu=None, gate=True, experts=True):
    """An EM iteration's gate and expert M-steps, with all of their
    constrained problems in one solver call, written into ``nu`` and
    ``omega`` in place.

    ``setup`` holds what the fit fixes; this builds what ``r`` (k, n)
    changes: the gate targets and the experts' weights and Grams.  If
    ``gate``, gate row i is refit to minimize
    sum_n (mu_ni x_n . nu_i - log r_ni)^2, the WLS problem with weights
    mu_ni^2 and targets log r_ni / mu_ni (0 where mu_ni^2 == 0, where the
    weight drops the row); a row selected by no instance keeps its
    incumbent, and under unit weights ``mu`` is not read.  If ``experts``,
    the ``live`` experts of ``omega`` are refit in their L1 balls; the
    others keep their rows.  The steps read the same responsibilities, not
    each other's results, so their problems form one batch: a mask over
    the set-up's layout, each column with its own block and radius, built
    as (column, n) rows and handed over as ``.T`` views.  The batch goes to
    the solver as a :class:`~sparse_moe.solver.WlsArrays`, which nothing
    checks: the set-up's arrays are valid by construction, and the targets
    and weights built here from finite responsibilities are finite, the
    weights nonnegative.  Columns never mix in the solver, so each is
    solved as if alone.  Returns the call's SolveReport (gate rows
    first), or None for an empty batch (no call).
    """
    x_mat = setup.x_mat
    q, k, dp = omega.shape
    # The batch is one mask over the layout: the gate rows some instance
    # selects (all k under unit weights), then the live experts' columns.
    # Every expert's targets are the same: the first c columns serve them.
    c = q * np.count_nonzero(live) if experts else 0
    unit = setup.unit is not None
    rows = np.arange(k if gate else 0)
    if gate and not unit:
        rows = np.flatnonzero((mu != 0.0).any(axis=0))
    if not rows.size + c:
        return None
    targets, weights, gram = [], [], None
    if rows.size and unit:  # the unit block, whose Gram the set-up holds
        targets.append(build_gate_targets(r))
        weights.append(setup.unit)
        # The experts' Grams, if any, go behind it.
        gram = np.concatenate([setup.gram, grams(x_mat, r.T)]) if experts else setup.gram
    elif rows.size:  # a block per row
        mu_t = _transposed(mu)
        sel = mu_t[rows]
        targets.append(np.divide(build_gate_targets(r)[rows], sel, out=np.zeros_like(sel),
                                 where=sel * sel != 0.0))
        weights.append(mu_t * mu_t)
    if experts:
        targets.append(setup.targets[:c])
        weights.append(r)
    cols = np.zeros(len(setup.blocks), dtype=bool)
    cols[rows] = True
    cols[k:] = np.repeat(live, q) & experts
    index, radius = setup.blocks[cols], setup.radius[cols]
    if not rows.size:  # the batch leaves out the gate's blocks
        index -= setup.blocks[k]
    report = solve(WlsArrays(x_mat, np.concatenate(targets).T, np.concatenate(weights).T,
                             radius, True, False, index), gram=gram)
    if rows.size:
        nu[rows] = report.solution[:rows.size]
    if experts:
        omega[:, live] = report.solution[rows.size:].reshape(-1, q, dp).transpose(1, 0, 2)
    return report


def m_step_experts(r, x_mat, targets, lambda_omega, incumbent: ExpertParams):
    """WLS update of every (class, expert) weight vector in its L1 ball of
    radius ``lambda_omega``, in one solver call: the expert half of a fit's
    M-step (:func:`_m_step`).

    The class targets are tiled once per expert, so that expert i's q
    problems form a block weighted by its responsibilities ``r[:, i]``.
    Experts with (near) zero responsibility mass keep their incumbent rows
    and are returned as flagged for reinitialization.  Also returns the
    constrained problems' ``converged`` flags, none if every expert is dead.
    The radius is one number; ``r``, ``targets`` and ``x_mat`` must have the
    incumbent's k, q and d+1 columns.  The incumbent is left as it is.
    """
    omega = incumbent.omega.copy()
    q, k, dp = omega.shape
    if np.ndim(lambda_omega):
        raise ConfigError("lambda_omega must be one radius for every expert problem")
    for name, a, size in (("responsibilities", r, k), ("targets", targets, q),
                          ("design", x_mat, dp)):
        if np.shape(a)[1:] != (size,):
            raise DimensionError(f"{name} must be (n, {size}) for an incumbent omega of shape "
                                 f"{omega.shape}, got {np.shape(a)}")
    # The solver's checks, once, on expert 0's problems: the design, the
    # targets and the radius, with every column of r as a weight block.
    checked = WlsProblem(x_mat, targets, r, lambda_omega, bias=True, blocks=np.zeros(q, dtype=int))
    x_mat, targets, r = checked.design, checked.target, checked.row_weights
    live = _live(r.T)
    # No gate step is made, so the gate's radius (lambda_omega too) is never read.
    setup = _m_step_setup(x_mat, k, targets, lambda_omega, lambda_omega, False)
    report = _m_step(setup, r.T, live, None, omega, gate=False)
    converged = report.converged if report else np.zeros(0, dtype=bool)
    return ExpertParams(omega), np.flatnonzero(~live).tolist(), converged


# ---------------------------------------------------------------------------
# single-instance loss and analytic gradients (finite-difference checkable)


def _instance_pieces(model: MixtureModel, mu_row, x, y):
    """Gate probabilities h, responsibilities r and the mixture likelihood
    of label y for one prepared instance x."""
    h = gate_forward(model.gate, x, mu_row)
    g = _expert_softmax(model.experts.omega, np.asarray(x, dtype=float)[None])[y, :, 0]
    likelihood = g @ h
    return h, g * h / likelihood, likelihood


def instance_loss(model: MixtureModel, mu_row, x, y) -> float:
    """Negative log mixture likelihood of one prepared instance."""
    return float(-np.log(_instance_pieces(model, mu_row, x, y)[2]))


def analytic_gate_gradient(model: MixtureModel, mu_row, x, y, i):
    """Gradient of the single-instance loss with respect to gate row i."""
    x = np.asarray(x, dtype=float)
    h, r, _ = _instance_pieces(model, mu_row, x, y)
    return (h[i] - r[i]) * mu_row[i] * x


def analytic_selector_gradient(model: MixtureModel, mu_row, x, y, i) -> float:
    """Gradient of the single-instance loss with respect to selector entry i."""
    x = np.asarray(x, dtype=float)
    h, r, _ = _instance_pieces(model, mu_row, x, y)
    return float((h[i] - r[i]) * (model.gate.nu[i] @ x))


# ---------------------------------------------------------------------------
# selector M-steps


def _selector_norm0(nu, g, x_mat, budget):
    """Exhaustive search over expert subsets of size 1..budget, for all
    instances at once, given the label likelihoods g (n, k), which do not
    depend on mu.

    Subsets are scored in tuple order and a row moves to a later subset
    only on a strictly lower loss, so ties break toward the
    lexicographically smallest subset tuple.
    """
    n, k = g.shape
    scores = nu @ x_mat.T  # (k, n), class-major as in the forward kernel
    best = np.full(n, np.inf)
    mu = np.zeros((n, k))
    for subset in sorted(enumerate_subsets(k, budget)):
        indicator = np.zeros(k)
        indicator[list(subset)] = 1.0
        h = _softmax(indicator[:, None] * scores).T
        # Elementwise product + ordered sum (not a BLAS matvec), so no FMA
        # noise.  For k = 2 the mixture value is then bitwise stable under
        # expert permutation and exact ties break lexicographically; for
        # k >= 3 the sum's order still rounds, so tied subsets of
        # identical experts may differ in the last bit.
        loss = -np.log(np.maximum((h * g).sum(axis=1), PROB_FLOOR))
        better = loss < best
        best[better] = loss[better]
        mu[better] = indicator
    return mu


def m_step_selector_norm0(model: MixtureModel, dataset: Dataset, lambda_mu) -> ExpertSelector:
    x_mat = prepare_inputs(dataset.features, model.scaler)
    g = _label_probs(model.experts.omega, x_mat, _label_index(dataset.labels, model.k))
    mu = _selector_norm0(model.gate.nu, _transposed(g), x_mat, lambda_mu)
    return ExpertSelector(mu)


def _selector_norm1(nu, x_mat, r, lambda_mu):
    """Per-instance nonnegative L1-budgeted LS fit of log R to masked
    scores, in closed form.

    Row n minimizes sum_i (s_i mu_i - t_i)^2 over mu >= 0, sum(mu) <= lambda_mu,
    with scores s = nu x_n and targets t = log r_n.  The problem is
    separable under the one budget, so by its KKT conditions
    mu_i = max(a_i - tau, 0) / s_i^2 with a_i = s_i t_i.  The threshold
    tau is the weighted form of the L1-ball projection's (Duchi et al.
    2008): the largest of (sum a_i / s_i^2 - lambda_mu) / sum 1 / s_i^2
    over the j largest a_i, for every j, and 0 when the budget is slack.
    An entry whose score is 0 (to the precision of its square) does not
    enter the objective and is canonically 0.  With tiny scores the
    rounding of a_i - tau can lift a row's sum past the budget; such a row
    is scaled back onto it.
    """
    s = x_mat @ nu.T  # (n, k)
    sq = s * s
    w = np.divide(1.0, sq, out=np.zeros_like(sq), where=sq > 0.0)
    a = s * build_gate_targets(r)
    order = np.argsort(-a, axis=1)
    a_w = np.take_along_axis(a * w, order, axis=1).cumsum(axis=1)
    w_top = np.take_along_axis(w, order, axis=1).cumsum(axis=1)
    thresholds = np.divide(a_w - lambda_mu, w_top, out=np.zeros_like(a_w), where=w_top > 0.0)
    tau = thresholds.max(axis=1, keepdims=True, initial=0.0)
    mu = np.maximum(a - tau, 0.0) * w
    return mu * (lambda_mu / np.maximum(mu.sum(axis=1, keepdims=True), lambda_mu))


def m_step_selector_norm1(model: MixtureModel, r, dataset: Dataset, lambda_mu) -> ExpertSelector:
    _check_l1_budget(lambda_mu)
    x_mat = prepare_inputs(dataset.features, model.scaler)
    return ExpertSelector(_selector_norm1(model.gate.nu, x_mat, r, lambda_mu))


# ---------------------------------------------------------------------------
# objective bookkeeping


def _trace_record(iteration, g, h, nu, omega, mu):
    """The objective at (nu, omega, mu), from its forward pass: label
    likelihoods g and gate probabilities h, (k, n).  A selector-free fit's
    ``mu`` is None and carries no penalty.  Returns the record and the
    responsibilities r, which the next E-step reuses."""
    r, evidence = _posterior(g, h)
    # r (log g + log h), floored, in two scratch arrays: the sum in place,
    # and the products written in (n, k) order and summed in that order,
    # so that it rounds the same.
    logs, log_h = np.maximum(g, PROB_FLOOR), np.maximum(h, PROB_FLOOR)
    np.log(logs, out=logs)
    logs += np.log(log_h, out=log_h)
    terms = np.empty(r.shape[::-1])
    np.multiply(r, logs, out=terms.T)
    ll = float(terms.sum())
    pen_nu = float(np.abs(nu[:, :-1]).sum())
    pen_omega = float(np.abs(omega[:, :, :-1]).sum())
    pen_mu = 0.0 if mu is None else float(np.abs(mu).sum())
    record = TraceRecord(
        iteration=iteration,
        expected_complete_ll=ll,
        l1_penalty_nu=pen_nu,
        l1_penalty_omega=pen_omega,
        selector_penalty=pen_mu,
        penalized_total=ll - pen_nu - pen_omega - pen_mu,
        observed_ll=float(np.log(evidence).sum()),
    )
    if not np.isfinite(record.penalized_total):
        raise TrainingError(f"non-finite objective at iteration {iteration}")
    return record, r


def _decreases(values):
    """How many of ``values`` fall below the one before."""
    return sum(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# training loop


def _reinit_expert(rng, nu, omega, i):
    """Draw expert i's gate row and class rows afresh, in place."""
    nu[i] = rng.normal(0.0, 0.01, nu.shape[1])
    omega[:, i, :] = rng.normal(0.0, 0.01, omega[:, i, :].shape)


def fit(dataset: Dataset, hyper: Hyperparams):
    """Run EM and return the trained model plus a fit report."""
    if dataset.q < 2:
        raise DataError("fewer than 2 classes present")
    scaler = fit_scaler(dataset)
    x_mat = prepare_inputs(dataset.features, scaler)
    labels = dataset.labels
    n, dp = x_mat.shape
    k, q = hyper.k, dataset.q

    rng = np.random.default_rng(hyper.seed)
    nu = rng.normal(0.0, 0.01, (k, dp))
    omega = rng.normal(0.0, 0.01, (q, k, dp))
    # Without a selector mu is None, the forward kernel's all ones.  A k = 1
    # fit with a selector keeps an all-ones mu, which it never updates.
    mu = None if hyper.selector_mode == "none" else np.ones((n, k))
    # The fit owns its design; a write to it would bypass the solver's check.
    x_mat.setflags(write=False)
    # What every M-step shares.  Without a selector the gate's weights stay
    # unit, so its Gram matrix is the same in every iteration.
    setup = _m_step_setup(x_mat, k, build_expert_targets(labels, q), hyper.lambda_omega,
                          hyper.lambda_nu, mu is None)
    index = _label_index(labels, k)
    reinits = []  # [iteration, expert] of each re-initialization

    def reinit(iteration, experts):
        for i in experts:
            _reinit_expert(rng, nu, omega, i)
            reinits.append([iteration, int(i)])

    def forward():
        """Label likelihoods g and gate probabilities h (k, n) at the current weights."""
        return _label_probs(omega, x_mat, index), _gate_softmax(nu, x_mat, mu)

    # g, h and r always belong to the current (nu, omega, mu): each trace
    # record's forward pass serves the next iteration's E-step.
    g, h = forward()
    record, r = _trace_record(0, g, h, nu, omega, mu)
    records = [record]
    converged = False
    solved = []  # the SolveReport of each M-step that made a solver call
    # The fast schedule leaves the experts unconstrained until its final
    # pass, which takes the last of its iterations.
    fast = hyper.schedule == "fast"

    for t in range(1, hyper.max_iters - fast + 1):
        if hyper.selector_mode != "none" and k > 1:
            if hyper.selector_mode == "l0":
                mu = _selector_norm0(nu, _transposed(g), x_mat, int(hyper.lambda_mu))
            else:
                mu = _selector_norm1(nu, x_mat, _transposed(r), hyper.lambda_mu)
            # g depends on omega alone; only the gate sees the new selector.
            h = _gate_softmax(nu, x_mat, mu)
            r, _ = _posterior(g, h)

        live = _live(r)
        if not live.all():
            reinit(t, np.flatnonzero(~live))
            g, h = forward()
            r, _ = _posterior(g, h)
            live = _live(r)

        if fast:  # the live experts unconstrained; every expert's targets are the same
            c = q * np.count_nonzero(live)
            fitted = ridge_wls(x_mat, setup.targets[:c].T, r[live].T, RIDGE)
            omega[:, live] = fitted.reshape(-1, q, dp).transpose(1, 0, 2)
        report = _m_step(setup, r, live, nu, omega, mu, gate=k > 1, experts=not fast)
        solved += [report] if report else []
        reinit(t, np.flatnonzero(~live))

        g, h = forward()
        rec, r = _trace_record(t, g, h, nu, omega, mu)
        records.append(rec)
        if (abs(rec.penalized_total - records[-2].penalized_total)
                / (1.0 + abs(rec.penalized_total)) < hyper.tol):
            converged = True
            break

    if fast:
        # Final pass: the constrained expert problems are solved exactly once.
        # No re-init follows, so a dead expert's ridge rows go onto the ball.
        live = _live(r)
        report = _m_step(setup, r, live, None, omega, gate=False)
        omega[:, ~live, :-1] = project_l1_ball(omega[:, ~live, :-1], hyper.lambda_omega)
        solved += [report] if report else []
        g, h = forward()
        records.append(_trace_record(len(records), g, h, nu, omega, mu)[0])

    model = MixtureModel(GateParams(nu), ExpertParams(omega), hyper, scaler,
                         dataset.label_names)
    if mu is None:
        histogram = {k: n}
    else:
        active = (mu > SPARSITY_THRESHOLD).sum(axis=1)
        histogram = {int(c): int((active == c).sum()) for c in np.unique(active)}
    steps = [call.iterations for call in solved]
    report = FitReport(
        trace=records,
        iterations_run=len(records) - 1,
        converged=converged,
        sparsity=sparsity(model),
        selector_histogram=histogram,
        constrained_solves=sum(call.converged.size for call in solved),
        solver_cap_hits=sum(int(np.count_nonzero(~call.converged)) for call in solved),
        solver_iterations=sum(steps),
        solver_calls=len(steps),
        solver_rounds_max=max(steps, default=0),
        dead_expert_reinits=reinits,
        objective_decreases=_decreases([t.penalized_total for t in records]),
        observed_ll_decreases=_decreases([t.observed_ll for t in records]),
    )
    return model, report


# ---------------------------------------------------------------------------
# evaluation


def _policy_mu(model: MixtureModel, x_mat, policy):
    """Test-time selector of prepared rows under a selector policy.

    'ones' uses the plain mixture (None).  'gate-surrogate' builds
    provisional responsibilities from the unmasked gate (labels are
    unavailable at test time) and solves the relaxed selector problem per
    instance.
    """
    if policy == "ones":
        return None
    if policy not in SELECTOR_POLICIES:
        raise ConfigError(f"unknown selector policy {policy!r}")
    if model.hyper.lambda_mu is None:
        raise ConfigError("gate-surrogate policy requires a model with lambda_mu")
    h = _gate_softmax(model.gate.nu, x_mat, None).T
    return _selector_norm1(model.gate.nu, x_mat, h, model.hyper.lambda_mu)


def predict_proba_batch(model: MixtureModel, features, policy="ones"):
    """Mixture class probabilities (n, q) of raw feature rows under a
    test-time selector policy (one of SELECTOR_POLICIES)."""
    x_mat = prepare_inputs(features, model.scaler)
    return mixture_probs(model, x_mat, _policy_mu(model, x_mat, policy))


def to_model_classes(model: MixtureModel, dataset: Dataset) -> Dataset:
    """The dataset with its class ids renumbered to the model's class tokens.

    A token the model does not know is a DataError; a subset of its tokens
    is fine.  A model without tokens takes the data's ids as they are, and
    must have as many classes.  A dataset whose tokens are already the
    model's is returned as is, without a copy.
    """
    if model.labels is None:
        if dataset.q != model.q:
            raise DataError(f"model expects q={model.q}; data has q={dataset.q}")
        return dataset
    if dataset.label_names == model.labels:
        return dataset
    ids = {token: c for c, token in enumerate(model.labels)}
    unknown = [t for t in dataset.label_names if t not in ids]
    if unknown:
        raise DataError(f"class tokens {unknown} are not among the model's {list(model.labels)}")
    remap = np.array([ids[t] for t in dataset.label_names])
    return Dataset(dataset.features, remap[dataset.labels], model.labels)


def _score(model: MixtureModel, dataset: Dataset, policy):
    """The dataset in the model's classes, its class-major (q, n) probabilities
    under a selector policy and each row's class: what evaluate and predict use."""
    dataset = to_model_classes(model, dataset)
    probs = predict_proba_batch(model, dataset.features, policy).T
    return dataset, probs, _top_class(probs)


def evaluate(model: MixtureModel, dataset: Dataset, selector_policy="ones") -> dict:
    """Accuracy and mean negative log-likelihood under a test-time selector
    policy, with the dataset's classes matched to the model's by token."""
    dataset, probs, top = _score(model, dataset, selector_policy)
    labels, n = dataset.labels, dataset.n
    accuracy = float((top == labels).mean())
    true_p = np.maximum(probs.take(labels * n + np.arange(n)), PROB_FLOOR)
    nll = float(-np.log(true_p).mean())
    return {"accuracy": accuracy, "nll": nll}
