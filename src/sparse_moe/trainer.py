"""EM training of the regularized mixture with per-instance expert selection.

Every M-step is an L1-constrained weighted least-squares problem built by
inverting the softmax (fitting logits to log-targets) and handed to the
batched, gap-certified FISTA engine in :mod:`sparse_moe.solver`: one call
per expert covers its q class problems, and one call covers all k gate
rows when the selector is all ones.  The selector update runs first in
each outer iteration with gate and expert weights frozen, then
responsibilities are refreshed and the gate and expert subproblems are
solved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .data import Dataset, fit_scaler
from .errors import ConfigError, TrainingError
from .model import (
    PROB_FLOOR,
    ExpertParams,
    ExpertSelector,
    GateParams,
    Hyperparams,
    MixtureModel,
    prepare_inputs,
)
from .solver import SolveReport, WlsProblem, enumerate_subsets, solve, unconstrained_wls

EXPERT_TARGET_EPS = 1e-3
GATE_TARGET_EPS = 1e-12
DEAD_EXPERT_FRACTION = 1e-8
RIDGE = 1e-8
SPARSITY_THRESHOLD = 1e-6


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


@dataclass
class FitReport:
    trace: list[TraceRecord]
    iterations_run: int
    converged: bool
    sparsity: float
    selector_histogram: dict[int, int]
    constrained_solves: int  # gate and expert problems (columns, not calls)
    solver_cap_hits: int  # solves, selector ones included, that reached MAX_ITERS uncertified

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "trace": [asdict(r) for r in self.trace],
            "iterations_run": self.iterations_run,
            "converged": self.converged,
            "sparsity": self.sparsity,
            "selector_histogram": {str(k): v for k, v in self.selector_histogram.items()},
            "constrained_solves": self.constrained_solves,
            "solver_cap_hits": self.solver_cap_hits,
        }

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )


@dataclass
class SolveTally:
    """Constrained problems solved (columns, not calls) and how many of
    them stopped at the iteration cap without a certificate."""

    problems: int = 0
    cap_hits: int = 0

    @classmethod
    def of(cls, report: SolveReport) -> "SolveTally":
        converged = np.atleast_1d(report.converged)
        return cls(converged.size, int(np.count_nonzero(~converged)))

    def __add__(self, other: "SolveTally") -> "SolveTally":
        return SolveTally(self.problems + other.problems, self.cap_hits + other.cap_hits)


# ---------------------------------------------------------------------------
# vectorized forward pieces on prepared inputs (standardized, bias appended)


def _gate_probs(nu, x_mat, mu):
    logits = mu * (x_mat @ nu.T)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _expert_class_probs(omega, x_mat):
    """p(y=c_l | x_n, m_i) as an (n, q, k) tensor."""
    logits = np.einsum("nd,qkd->nqk", x_mat, omega)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _label_probs(omega, x_mat, labels):
    """p(y_n | x_n, m_i) as an (n, k) matrix."""
    full = _expert_class_probs(omega, x_mat)
    return full[np.arange(x_mat.shape[0]), labels, :]


def _responsibilities(nu, omega, x_mat, labels, mu) -> np.ndarray:
    g = _label_probs(omega, x_mat, labels)
    h = _gate_probs(nu, x_mat, mu)
    joint = np.maximum(g * h, PROB_FLOOR)
    return joint / joint.sum(axis=1, keepdims=True)


def e_step(model: MixtureModel, dataset: Dataset, selector: ExpertSelector) -> Responsibilities:
    """Posterior responsibility of each expert for each instance."""
    x_mat = prepare_inputs(dataset.features, model.scaler)
    r = _responsibilities(model.gate.nu, model.experts.omega, x_mat, dataset.labels, selector.mu)
    return Responsibilities(r)


# ---------------------------------------------------------------------------
# surrogate targets


def build_expert_targets(labels, q, eps=EXPERT_TARGET_EPS):
    """Log-clamped one-hot targets: 0 at the true class, log(eps) elsewhere."""
    if not 0.0 < eps < 1.0:
        raise ConfigError("expert target eps must lie in (0, 1)")
    labels = np.asarray(labels, dtype=int)
    t = np.full((labels.shape[0], q), np.log(eps))
    t[np.arange(labels.shape[0]), labels] = 0.0
    return t


def build_gate_targets(r, eps=GATE_TARGET_EPS):
    """log responsibilities, clamped at eps to survive exact zeros."""
    return np.log(np.maximum(np.asarray(r, dtype=float), eps))


# ---------------------------------------------------------------------------
# M-steps


def m_step_experts(r, x_mat, targets, lambda_omega, incumbent: ExpertParams):
    """Constrained WLS update of every (class, expert) weight vector.

    The q class problems of an expert share its design and weights and
    are solved in one batched call, warm-started from the incumbent.
    Experts with (near) zero responsibility mass keep their incumbent rows
    and are returned as flagged for reinitialization.
    """
    n, k = r.shape
    dp = x_mat.shape[1]
    omega = incumbent.omega.copy()
    flagged = []
    tally = SolveTally()
    for i in range(k):
        w = r[:, i]
        if w.sum() <= DEAD_EXPERT_FRACTION * n:
            flagged.append(i)
            continue
        problem = WlsProblem(x_mat, targets, w, lambda_omega, free_coords=(dp - 1,))
        report = solve(problem, warm_start=omega[:, i])
        omega[:, i] = report.solution
        tally += SolveTally.of(report)
    return ExpertParams(omega), flagged, tally


def _unregularized_experts(r, x_mat, targets, incumbent: ExpertParams):
    """Plain ridge-stabilized WLS expert update (fast-schedule inner iterations)."""
    n, k = r.shape
    q = targets.shape[1]
    omega = incumbent.omega.copy()
    flagged = []
    for i in range(k):
        w = r[:, i]
        if w.sum() <= DEAD_EXPERT_FRACTION * n:
            flagged.append(i)
            continue
        for l in range(q):
            omega[l, i] = unconstrained_wls(x_mat, targets[:, l], w, ridge=RIDGE)
    return ExpertParams(omega), flagged


def m_step_gate(r, x_mat, mu, lambda_nu, incumbent: GateParams):
    """Constrained LS fit of gated gate logits to log-responsibilities.

    Rows with mu == 0 contribute constant residuals and are dropped; a
    gate selected by no instance keeps its incumbent row.  With an
    all-ones selector every row has the same design and unit weights, so
    the k rows are solved in one batched call.
    """
    targets = build_gate_targets(r)
    k = incumbent.nu.shape[0]
    dp = x_mat.shape[1]
    nu = incumbent.nu.copy()
    if np.all(mu == 1.0):
        problem = WlsProblem(x_mat, targets, np.ones(x_mat.shape[0]), lambda_nu,
                             free_coords=(dp - 1,))
        report = solve(problem, warm_start=nu)
        return GateParams(report.solution), SolveTally.of(report)
    tally = SolveTally()
    for i in range(k):
        active = mu[:, i] != 0.0
        if not active.any():
            continue
        design = mu[active, i, None] * x_mat[active]
        weights = np.ones(int(active.sum()))
        problem = WlsProblem(design, targets[active, i], weights, lambda_nu, free_coords=(dp - 1,))
        report = solve(problem, warm_start=nu[i])
        nu[i] = report.solution
        tally += SolveTally.of(report)
    return GateParams(nu), tally


# ---------------------------------------------------------------------------
# single-instance loss and analytic gradients (finite-difference checkable)


def instance_loss(model: MixtureModel, mu_row, x, y) -> float:
    """Negative log mixture likelihood of one prepared instance."""
    from .model import expert_forward, gate_forward

    h = gate_forward(model.gate, x, mu_row)
    g = np.array([expert_forward(model.experts, i, x)[y] for i in range(model.k)])
    return float(-np.log(g @ h))


def _instance_pieces(model, mu_row, x, y):
    from .model import expert_forward, gate_forward

    h = gate_forward(model.gate, x, mu_row)
    g = np.array([expert_forward(model.experts, i, x)[y] for i in range(model.k)])
    r = g * h / (g @ h)
    return h, r


def analytic_gate_gradient(model: MixtureModel, mu_row, x, y, i):
    """Gradient of the single-instance loss with respect to gate row i."""
    x = np.asarray(x, dtype=float)
    h, r = _instance_pieces(model, mu_row, x, y)
    return (h[i] - r[i]) * mu_row[i] * x


def analytic_selector_gradient(model: MixtureModel, mu_row, x, y, i) -> float:
    """Gradient of the single-instance loss with respect to selector entry i."""
    x = np.asarray(x, dtype=float)
    h, r = _instance_pieces(model, mu_row, x, y)
    return float((h[i] - r[i]) * (model.gate.nu[i] @ x))


# ---------------------------------------------------------------------------
# selector M-steps


def _selector_norm0(nu, omega, x_mat, labels, budget):
    """Per-instance exhaustive search over expert subsets of size 1..budget.

    Ties break toward the lexicographically smallest subset tuple.
    """
    n = x_mat.shape[0]
    k = nu.shape[0]
    subsets = list(enumerate_subsets(k, budget))
    indicators = np.zeros((len(subsets), k))
    for s, sub in enumerate(subsets):
        indicators[s, list(sub)] = 1.0
    g = _label_probs(omega, x_mat, labels)  # (n, k), independent of mu
    scores = x_mat @ nu.T  # (n, k)
    mu = np.zeros((n, k))
    for idx in range(n):
        logits = indicators * scores[idx]
        logits = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        h = e / e.sum(axis=1, keepdims=True)
        # Elementwise product + ordered sum (not a BLAS matvec): keeps the
        # mixture value bitwise stable under expert permutation so exact
        # ties break lexicographically instead of on 1-ulp FMA noise.
        losses = -np.log(np.maximum((h * g[idx]).sum(axis=1), PROB_FLOOR))
        best = 0
        for s in range(1, len(subsets)):
            if losses[s] < losses[best] or (
                losses[s] == losses[best] and subsets[s] < subsets[best]
            ):
                best = s
        mu[idx, list(subsets[best])] = 1.0
    return mu


def m_step_selector_norm0(model: MixtureModel, dataset: Dataset, lambda_mu) -> ExpertSelector:
    budget = int(lambda_mu)
    x_mat = prepare_inputs(dataset.features, model.scaler)
    mu = _selector_norm0(model.gate.nu, model.experts.omega, x_mat, dataset.labels, budget)
    return ExpertSelector(mu, "l0")


def _selector_norm1(nu, x_mat, r, lambda_mu, incumbent=None):
    """Per-instance nonnegative L1-budgeted LS fit of log R to masked scores.

    Returns the selector and the tally of its solves.
    """
    n, k = r.shape
    scores = x_mat @ nu.T
    targets = build_gate_targets(r)
    mu = np.zeros((n, k))
    tally = SolveTally()
    for idx in range(n):
        s = scores[idx]
        if np.max(np.abs(s)) == 0.0:
            continue  # objective independent of mu: canonical all-zero row
        problem = WlsProblem(
            np.diag(s), targets[idx], np.ones(k), lambda_mu, nonnegative=True
        )
        warm = np.ones(k) if incumbent is None else incumbent[idx]
        report = solve(problem, warm_start=warm)
        mu[idx] = report.solution
        tally += SolveTally.of(report)
    return mu, tally


def m_step_selector_norm1(
    model: MixtureModel, r, dataset: Dataset, lambda_mu, incumbent=None
) -> ExpertSelector:
    if isinstance(r, Responsibilities):
        r = r.r
    x_mat = prepare_inputs(dataset.features, model.scaler)
    mu, _ = _selector_norm1(model.gate.nu, x_mat, r, lambda_mu, incumbent)
    return ExpertSelector(mu, "l1")


# ---------------------------------------------------------------------------
# objective bookkeeping


def _trace_record(iteration, nu, omega, mu, x_mat, labels, selector_mode) -> TraceRecord:
    g = _label_probs(omega, x_mat, labels)
    h = _gate_probs(nu, x_mat, mu)
    r = _responsibilities(nu, omega, x_mat, labels, mu)
    ll = float(
        np.sum(r * (np.log(np.maximum(g, PROB_FLOOR)) + np.log(np.maximum(h, PROB_FLOOR))))
    )
    pen_nu = float(np.abs(nu[:, :-1]).sum())
    pen_omega = float(np.abs(omega[:, :, :-1]).sum())
    pen_mu = 0.0 if selector_mode == "none" else float(np.abs(mu).sum())
    return TraceRecord(
        iteration=iteration,
        expected_complete_ll=ll,
        l1_penalty_nu=pen_nu,
        l1_penalty_omega=pen_omega,
        selector_penalty=pen_mu,
        penalized_total=ll - pen_nu - pen_omega - pen_mu,
    )


# ---------------------------------------------------------------------------
# training loop


def fit(dataset: Dataset, hyper: Hyperparams):
    """Run EM and return the trained model plus a fit report."""
    hyper.validate()
    scaler = fit_scaler(dataset)
    x_mat = prepare_inputs(dataset.features, scaler)
    labels = dataset.labels
    n, dp = x_mat.shape
    k, q = hyper.k, dataset.q

    rng = np.random.default_rng(hyper.seed)
    nu = rng.normal(0.0, 0.01, (k, dp))
    omega = rng.normal(0.0, 0.01, (q, k, dp))
    mu = np.ones((n, k))
    expert_targets = build_expert_targets(labels, q)

    def reinit_expert(i):
        nu[i] = rng.normal(0.0, 0.01, dp)
        omega[:, i, :] = rng.normal(0.0, 0.01, (q, dp))

    records = [_trace_record(0, nu, omega, mu, x_mat, labels, hyper.selector_mode)]
    prev_total = records[0].penalized_total
    converged = False
    solves = SolveTally()  # gate and expert M-steps
    selector_cap_hits = 0
    iterations_run = 0

    inner_iters = hyper.max_iters if hyper.schedule == "full" else hyper.max_iters - 1
    for t in range(1, inner_iters + 1):
        iterations_run = t
        if hyper.selector_mode == "l0" and k > 1:
            mu = _selector_norm0(nu, omega, x_mat, labels, int(hyper.lambda_mu))
        elif hyper.selector_mode == "l1" and k > 1:
            r_pre = _responsibilities(nu, omega, x_mat, labels, mu)
            mu, selector = _selector_norm1(nu, x_mat, r_pre, hyper.lambda_mu, incumbent=mu)
            selector_cap_hits += selector.cap_hits

        r = _responsibilities(nu, omega, x_mat, labels, mu)
        dead = np.flatnonzero(r.sum(axis=0) < DEAD_EXPERT_FRACTION * n)
        if dead.size:
            for i in dead:
                reinit_expert(i)
            r = _responsibilities(nu, omega, x_mat, labels, mu)

        if k > 1:
            gate, used = m_step_gate(r, x_mat, mu, hyper.lambda_nu, GateParams(nu))
            nu = gate.nu
            solves += used

        if hyper.schedule == "full":
            experts, flagged, used = m_step_experts(
                r, x_mat, expert_targets, hyper.lambda_omega, ExpertParams(omega)
            )
            solves += used
        else:
            experts, flagged = _unregularized_experts(
                r, x_mat, expert_targets, ExpertParams(omega)
            )
        omega = experts.omega
        for i in flagged:
            reinit_expert(i)

        rec = _trace_record(t, nu, omega, mu, x_mat, labels, hyper.selector_mode)
        if not np.isfinite(rec.penalized_total):
            raise TrainingError(f"non-finite objective at iteration {t}")
        records.append(rec)
        if abs(rec.penalized_total - prev_total) / (1.0 + abs(rec.penalized_total)) < hyper.tol:
            converged = True
            prev_total = rec.penalized_total
            break
        prev_total = rec.penalized_total

    if hyper.schedule == "fast":
        # Final pass: the constrained expert problems are solved exactly once.
        r = _responsibilities(nu, omega, x_mat, labels, mu)
        experts, flagged, used = m_step_experts(
            r, x_mat, expert_targets, hyper.lambda_omega, ExpertParams(omega)
        )
        omega = experts.omega
        solves += used
        iterations_run += 1
        rec = _trace_record(
            iterations_run, nu, omega, mu, x_mat, labels, hyper.selector_mode
        )
        if not np.isfinite(rec.penalized_total):
            raise TrainingError(f"non-finite objective at iteration {iterations_run}")
        records.append(rec)

    model = MixtureModel(GateParams(nu), ExpertParams(omega), hyper, scaler)
    weights = np.concatenate(
        [np.abs(nu[:, :-1]).ravel(), np.abs(omega[:, :, :-1]).ravel()]
    )
    sparsity = float(np.mean(weights < SPARSITY_THRESHOLD))
    active = (mu > SPARSITY_THRESHOLD).sum(axis=1)
    histogram = {int(c): int((active == c).sum()) for c in np.unique(active)}
    report = FitReport(
        trace=records,
        iterations_run=iterations_run,
        converged=converged,
        sparsity=sparsity,
        selector_histogram=histogram,
        constrained_solves=solves.problems,
        solver_cap_hits=solves.cap_hits + selector_cap_hits,
    )
    return model, report


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model: MixtureModel, dataset: Dataset, selector_policy="ones") -> dict:
    """Accuracy and mean negative log-likelihood under a test-time selector policy.

    'ones' uses the plain mixture.  'gate-surrogate' builds provisional
    responsibilities from the unmasked gate (labels are unavailable at
    test time) and solves the relaxed selector problem per instance.
    """
    x_mat = prepare_inputs(dataset.features, model.scaler)
    n = x_mat.shape[0]
    if selector_policy == "ones":
        mu = np.ones((n, model.k))
    elif selector_policy == "gate-surrogate":
        if model.hyper.lambda_mu is None:
            raise ConfigError("gate-surrogate policy requires a model with lambda_mu")
        h = _gate_probs(model.gate.nu, x_mat, np.ones((n, model.k)))
        mu, _ = _selector_norm1(model.gate.nu, x_mat, h, model.hyper.lambda_mu)
    else:
        raise ConfigError(f"unknown selector policy {selector_policy!r}")
    h = _gate_probs(model.gate.nu, x_mat, mu)
    full = _expert_class_probs(model.experts.omega, x_mat)  # (n, q, k)
    probs = np.einsum("nqk,nk->nq", full, h)
    preds = probs.argmax(axis=1)
    accuracy = float((preds == dataset.labels).mean())
    true_p = np.maximum(probs[np.arange(n), dataset.labels], PROB_FLOOR)
    nll = float(-np.log(true_p).mean())
    return {"accuracy": accuracy, "nll": nll}
