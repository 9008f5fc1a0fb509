"""EM training of the regularized mixture with per-instance expert selection.

The gate and expert M-steps are L1-constrained weighted least-squares
problems built by inverting the softmax (fitting logits to log-targets)
and handed to the batched, gap-certified active-set solver in
:mod:`sparse_moe.solver`.  Every M-step of a fit, on either schedule, is
one call of one helper, which poses all of its constrained problems in one
solver call: both M-steps read the same responsibilities and neither reads
the other's result, so the gate and expert problems form one batch, each
column with its own radius.  The k*q expert problems form one block per
expert, weighted by its responsibilities; the k gate rows share unit
weights under an all-ones selector, and otherwise each row is a block
weighted by its squared selector entries.  The fast schedule's inner
iterations fit the experts unconstrained (a plain WLS call) and its final
pass the experts alone.  The selector update runs first in each outer
iteration with gate and expert weights frozen, then
responsibilities are refreshed and the gate and expert subproblems are
solved.  Without a selector the gate problems' weights never change, so
a fit builds their Gram matrix once and stacks it on each iteration's
expert Grams.
The selectors need no solver: the l1 selector is exact water-filling in
closed form and the l0 selector an exhaustive search over expert
subsets, both as passes over all instances at once.

The forward pass (the kernel in :mod:`sparse_moe.model`) runs once per EM
iteration: the pass that scores an iteration's objective also gives the
next iteration's responsibilities, and a selector update recomputes only
the gate probabilities, since the experts' label likelihoods do not
depend on the selector.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, fit_scaler
from .errors import ConfigError, DataError, TrainingError
from .model import (
    PROB_FLOOR,
    SPARSITY_THRESHOLD,
    ExpertParams,
    ExpertSelector,
    GateParams,
    Hyperparams,
    MixtureModel,
    enumerate_subsets,
    expert_class_probs,
    gate_forward,
    gate_probs,
    mixture_probs,
    prepare_inputs,
    sparsity,
    write_json,
)
from .solver import WlsProblem, grams, solve, unconstrained_wls

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

    def to_dict(self) -> dict:
        doc = asdict(self)
        # Keys as text, so that the file lists them in text order (1, 10, 2).
        doc["selector_histogram"] = {str(k): v for k, v in self.selector_histogram.items()}
        return {"format_version": 1, **doc}

    def save(self, path) -> None:
        write_json(self.to_dict(), path)


# ---------------------------------------------------------------------------
# E-step on prepared inputs (standardized, bias appended)


def _label_probs(omega, x_mat, labels):
    """p(y_n | x_n, m_i) as an (n, k) matrix."""
    return expert_class_probs(omega, x_mat)[np.arange(x_mat.shape[0]), labels]


def _posterior(g, h):
    """Responsibilities from label likelihoods g and gate probabilities h,
    and each row's evidence sum_i g_i h_i, (n, 1), from the same (floored)
    joint."""
    joint = np.maximum(g * h, PROB_FLOOR)
    evidence = joint.sum(axis=1, keepdims=True)
    return joint / evidence, evidence


def e_step(model: MixtureModel, dataset: Dataset, selector: ExpertSelector) -> Responsibilities:
    """Posterior responsibility of each expert for each instance."""
    x_mat = prepare_inputs(dataset.features, model.scaler)
    g = _label_probs(model.experts.omega, x_mat, dataset.labels)
    return Responsibilities(_posterior(g, gate_probs(model.gate.nu, x_mat, selector.mu))[0])


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

def _m_step(r, x_mat, nu, omega, mu=None, lambda_nu=None, targets=None, lambda_omega=None,
            gate_gram=None):
    """The gate and expert M-steps of an EM iteration, with all of their
    constrained problems in one solver call.

    The gate rows ``nu`` are refit when ``lambda_nu`` is given (see
    :func:`m_step_gate`), the experts ``omega`` when ``targets`` are (see
    :func:`m_step_experts`; ``lambda_omega`` None fits them unconstrained).
    The two read the same responsibilities, not each other's results, and
    their problems share the design and the free bias, so they form one
    batch: the gate's weight blocks first, then one block per live expert,
    each column with its own radius.  ``gate_gram``, the ``(1, p, p)`` Gram
    stack of the gate's unit weights, is for a caller that refits the gate
    under an all-ones selector; the constrained expert blocks' Grams are
    stacked on it.  Columns never mix in the solver, so every row is what a
    call of its own would give.  Returns the new gate and expert
    weights, the experts flagged for reinitialization, the constrained
    problems' ``converged`` flags, gate rows first, and the solver call's
    ``iterations``: its active-set rounds after the first (0 when it made
    none).
    """
    n, dp = x_mat.shape
    # Each constrained part: targets, row weights, weight block of each
    # column, warm start, radius.
    parts = []
    if lambda_nu is not None:
        nu = nu.copy()
        rows = np.flatnonzero((mu != 0.0).any(axis=0))
        sel = mu[:, rows]
        unit = np.all(mu == 1.0)
        gate_targets = np.divide(build_gate_targets(r)[:, rows], sel, out=np.zeros_like(sel),
                                 where=sel * sel != 0.0)
        if unit:  # one block: the rows share unit weights
            parts.append((gate_targets, np.ones((n, 1)), np.zeros(len(rows), dtype=int),
                          nu[rows], lambda_nu))
        else:  # a block per row
            parts.append((gate_targets, sel * sel, np.arange(len(rows)), nu[rows], lambda_nu))
    flagged = []
    gram = gate_gram
    if targets is not None:
        omega = omega.copy()
        q = targets.shape[1]
        live = r.sum(axis=0) > DEAD_EXPERT_FRACTION * n
        flagged = np.flatnonzero(~live).tolist()
        tiled = np.tile(targets, int(live.sum()))
        r_live = r[:, live]
        if lambda_omega is None:
            fitted = unconstrained_wls(x_mat, tiled, r_live, ridge=RIDGE)
            omega[:, live] = fitted.reshape(-1, q, dp).transpose(1, 0, 2)
        else:  # a block per live expert
            warm = omega[:, live].transpose(1, 0, 2).reshape(-1, dp)
            parts.append((tiled, r_live, np.repeat(np.arange(r_live.shape[1]), q), warm,
                          lambda_omega))
            if gram is not None:
                gram = np.concatenate([gram, grams(x_mat, r_live)])
    converged, steps = np.ones(0, dtype=bool), 0
    if parts:
        t, w, index, warm, radius = zip(*parts)
        offsets = np.cumsum([0] + [wi.shape[1] for wi in w[:-1]])
        problem = WlsProblem(x_mat, np.concatenate(t, axis=1), np.concatenate(w, axis=1),
                             np.repeat(radius, [ti.shape[1] for ti in t]), (dp - 1,),
                             blocks=np.concatenate([i + o for i, o in zip(index, offsets)]))
        report = solve(problem, warm_start=np.concatenate(warm), gram=gram)
        solution, converged, steps = report.solution, report.converged, report.iterations
        if lambda_nu is not None:
            nu[rows], solution = solution[:len(rows)], solution[len(rows):]
        if targets is not None and lambda_omega is not None:
            omega[:, live] = solution.reshape(-1, q, dp).transpose(1, 0, 2)
    return nu, omega, flagged, converged, steps


def m_step_experts(r, x_mat, targets, lambda_omega, incumbent: ExpertParams):
    """WLS update of every (class, expert) weight vector, in one solver call.

    The class targets are tiled once per expert, so that expert i's q
    problems form a block weighted by its responsibilities ``r[:, i]``.
    They are constrained to the L1 ball of radius ``lambda_omega`` and
    warm-started from the incumbent, or, when ``lambda_omega`` is None (the
    fast schedule's inner iterations), unconstrained with a small ridge.
    Experts with (near) zero responsibility mass keep their incumbent rows
    and are returned as flagged for reinitialization.  Also returns the
    constrained problems' ``converged`` flags (none when unconstrained).
    """
    _, omega, flagged, converged, _ = _m_step(r, x_mat, None, incumbent.omega, targets=targets,
                                              lambda_omega=lambda_omega)
    return ExpertParams(omega), flagged, converged


def m_step_gate(r, x_mat, mu, lambda_nu, incumbent: GateParams):
    """Constrained LS fit of gated gate logits to log-responsibilities, in
    one solver call.

    Gate row i minimizes sum_n (mu_ni x_n . nu_i - log r_ni)^2, the WLS
    problem with weights mu_ni^2 and targets log r_ni / mu_ni (0 where
    mu_ni^2 == 0, where the weight drops the row).  With an all-ones
    selector the k rows share unit weights, and so one Gram matrix.  A gate
    selected by no instance keeps its incumbent row.  Also returns the
    solved rows' ``converged`` flags.  :func:`fit` makes this step through
    the same helper, together with the expert step.
    """
    nu, _, _, converged, _ = _m_step(r, x_mat, incumbent.nu, None, mu, lambda_nu)
    return GateParams(nu), converged


# ---------------------------------------------------------------------------
# single-instance loss and analytic gradients (finite-difference checkable)


def _instance_pieces(model: MixtureModel, mu_row, x, y):
    """Gate probabilities h, responsibilities r and the mixture likelihood
    of label y for one prepared instance x."""
    h = gate_forward(model.gate, x, mu_row)
    g = expert_class_probs(model.experts.omega, np.asarray(x, dtype=float)[None])[0, y]
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
    scores = x_mat @ nu.T  # (n, k)
    best = np.full(n, np.inf)
    mu = np.zeros((n, k))
    for subset in sorted(enumerate_subsets(k, budget)):
        indicator = np.zeros(k)
        indicator[list(subset)] = 1.0
        logits = indicator * scores
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        h = e / e.sum(axis=1, keepdims=True)
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
    budget = int(lambda_mu)
    x_mat = prepare_inputs(dataset.features, model.scaler)
    g = _label_probs(model.experts.omega, x_mat, dataset.labels)
    mu = _selector_norm0(model.gate.nu, g, x_mat, budget)
    return ExpertSelector(mu, "l0")


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
    if not lambda_mu > 0:
        raise ConfigError("selector budget lambda_mu must be positive")
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
    x_mat = prepare_inputs(dataset.features, model.scaler)
    return ExpertSelector(_selector_norm1(model.gate.nu, x_mat, r, lambda_mu), "l1")


# ---------------------------------------------------------------------------
# objective bookkeeping


def _trace_record(iteration, g, h, nu, omega, mu, selector_mode):
    """The objective at (nu, omega, mu), from its forward pass: label
    likelihoods g and gate probabilities h.  Returns the record and the
    responsibilities r, which the next E-step reuses."""
    r, evidence = _posterior(g, h)
    ll = float(
        np.sum(r * (np.log(np.maximum(g, PROB_FLOOR)) + np.log(np.maximum(h, PROB_FLOOR))))
    )
    pen_nu = float(np.abs(nu[:, :-1]).sum())
    pen_omega = float(np.abs(omega[:, :, :-1]).sum())
    pen_mu = 0.0 if selector_mode == "none" else float(np.abs(mu).sum())
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


# ---------------------------------------------------------------------------
# training loop


def fit(dataset: Dataset, hyper: Hyperparams):
    """Run EM and return the trained model plus a fit report."""
    hyper.validate()
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
    mu = np.ones((n, k))
    expert_targets = build_expert_targets(labels, q)

    def reinit_expert(i):
        nu[i] = rng.normal(0.0, 0.01, dp)
        omega[:, i, :] = rng.normal(0.0, 0.01, (q, dp))

    def forward():
        """Label likelihoods g and gate probabilities h at the current weights."""
        return _label_probs(omega, x_mat, labels), gate_probs(nu, x_mat, mu)

    # g, h and r always belong to the current (nu, omega, mu): each trace
    # record's forward pass serves the next iteration's E-step.
    g, h = forward()
    record, r = _trace_record(0, g, h, nu, omega, mu, hyper.selector_mode)
    records = [record]
    prev_total = record.penalized_total
    converged = False
    solved = []  # each M-step's converged flags and solver steps
    iterations_run = 0
    # Without a selector the gate's weights stay unit, so its Gram matrix
    # is the same in every iteration: build it once.
    gate_gram = None
    if hyper.selector_mode == "none" and k > 1:
        gate_gram = grams(x_mat, np.ones((n, 1)))
    # The fast schedule leaves the experts unconstrained until its final
    # pass, which takes the last of its iterations.
    fast = hyper.schedule == "fast"
    lambda_omega = None if fast else hyper.lambda_omega

    for t in range(1, hyper.max_iters - fast + 1):
        iterations_run = t
        if hyper.selector_mode != "none" and k > 1:
            if hyper.selector_mode == "l0":
                mu = _selector_norm0(nu, g, x_mat, int(hyper.lambda_mu))
            else:
                mu = _selector_norm1(nu, x_mat, r, hyper.lambda_mu)
            # g depends on omega alone; only the gate sees the new selector.
            h = gate_probs(nu, x_mat, mu)
            r, _ = _posterior(g, h)

        dead = np.flatnonzero(r.sum(axis=0) < DEAD_EXPERT_FRACTION * n)
        if dead.size:
            for i in dead:
                reinit_expert(i)
            g, h = forward()
            r, _ = _posterior(g, h)

        nu, omega, flagged, *result = _m_step(
            r, x_mat, nu, omega, mu, hyper.lambda_nu if k > 1 else None, expert_targets,
            lambda_omega, gate_gram=gate_gram
        )
        solved.append(result)
        for i in flagged:
            reinit_expert(i)

        g, h = forward()
        rec, r = _trace_record(t, g, h, nu, omega, mu, hyper.selector_mode)
        records.append(rec)
        if abs(rec.penalized_total - prev_total) / (1.0 + abs(rec.penalized_total)) < hyper.tol:
            converged = True
            break
        prev_total = rec.penalized_total

    if fast:
        # Final pass: the constrained expert problems are solved exactly once.
        _, omega, _, *result = _m_step(r, x_mat, nu, omega, targets=expert_targets,
                                       lambda_omega=hyper.lambda_omega)
        solved.append(result)
        iterations_run += 1
        g, h = forward()
        records.append(_trace_record(iterations_run, g, h, nu, omega, mu, hyper.selector_mode)[0])

    model = MixtureModel(GateParams(nu), ExpertParams(omega), hyper, scaler,
                         dataset.label_names)
    active = (mu > SPARSITY_THRESHOLD).sum(axis=1)
    histogram = {int(c): int((active == c).sum()) for c in np.unique(active)}
    flags, steps = zip(*solved)
    converged_flags = np.concatenate(flags)
    report = FitReport(
        trace=records,
        iterations_run=iterations_run,
        converged=converged,
        sparsity=sparsity(model),
        selector_histogram=histogram,
        constrained_solves=converged_flags.size,
        solver_cap_hits=int(np.count_nonzero(~converged_flags)),
        solver_iterations=sum(steps),
    )
    return model, report


# ---------------------------------------------------------------------------
# evaluation


def _policy_mu(model: MixtureModel, x_mat, policy):
    """Test-time selector of prepared rows under a selector policy.

    'ones' uses the plain mixture.  'gate-surrogate' builds provisional
    responsibilities from the unmasked gate (labels are unavailable at
    test time) and solves the relaxed selector problem per instance.
    """
    ones = np.ones((x_mat.shape[0], model.k))
    if policy == "ones":
        return ones
    if policy not in SELECTOR_POLICIES:
        raise ConfigError(f"unknown selector policy {policy!r}")
    if model.hyper.lambda_mu is None:
        raise ConfigError("gate-surrogate policy requires a model with lambda_mu")
    h = gate_probs(model.gate.nu, x_mat, ones)
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


def evaluate(model: MixtureModel, dataset: Dataset, selector_policy="ones") -> dict:
    """Accuracy and mean negative log-likelihood under a test-time selector
    policy (see :func:`predict_proba_batch`), with the dataset's classes
    matched to the model's by token (see :func:`to_model_classes`)."""
    dataset = to_model_classes(model, dataset)
    probs = predict_proba_batch(model, dataset.features, selector_policy)
    accuracy = float((probs.argmax(axis=1) == dataset.labels).mean())
    true_p = np.maximum(probs[np.arange(dataset.n), dataset.labels], PROB_FLOOR)
    nll = float(-np.log(true_p).mean())
    return {"accuracy": accuracy, "nll": nll}
