"""Which library bindings the traced run wraps, and the per-layer metrics
derived from the spans it records.

Span totals are reported per traced job (unit ``s/job`` or ``count/job``).
Solver figures count only solves made inside ``fit``; solves made by the
standalone selector calls and by ``gate-surrogate`` scoring show up under
``trainer.*`` and ``trainer.evaluate`` instead.  ``cflop`` is a flop count
computed from problem shapes and iteration counts, not a measurement.
"""

from __future__ import annotations

import statistics

from tracing import Target, self_times

TARGETS = (
    Target("sparse_moe.trainer", "fit", "trainer.fit"),
    Target("sparse_moe.cli", "fit", "trainer.fit"),
    Target("sparse_moe.trainer", "m_step_gate", "trainer.m_step_gate"),
    Target("sparse_moe.trainer", "m_step_experts", "trainer.m_step_experts"),
    Target("sparse_moe.trainer", "e_step", "trainer.e_step"),
    Target("sparse_moe.trainer", "m_step_selector_norm0", "trainer.m_step_selector_norm0"),
    Target("sparse_moe.trainer", "m_step_selector_norm1", "trainer.m_step_selector_norm1"),
    Target("sparse_moe.trainer", "evaluate", "trainer.evaluate"),
    Target("sparse_moe.trainer", "solve", "solver.solve"),
    Target("sparse_moe.trainer", "unconstrained_wls", "solver.unconstrained_wls"),
    Target("sparse_moe.solver", "project_l1_ball", "solver.project_l1_ball", leaf=True),
    Target("sparse_moe.trainer", "prepare_inputs", "model.prepare_inputs"),
    Target("sparse_moe.model", "prepare_inputs", "model.prepare_inputs"),
    Target("sparse_moe.cli", "prepare_inputs", "model.prepare_inputs"),
    Target("sparse_moe.model", "predict_proba", "model.predict_proba"),
    Target("sparse_moe.model", "save_model", "model.save_model"),
    Target("sparse_moe.cli", "save_model", "model.save_model"),
    Target("sparse_moe.cli", "load_model", "model.load_model"),
    Target("sparse_moe.cli", "load_dataset", "data.load_dataset"),
    Target("sparse_moe.data", "save_dataset", "data.save_dataset"),
    Target("sparse_moe.data", "generate_synthetic", "data.generate_synthetic"),
)

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "solver.solve.calls": "count/job",
    "solver.solve.s": "s/job",
    "solver.solve.self_s": "s/job",
    "solver.solve.iters": "count/job",
    "solver.solve.iters_p50": "count",
    "solver.solve.iters_max": "count",
    "solver.solve.cap_hits": "count/job",
    "solver.solve.us_per_iter": "us",
    "solver.solve.flops": "cflop/job",
    "solver.project_l1_ball.calls": "count/job",
    "solver.project_l1_ball.s": "s/job",
    "solver.unconstrained_wls.calls": "count/job",
    "solver.unconstrained_wls.s": "s/job",
    "trainer.fit.s": "s/job",
    "trainer.fit.self_s": "s/job",
    "trainer.fit.em_iters": "count/job",
    "trainer.fit.objective_decreases": "count/job",
    "trainer.fit.ends_below_start": "count/job",
    "trainer.m_step_gate.calls": "count/job",
    "trainer.m_step_gate.s": "s/job",
    "trainer.m_step_experts.calls": "count/job",
    "trainer.m_step_experts.s": "s/job",
    "trainer.e_step.us": "us",
    "trainer.m_step_selector_norm0.us": "us",
    "trainer.m_step_selector_norm1.us": "us",
    "trainer.evaluate.s": "s/job",
    "trainer.evaluate.surrogate_rows_per_s": "rows/s",
    "model.predict_proba.calls": "count/job",
    "model.predict_proba.s": "s/job",
    "model.prepare_inputs.calls": "count/job",
    "model.prepare_inputs.s": "s/job",
    "model.save_model.s": "s/job",
    "model.load_model.s": "s/job",
    "data.load_dataset.s": "s/job",
    "data.load_dataset.rows_per_s": "rows/s",
    "data.save_dataset.s": "s",
    "data.generate_synthetic.s": "s/job",
    "cli.main.predict.s": "s/job",
    "cli.main.predict.self_s": "s/job",
    "split.solve_share_of_fit": "ratio",
    "split.fit_self_share": "ratio",
    "trace.overhead_s": "s/job",
    "trace.overhead_share": "ratio",
    "trace.jobs": "count",
    "trace.absent": "count",
}

POWER_STEPS = 30  # solver.POWER_STEPS at the commit this benchmark was written for


def solve_flops(m, p, iters, power_steps=POWER_STEPS):
    """Flops of one projected-gradient solve on an (m, p) design: the
    weighted Gram matrix and right-hand side, the power iteration, and per
    iteration one Gram product plus O(p) vector work and the projection."""
    setup = 2 * m * p * p + 5 * m * p + power_steps * 4 * p * p
    return setup + iters * (2 * p * p + 15 * p)


class Counters:
    """What the hooks read off wrapped calls, keyed by span id."""

    def __init__(self, solver_module):
        self.max_iters = getattr(solver_module, "MAX_ITERS", None)
        self.power_steps = getattr(solver_module, "POWER_STEPS", POWER_STEPS)
        self.solve = {}  # span id -> (iterations, flops)
        self.fit = {}  # span id -> (em iterations, objective decreases, ended below start)

    def on_solve(self, span, args, kwargs, result):
        problem = args[0] if args else kwargs["problem"]
        m, p = problem.design.shape
        its = int(result.iterations)
        self.solve[span.span_id] = (its, solve_flops(m, p, its, self.power_steps))

    def on_fit(self, span, args, kwargs, result):
        report = result[1]
        totals = [t.penalized_total for t in report.trace]
        drops = sum(1 for a, b in zip(totals, totals[1:]) if b < a)
        self.fit[span.span_id] = (int(report.iterations_run), drops, int(totals[-1] <= totals[0]))

    def hooks(self):
        return {"solver.solve": self.on_solve, "trainer.fit": self.on_fit}


def _under(spans, root_name):
    """Ids of spans that have an ancestor (or are themselves) named root_name."""
    by_id = {s.span_id: s for s in spans}
    memo = {}

    def inside(s):
        if s.span_id not in memo:
            parent = by_id.get(s.parent_id)
            memo[s.span_id] = s.name == root_name or (parent is not None and inside(parent))
        return memo[s.span_id]

    return {s.span_id for s in spans if inside(s)}


def per_layer(tracer, counters: Counters, jobs: int, overhead: list, untraced: list,
              absent: int, rows_loaded: int, surrogate_rows_per_s: list) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    in_fit = _under(spans, "trainer.fit")

    def dur(s):
        return s.end - s.start

    def named(name, only_fit=False):
        return [s for s in spans if s.name == name and (not only_fit or s.span_id in in_fit)]

    def total(name, only_fit=False):
        return sum(dur(s) for s in named(name, only_fit))

    def mean_us(name):
        ss = named(name)
        return 1e6 * sum(map(dur, ss)) / len(ss) if ss else 0.0

    solves = named("solver.solve", only_fit=True)
    iters = [counters.solve[s.span_id][0] for s in solves if s.span_id in counters.solve]
    flops = sum(counters.solve[s.span_id][1] for s in solves if s.span_id in counters.solve)
    fits = named("trainer.fit")
    fit_s = sum(map(dur, fits))
    fit_self = sum(selfs[s.span_id] for s in fits)
    solve_s = sum(map(dur, solves))
    leaf_in_fit = [s for s in spans if s.span_id in in_fit]
    em = [counters.fit[s.span_id] for s in fits if s.span_id in counters.fit]
    cli = named("cli.main.predict")
    load_s = total("data.load_dataset")
    untraced_s = statistics.median(untraced) if untraced else 0.0
    over = statistics.median(overhead) if overhead else 0.0
    j = max(jobs, 1)

    values = {
        "solver.solve.calls": len(solves) / j,
        "solver.solve.s": solve_s / j,
        "solver.solve.self_s": sum(selfs[s.span_id] for s in solves) / j,
        "solver.solve.iters": sum(iters) / j,
        "solver.solve.iters_p50": statistics.median(iters) if iters else 0,
        "solver.solve.iters_max": max(iters) if iters else 0,
        "solver.solve.cap_hits": sum(1 for i in iters if i == counters.max_iters) / j,
        "solver.solve.us_per_iter": 1e6 * solve_s / sum(iters) if sum(iters) else 0.0,
        "solver.solve.flops": flops / j,
        "solver.project_l1_ball.calls": sum(s.leaf_n for s in leaf_in_fit) / j,
        "solver.project_l1_ball.s": sum(s.leaf_s for s in leaf_in_fit) / j,
        "solver.unconstrained_wls.calls": len(named("solver.unconstrained_wls")) / j,
        "solver.unconstrained_wls.s": total("solver.unconstrained_wls") / j,
        "trainer.fit.s": fit_s / j,
        "trainer.fit.self_s": fit_self / j,
        "trainer.fit.em_iters": sum(e[0] for e in em) / j,
        "trainer.fit.objective_decreases": sum(e[1] for e in em) / j,
        "trainer.fit.ends_below_start": sum(e[2] for e in em) / j,
        "trainer.m_step_gate.calls": len(named("trainer.m_step_gate")) / j,
        "trainer.m_step_gate.s": total("trainer.m_step_gate") / j,
        "trainer.m_step_experts.calls": len(named("trainer.m_step_experts")) / j,
        "trainer.m_step_experts.s": total("trainer.m_step_experts") / j,
        "trainer.e_step.us": mean_us("trainer.e_step"),
        "trainer.m_step_selector_norm0.us": mean_us("trainer.m_step_selector_norm0"),
        "trainer.m_step_selector_norm1.us": mean_us("trainer.m_step_selector_norm1"),
        "trainer.evaluate.s": total("trainer.evaluate") / j,
        "trainer.evaluate.surrogate_rows_per_s": (
            statistics.median(surrogate_rows_per_s) if surrogate_rows_per_s else 0.0),
        "model.predict_proba.calls": len(named("model.predict_proba")) / j,
        "model.predict_proba.s": total("model.predict_proba") / j,
        "model.prepare_inputs.calls": len(named("model.prepare_inputs")) / j,
        "model.prepare_inputs.s": total("model.prepare_inputs") / j,
        "model.save_model.s": total("model.save_model") / j,
        "model.load_model.s": total("model.load_model") / j,
        "data.load_dataset.s": load_s / j,
        "data.load_dataset.rows_per_s": rows_loaded / load_s if load_s else 0.0,
        "data.save_dataset.s": total("data.save_dataset"),
        "data.generate_synthetic.s": total("data.generate_synthetic") / j,
        "cli.main.predict.s": sum(map(dur, cli)) / j,
        "cli.main.predict.self_s": sum(selfs[s.span_id] for s in cli) / j,
        "split.solve_share_of_fit": solve_s / fit_s if fit_s else 0.0,
        "split.fit_self_share": fit_self / fit_s if fit_s else 0.0,
        "trace.overhead_s": over,
        "trace.overhead_share": over / untraced_s if untraced_s else 0.0,
        "trace.jobs": jobs,
        "trace.absent": absent,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
