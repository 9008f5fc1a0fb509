"""The solver's engine against its checked boundary, byte for byte.

A fit checks its fixed arrays once and hands each M-step's batch to the
engine as a ``WlsArrays``, and its ridge steps to ``ridge_wls``, without
building a ``WlsProblem`` or running the boundary's checks.  Here the
engine must give the same solution, objective, gap and converged bytes
and the same iteration count as ``solve(WlsProblem(...))``, and
``ridge_wls`` the same bytes as ``unconstrained_wls``: on the random
batches of ``test_solve_bits`` and on every batch that short fits hand
over.  A fit's batches must also pass the boundary's checks unchanged, and
the Gram stack a fit hands in must be the one ``grams`` builds.
"""

import numpy as np
import pytest

from sparse_moe import Hyperparams, WlsProblem, fit, generate_synthetic, preset_spec
from sparse_moe import solver, trainer
from sparse_moe.solver import WlsArrays, grams, ridge_wls, solve, unconstrained_wls
from test_solve_bits import random_batch, same_report


def arrays(problem):
    """A checked problem's arrays, as a caller that checked them hands them over."""
    return WlsArrays(problem.design, problem.target, problem.row_weights, problem.radius,
                     problem.bias, problem.nonnegative, problem.blocks)


@pytest.mark.parametrize("degenerate", [False, True], ids=["plain", "degenerate"])
@pytest.mark.parametrize("nonneg", [False, True], ids=["ball", "nonneg"])
@pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])
def test_random_batches_engine_matches_boundary(monkeypatch, bias, nonneg, degenerate):
    monkeypatch.setattr(solver, "MAX_ITERS", 100)  # degenerate batches end at the cap
    for seed in range(40):
        problem = random_batch(seed, bias, nonneg, degenerate)
        want = solve(problem)
        same_report(solve(arrays(problem)), want)
        same_report(solve(arrays(problem), gram=grams(problem.design, problem.row_weights)),
                    want)


def test_random_ridge_engine_matches_boundary(rng):
    for _ in range(40):
        m, p, g, c = (int(v) for v in rng.integers(1, [30, 8, 4, 4]))
        a = rng.normal(0, 1, (m + p, p))
        b = rng.normal(0, 1, (m + p, g * c))
        w = rng.uniform(0.0, 2.0, (m + p, g))
        ridge = float(rng.choice([1e-8, 1e-3, 1.0]))
        assert (ridge_wls(a, b, w, ridge).tobytes()
                == unconstrained_wls(a, b, w, ridge=ridge).tobytes())


@pytest.mark.parametrize("selector_mode, lambda_mu", [("none", None), ("l0", 1), ("l1", 1.5)])
def test_fit_batches_engine_matches_boundary(monkeypatch, selector_mode, lambda_mu):
    seen = {"solve": 0, "ridge_wls": 0}
    real_solve, real_ridge = trainer.solve, trainer.ridge_wls

    def solve_spy(problem, *, gram=None):
        report = real_solve(problem, gram=gram)
        seen["solve"] += 1
        assert isinstance(problem, WlsArrays)
        checked = WlsProblem(*problem)
        # The boundary accepts the batch and keeps its arrays as they are.
        for name in ("design", "target", "row_weights", "radius", "blocks"):
            assert getattr(checked, name) is getattr(problem, name), name
        assert not problem.design.flags.writeable
        if gram is not None:
            assert gram.tobytes() == grams(problem.design, problem.row_weights).tobytes()
        same_report(report, solve(checked, gram=gram))
        same_report(report, solve(checked))
        return report

    def ridge_spy(design, target, row_weights, ridge):
        fitted = real_ridge(design, target, row_weights, ridge)
        seen["ridge_wls"] += 1
        assert fitted.tobytes() == unconstrained_wls(design, target, row_weights,
                                                     ridge=ridge).tobytes()
        return fitted

    monkeypatch.setattr(trainer, "solve", solve_spy)
    monkeypatch.setattr(trainer, "ridge_wls", ridge_spy)
    data = generate_synthetic(preset_spec("noisy-subspace", 40, 4, seed=3))
    for schedule in ("full", "fast"):
        for lam in (0.5, 5.0, 1e6):
            fit(data, Hyperparams(k=3, lambda_nu=2.0, lambda_omega=lam, max_iters=4, seed=1,
                                  schedule=schedule, selector_mode=selector_mode,
                                  lambda_mu=lambda_mu))
    assert seen["solve"] >= 24 and seen["ridge_wls"] >= 9
