"""The benchmark's workloads: what one job trains, and why.

A job generates one training set from the run's seed, fits it (the timed
part, ``train_s``), saves the headline model and then scores it.  Each
workload stresses a different layer; BENCHMARK.json repeats the reasons.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n_per_cluster: int
    noise_dims: int
    # One Hyperparams keyword set per fit in a job; the seed is added per job.
    fits: tuple
    # Index of the fits a job's headline model is chosen from (best final
    # penalized objective among them).
    headline_from: tuple = (0,)
    # Layer split the workload was chosen for, checked in the traced run:
    # (">=" or "<=", bound) on split.solve_share_of_fit.
    solve_share: tuple = (">=", 0.80)
    # Timing metrics whose work is passes over large arrays rather than many
    # small operations from Python; machine.py's array calibration scales
    # them, the loop calibration every other timing.
    array_bound: tuple = ()
    # Once per run, also fit acceptance criterion 5's pinned configuration
    # with these radii and check the informative-dimension mass of the
    # headline model and of the last, unregularized fit.
    criterion5: bool = False


def _fit(**kw):
    base = {"k": 4, "lambda_nu": 5.0, "lambda_omega": 5.0}
    base.update(kw)
    return base


SWEEP_RADII = (0.5, 1.0, 2.0, 5.0, 1e6)

WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-5 sweep: mid-size (m=600, p=11) solves at tight and
        # inactive radii; solver.solve is nearly all of train_s.  Ten EM
        # iterations rather than the acceptance suite's 30 keep a job near
        # one second, so that a run's median covers many training sets.
        Workload(
            name="subspace-sweep",
            preset="noisy-subspace",
            n_per_cluster=150,
            noise_dims=8,
            fits=tuple(_fit(lambda_omega=lam, max_iters=10) for lam in SWEEP_RADII),
            headline_from=(0, 1, 2, 3),
            criterion5=True,
        ),
        # Large, wide data on the fast schedule: E-step, trace, plain WLS,
        # CSV I/O and prediction outweigh the solver.
        Workload(
            name="wide-fast",
            preset="noisy-subspace",
            n_per_cluster=2500,
            noise_dims=38,
            fits=(_fit(lambda_omega=2.0, max_iters=5, schedule="fast"),),
            solve_share=("<=", 0.40),
            array_bound=("train_s", "predict_rows_per_s"),
        ),
    )
}
