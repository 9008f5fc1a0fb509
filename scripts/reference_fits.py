"""Reference fits: the SHA-256 of every model file and fit report of one
fixed matrix of fits, and of each model's predictions on its training data.

Run it on two checkouts and compare the output, to check that a change
keeps training outputs byte-identical:

    PYTHONPATH=src python3 scripts/reference_fits.py > hashes.txt

It prints one line per model file and report, then a digest line, the
SHA-256 of those lines; then one line per fit for the bytes of
``predict_proba_batch(model, data.features)``, then a digest line over
those.  Hashes depend on the NumPy and BLAS build, so compare runs made
with the same build and the same BLAS thread count.

The matrix, 73 fits (data: preset, rows per cluster, noise dims, data seed):
  * sweep: noisy-subspace 150/8, data seeds 11, 12 and 13; k=4,
    lambda_nu=5, lambda_omega 0.5/1/2/5/1e6, 10 and 30 iterations;
  * grouped: grouped-four 100/0, seed 4; k=4, radii 5; no selector, l0
    (budget 1) and l1 (budget 1.5), full and fast schedules;
  * xor: two-cluster-xor 100/0, seed 7; k=1/2/3, radii 5, full and fast;
  * dead: noisy-subspace 25/4, seed 2; k=4, radii 2, 6 iterations, with
    DEAD_EXPERT_FRACTION 0.2/0.22/0.24/0.25/0.26, so that experts are
    re-initialized mid-fit; no selector, l0 and l1 as above, full and fast;
  * wide-fast: noisy-subspace 2500/38, seed 1; k=4, lambda_nu=5,
    lambda_omega=2, 5 iterations, fast schedule.
Fits take the Hyperparams defaults for what the matrix does not name
(30 iterations, model seed 0 where none is given).
"""

import hashlib
import tempfile
from pathlib import Path

from sparse_moe import (Hyperparams, fit, generate_synthetic, predict_proba_batch,
                        preset_spec, save_model)
from sparse_moe import trainer

SCHEDULES = ("full", "fast")
SELECTORS = {
    "none": {},
    "l0": {"selector_mode": "l0", "lambda_mu": 1},
    "l1": {"selector_mode": "l1", "lambda_mu": 1.5},
}


def _data(preset, n_per_cluster, noise_dims, seed):
    return generate_synthetic(preset_spec(preset, n_per_cluster, noise_dims=noise_dims,
                                          seed=seed))


def matrix():
    """Each fit's name, dataset, Hyperparams keywords and dead-expert
    fraction (None for the library's)."""
    for seed in (11, 12, 13):
        data = _data("noisy-subspace", 150, 8, seed)
        for iters in (10, 30):
            for radius in (0.5, 1.0, 2.0, 5.0, 1e6):
                yield (f"sweep-s{seed}-it{iters}-r{radius:g}", data,
                       dict(k=4, lambda_nu=5.0, lambda_omega=radius, seed=1, max_iters=iters),
                       None)
    data = _data("grouped-four", 100, 0, 4)
    for schedule in SCHEDULES:
        for selector, extra in SELECTORS.items():
            yield (f"grouped-{selector}-{schedule}", data,
                   dict(k=4, lambda_nu=5.0, lambda_omega=5.0, seed=1, schedule=schedule,
                        **extra), None)
    data = _data("two-cluster-xor", 100, 0, 7)
    for schedule in SCHEDULES:
        for k in (1, 2, 3):
            yield (f"xor-k{k}-{schedule}", data,
                   dict(k=k, lambda_nu=5.0, lambda_omega=5.0, seed=7, schedule=schedule), None)
    data = _data("noisy-subspace", 25, 4, 2)
    for fraction in (0.2, 0.22, 0.24, 0.25, 0.26):
        for schedule in SCHEDULES:
            for selector, extra in SELECTORS.items():
                yield (f"dead-{fraction:g}-{selector}-{schedule}", data,
                       dict(k=4, lambda_nu=2.0, lambda_omega=2.0, seed=1, max_iters=6,
                            schedule=schedule, **extra), fraction)
    yield ("wide-fast", _data("noisy-subspace", 2500, 38, 1),
           dict(k=4, lambda_nu=5.0, lambda_omega=2.0, seed=1, max_iters=5, schedule="fast"),
           None)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main():
    lines, predictions = [], []
    default_fraction = trainer.DEAD_EXPERT_FRACTION
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for name, data, kwargs, fraction in matrix():
                trainer.DEAD_EXPERT_FRACTION = fraction or default_fraction
                model, report = fit(data, Hyperparams(**kwargs))
                model_path = Path(tmp) / f"{name}.model.json"
                report_path = Path(tmp) / f"{name}.report.json"
                save_model(model, model_path)
                report.save(report_path)
                for path in (model_path, report_path):
                    lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
                    print(lines[-1])
                probs = predict_proba_batch(model, data.features)
                predictions.append(f"{hashlib.sha256(probs.tobytes()).hexdigest()}  "
                                   f"{name}.predict_proba")
        finally:
            trainer.DEAD_EXPERT_FRACTION = default_fraction
    print(f"# {len(lines) // 2} fits, {len(lines)} files; sha256 of the lines above: "
          f"{_digest(lines)}")
    print("\n".join(predictions))
    print(f"# {len(predictions)} predictions; sha256 of the prediction lines above: "
          f"{_digest(predictions)}")


if __name__ == "__main__":
    main()
