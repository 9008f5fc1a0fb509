"""sparse-moe benchmark: one workload, one seed, a closed loop of jobs.

Run from the repository root:

    python3 perfbench/run.py --workload subspace-sweep --seed 1 --seconds 45 --trace 0

One client runs jobs back to back (each starts when the previous one ends)
for ``--seconds``, and untraced always at least ``QUALITY_JOBS`` of them.  A job
generates a training set from the seed, fits it (``train_s``), saves the
headline model and hashes it, scores it on a held-out set through the
batched, per-row, gate-surrogate and CLI paths, and checks every output.
BLAS is pinned to one thread and everything runs in this one process; the
library is imported from ``src/`` of the checkout.  A job's model file must
hash the same as in the first run of that workload, seed and job with the
same library sources in this checkout (hashes are kept in
``.bench_out/model_hashes.json``, keyed by a SHA-256 of ``src/sparse_moe``).
The criterion-5 sweep also runs the acceptance suite's pinned criterion-5
fits once per run, untimed, and checks their informative-dimension masses.

Every timing is also reported at a fixed reference speed: before each
fit, each scoring and each timed set-up the run times the calibrations of
``machine.py``, fixed pieces of NumPy and Python work outside the library,
and scales each sample taken until the next calibration by the matching
calibration's reference time over its time now (a fit, by the mean of the
calibrations just before and after it).  The end-to-end timing
metrics are medians of the scaled samples; the medians as measured are
printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` fits each job
once untraced and once with spans recorded around the library's public
functions, and prints the per-layer metrics (see ``layers.py``); spans are
written to ``.bench_out/``.  Human-readable lines (every metric with its
unit and sample count, machine facts, check failures) come first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

import layers  # noqa: E402
import machine  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparse_moe"
OUT = ROOT / ".bench_out"
LIB_MODULES = (
    "sparse_moe",
    "sparse_moe.data",
    "sparse_moe.model",
    "sparse_moe.solver",
    "sparse_moe.trainer",
    "sparse_moe.cli",
)

QUALITY_JOBS = 30  # quality metrics average these first jobs, so they are fixed per seed
HELDOUT_PER_CLUSTER = 500  # held-out and test sets have at least this many rows per cluster
TRAIN, HELDOUT, TEST = 0, 1, 2  # roles of the generated sets
SETUP_REPS = 11  # spread evenly over the run
BATCH_ROWS = 30_000  # batched scoring repeats evaluate, timed as one block, over at least this many rows
ROW_SAMPLE = 256  # held-out rows scored one at a time
SURROGATE_SAMPLE = 16  # held-out rows scored with gate-surrogate
L0_SAMPLE = 256  # training rows given to the standalone E-step and l0 selector
L1_SAMPLE = 16  # of those, rows given to the l1 selector (one solve per row)
L0_BUDGET = 2
L1_BUDGET = 1.5  # selector budget for models trained without one
SELECTOR_TOL = 1e-9
ROW_TOL = 1e-12  # per-row predict_proba vs the batched reference
PRINT_RTOL = 1e-8  # CLI output is printed with 9 significant digits
# Acceptance criterion 5, pinned as in the acceptance suite: seed-11 data,
# model seed 1, 30 EM iterations; the best-objective tuned radius must put
# at least 0.70 of the expert weight mass on the two informative
# dimensions, and the unregularized fit less than 0.50.
CRIT5_DATA_SEED, CRIT5_MODEL_SEED, CRIT5_ITERS = 11, 1, 30
CRIT5_TUNED_MIN, CRIT5_UNREGULARIZED_MAX = 0.70, 0.50

# final_objective is the negated sum, over a job's fits, of the last
# TraceRecord.penalized_total: a positive penalized negative log-likelihood,
# so that a bound expressed as a share of it keeps its meaning.  Quality
# metrics (final_objective, test_*) are means over the first QUALITY_JOBS
# jobs.  Timing metrics are medians of samples scaled to the reference
# speed.  On a shared host the speed of the same work drifts by up to 2x
# over tens of seconds, longer than a run, and work made of small
# operations from Python drifts more than passes over large arrays.  On
# 45-second windows of identical fits, the spread (quartile distance over
# median) of the fit time was 0.36 for the sweep and 0.18 for wide-fast;
# divided by the loop or array calibration time of the same window, 0.034
# and 0.02.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "peak_rss_mb": "MB",
    "final_objective": "nats",
    "test_accuracy": "fraction",
    "test_nll": "nats",
    "predict_rows_per_s": "rows/s",
    "predict_row_us": "us",
    "cli_predict_s": "s",
}
TIMINGS = ("setup_s", "train_s", "predict_rows_per_s", "predict_row_us", "cli_predict_s")
RATES = ("predict_rows_per_s",)


def sub_seed(*keys) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def import_library() -> dict:
    """Fresh import of the package (NumPy stays loaded), so setup can be
    timed more than once in a process."""
    for name in [m for m in sys.modules if m == "sparse_moe" or m.startswith("sparse_moe.")]:
        del sys.modules[name]
    lib = {}
    for name in LIB_MODULES:
        try:
            lib[name] = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name != name:
                raise
            # A removed module: its traced bindings are reported as absent.
    return lib


def softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_proba(model, features):
    """Mixture class probabilities computed from the model's fields alone."""
    x = (features - model.scaler.mean) / model.scaler.std
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    gate = softmax(x @ model.gate.nu.T)  # (n, k)
    experts = softmax(np.einsum("nd,qkd->nkq", x, model.experts.omega))  # (n, k, q)
    return np.einsum("nk,nkq->nq", gate, experts)


def near_ties(probs, margin=1e-9):
    top2 = np.sort(probs, axis=1)[:, -2:]
    return int(np.sum(top2[:, 1] - top2[:, 0] <= margin))


def informative_mass(model):
    w = np.abs(model.experts.omega[:, :, :-1])
    return float(w[:, :, :2].sum() / w.sum())


class Run:
    def __init__(self, wl, seed, trace):
        self.wl = wl
        self.seed = seed
        self.wi = list(WORKLOADS).index(wl.name)
        self.out = OUT / f"{wl.name}-{seed}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.samples = {name: [] for name in END_TO_END}  # as measured
        self.scaled = {name: [] for name in TIMINGS}  # at the reference speed
        self.calibration = {"loop": [], "array": []} if wl.array_bound else {"loop": []}
        self.surrogate_rows_per_s: list[float] = []
        self.quality = {"final_objective": [], "test_accuracy": [], "test_nll": []}
        self.crit5 = None
        self.fits = 0
        self.fell: list[str] = []  # fits whose objective ended at or below its start
        self.tracer = tracing.Tracer() if trace else None
        self.counters = None
        self.untraced: list[float] = []
        self.overhead: list[float] = []
        self.absent: list = []
        self.rows_loaded = 0
        self.store_path = OUT / "model_hashes.json"
        self.store = json.loads(self.store_path.read_text()) if self.store_path.exists() else {}
        # Hashes are only ever compared between runs of the same workload
        # definition and the same library sources.
        code = repr(wl) + machine.library_digest(PACKAGE)
        self.fingerprint = hashlib.sha256(code.encode()).hexdigest()[:16]

    # -- accounting ---------------------------------------------------------

    def calibrate(self):
        for kind, times in self.calibration.items():
            times.append(machine.CALIBRATIONS[kind][0](np))

    def record(self, name, value, calibrations=1):
        """Keep a timing sample as measured and scaled to the reference
        speed by the mean of the latest ``calibrations`` of its kind."""
        self.samples[name].append(value)
        kind = "array" if name in self.wl.array_bound else "loop"
        factor = machine.CALIBRATIONS[kind][1] / statistics.fmean(self.calibration[kind][-calibrations:])
        self.scaled[name].append(value / factor if name in RATES else value * factor)

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}".rstrip(": "))
            print(f"check failed: {name} {detail}", file=sys.stderr)
        return bool(ok)

    # -- set-up -------------------------------------------------------------

    def make_inputs(self):
        data = self.lib["sparse_moe.data"]
        self.heldout, _ = self.draw(HELDOUT)
        self.csv = self.out / "heldout.csv"
        data.save_dataset(self.heldout, self.csv)
        n = self.heldout.n
        self.row_idx = np.linspace(0, n - 1, ROW_SAMPLE).astype(int)
        sur = np.linspace(0, n - 1, SURROGATE_SAMPLE).astype(int)
        self.surrogate_set = data.Dataset(
            self.heldout.features[sur], self.heldout.labels[sur], self.heldout.label_names
        )

    def setup(self):
        """Import the library and make the inputs.  Untraced, this is timed
        and repeated between jobs (see :meth:`setup_due`), so that ``setup_s``
        is a median over the whole run rather than one noisy instant."""
        if self.tracer is None:
            self.calibrate()
            t0 = time.perf_counter()
            self.lib = import_library()
            self.make_inputs()
            self.record("setup_s", time.perf_counter() - t0)
        else:
            self.lib = import_library()
            self.counters = layers.Counters(self.lib.get("sparse_moe.solver"))
            with self.traced():
                self.make_inputs()

    def setup_due(self, elapsed, seconds):
        done = len(self.samples["setup_s"])
        return self.tracer is None and done < SETUP_REPS and elapsed >= done * seconds / SETUP_REPS

    def traced(self):
        return tracing.installed(self.tracer, layers.TARGETS, self.lib, self.counters.hooks())

    # -- one job ------------------------------------------------------------

    def draw(self, role, j=0):
        """A synthetic set from the workload's preset, seeded by the run's
        seed, the workload, the set's role and the job number."""
        data = self.lib["sparse_moe.data"]
        seed = sub_seed(self.seed, self.wi, role, j)
        n = self.wl.n_per_cluster if role == TRAIN else max(self.wl.n_per_cluster, HELDOUT_PER_CLUSTER)
        spec = data.preset_spec(self.wl.preset, n, self.wl.noise_dims, seed=seed)
        return data.generate_synthetic(spec), seed

    def fit_all(self, train, seed):
        hyper = self.lib["sparse_moe.model"].Hyperparams
        trainer = self.lib["sparse_moe.trainer"]
        t0 = time.perf_counter()
        results = [trainer.fit(train, hyper(seed=seed, **kw)) for kw in self.wl.fits]
        return results, time.perf_counter() - t0

    def job(self, j):
        if self.tracer is None:
            train, seed = self.draw(TRAIN, j)
            self.calibrate()
            results, train_s = self.fit_all(train, seed)
            self.attempted += 1  # the fit; one that raises is counted by the loop
            self.calibrate()  # brackets the fit, and precedes the scoring samples
            self.record("train_s", train_s, calibrations=2)
            self.score(j, train, results)
            return
        train, seed = self.draw(TRAIN, j)
        _, untraced_s = self.fit_all(train, seed)
        self.tracer.job_id = j
        with self.traced() as absent:
            train, seed = self.draw(TRAIN, j)
            results, traced_s = self.fit_all(train, seed)
            self.attempted += 1
            self.score(j, train, results)
        self.tracer.job_id = -1
        self.absent = absent
        self.untraced.append(untraced_s)
        self.overhead.append(traced_s - untraced_s)

    def score(self, j, train, results):
        wl = self.wl
        trainer, model_mod = self.lib["sparse_moe.trainer"], self.lib["sparse_moe.model"]
        model, _ = max((results[i] for i in wl.headline_from),
                       key=lambda r: r[1].trace[-1].penalized_total)

        for i, (_, report) in enumerate(results):
            totals = [t.penalized_total for t in report.trace]
            self.check(f"fit {i} trace finite", np.all(np.isfinite(totals)))
            # EM under the log-target surrogate is not monotone, so a fit
            # cut off at a few iterations can end below its start: counted
            # and reported, not treated as a wrong output.
            self.fits += 1
            if totals[-1] <= totals[0]:
                self.fell.append(f"job {j} fit {i}: {totals[0]:.6g} -> {totals[-1]:.6g}")

        # Determinism: the same job at the same seed must save the same bytes.
        path = self.out / "model.json"
        model_mod.save_model(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        key = f"{wl.name}/{self.seed}/{j}/{self.fingerprint}"
        first = self.store.setdefault(key, digest)
        self.check("model hash matches first run", digest == first, key)

        ref = reference_proba(model, self.heldout.features)
        if j < QUALITY_JOBS:
            self.quality["final_objective"].append(
                -sum(r.trace[-1].penalized_total for _, r in results))

        # Batched scoring, policy "ones".
        reps = -(-BATCH_ROWS // self.heldout.n)
        t0 = time.perf_counter()
        for _ in range(reps):
            metrics = trainer.evaluate(model, self.heldout)
        if self.tracer is None:
            self.record("predict_rows_per_s", reps * self.heldout.n / (time.perf_counter() - t0))
        labels = self.heldout.labels
        acc_ref = float(np.mean(ref.argmax(axis=1) == labels))
        nll_ref = float(-np.log(np.maximum(ref[np.arange(len(labels)), labels], 1e-12)).mean())
        self.check("evaluate accuracy matches reference",
                   abs(metrics["accuracy"] - acc_ref) * len(labels) <= near_ties(ref),
                   f"{metrics['accuracy']} vs {acc_ref}")
        self.check("evaluate nll matches reference",
                   abs(metrics["nll"] - nll_ref) <= 1e-9 * max(1.0, nll_ref),
                   f"{metrics['nll']} vs {nll_ref}")
        if j < QUALITY_JOBS:
            # A fresh test set per job, so that one unlucky draw does not
            # shift every job's score in the run.
            quality = trainer.evaluate(model, self.draw(TEST, j)[0])
            self.quality["test_accuracy"].append(quality["accuracy"])
            self.quality["test_nll"].append(quality["nll"])

        # Single-row scoring.
        rows = self.heldout.features[self.row_idx]
        t0 = time.perf_counter()
        single = np.array([model_mod.predict_proba(model, x) for x in rows])
        if self.tracer is None:
            self.record("predict_row_us", 1e6 * (time.perf_counter() - t0) / len(rows))
        self.check("predict_proba matches batched reference",
                   np.max(np.abs(single - ref[self.row_idx])) <= ROW_TOL,
                   f"max diff {np.max(np.abs(single - ref[self.row_idx])):.3g}")
        self.check("predict_proba rows sum to 1", np.max(np.abs(single.sum(axis=1) - 1)) <= ROW_TOL)

        # Gate-surrogate scoring; a model trained without a selector is
        # given a budget for it.
        scored = model
        if model.hyper.lambda_mu is None:
            scored = dataclasses.replace(
                model, hyper=dataclasses.replace(model.hyper, lambda_mu=L1_BUDGET))
        t0 = time.perf_counter()
        sur = trainer.evaluate(scored, self.surrogate_set, "gate-surrogate")
        self.surrogate_rows_per_s.append(self.surrogate_set.n / (time.perf_counter() - t0))
        self.check("surrogate scores finite", np.isfinite(sur["nll"]) and 0 <= sur["accuracy"] <= 1)

        self.cli_predict(path, ref)
        self.selector_steps(model, train)

    def cli_predict(self, model_path, ref):
        cli = self.lib["sparse_moe.cli"]
        preds = self.out / "preds.txt"
        argv = ["predict", "--model", str(model_path), "--data", str(self.csv), "--out", str(preds)]
        span = self.tracer.span("cli.main.predict") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            code = cli.main(argv)
        if self.tracer is None:
            self.record("cli_predict_s", time.perf_counter() - t0)
        self.rows_loaded += self.heldout.n
        if not self.check("cli predict exit 0", code == 0, f"exit {code}"):
            return
        lines = preds.read_text(encoding="utf-8").splitlines()
        got = np.array([[float(v) for v in line.split()[1:]] for line in lines])
        names = [line.split()[0] for line in lines]
        if not self.check("cli predict shape", got.shape == ref.shape, f"{got.shape} vs {ref.shape}"):
            return
        self.check("cli predict matches batched reference",
                   np.all(np.abs(got - ref) <= PRINT_RTOL * ref + 1e-300),
                   f"max rel diff {np.max(np.abs(got - ref) / np.maximum(ref, 1e-300)):.3g}")
        self.check("cli predict rows sum to 1", np.max(np.abs(got.sum(axis=1) - 1)) <= PRINT_RTOL * ref.shape[1])
        want = [self.heldout.label_names[c] for c in ref.argmax(axis=1)]
        wrong = sum(a != b for a, b in zip(names, want))
        self.check("cli predict labels", wrong <= near_ties(ref), f"{wrong} differ")

    def selector_steps(self, model, train):
        """Standalone E-step and selector steps on fixed slices of the
        training set, with their output constraints checked."""
        trainer, model_mod = self.lib["sparse_moe.trainer"], self.lib["sparse_moe.model"]
        data = self.lib["sparse_moe.data"]
        idx = np.linspace(0, train.n - 1, L0_SAMPLE).astype(int)
        sample = data.Dataset(train.features[idx], train.labels[idx], train.label_names)
        ones = model_mod.ExpertSelector(np.ones((sample.n, model.k)))
        resp = trainer.e_step(model, sample, ones)
        self.check("e_step rows sum to 1", np.allclose(resp.r.sum(axis=1), 1.0))

        mu0 = trainer.m_step_selector_norm0(model, sample, L0_BUDGET).mu
        active = (mu0 != 0).sum(axis=1)
        self.check("l0 selector rows binary with 1..budget active",
                   np.all((mu0 == 0) | (mu0 == 1)) and active.min() >= 1 and active.max() <= L0_BUDGET)

        step = L0_SAMPLE // L1_SAMPLE
        small = data.Dataset(sample.features[::step], sample.labels[::step], sample.label_names)
        lam = model.hyper.lambda_mu or L1_BUDGET
        mu1 = trainer.m_step_selector_norm1(model, resp.r[::step], small, lam).mu
        self.check("l1 selector rows nonnegative within budget",
                   mu1.min() >= 0 and mu1.sum(axis=1).max() <= lam + SELECTOR_TOL,
                   f"max row sum {mu1.sum(axis=1).max():.12g}")

    def criterion5(self):
        """The acceptance suite's pinned criterion-5 sweep, untimed and
        untraced: the workload's radii at the pinned seeds and iterations."""
        data, trainer = self.lib["sparse_moe.data"], self.lib["sparse_moe.trainer"]
        hyper = self.lib["sparse_moe.model"].Hyperparams
        wl = self.wl
        spec = data.preset_spec(wl.preset, wl.n_per_cluster, wl.noise_dims, seed=CRIT5_DATA_SEED)
        train = data.generate_synthetic(spec)
        results = [trainer.fit(train, hyper(**{**kw, "seed": CRIT5_MODEL_SEED, "max_iters": CRIT5_ITERS}))
                   for kw in wl.fits]
        tuned, _ = max((results[i] for i in wl.headline_from),
                       key=lambda r: r[1].trace[-1].penalized_total)
        self.crit5 = (informative_mass(tuned), informative_mass(results[-1][0]))
        self.check("criterion 5 informative mass",
                   self.crit5[0] >= CRIT5_TUNED_MIN and self.crit5[1] < CRIT5_UNREGULARIZED_MAX,
                   "tuned %.3f, unregularized %.3f" % self.crit5)

    # -- results ------------------------------------------------------------

    def end_to_end(self):
        self.samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        out = {}
        for name, unit in END_TO_END.items():
            if name in self.quality:
                vals = self.quality[name]
                out[name] = {"value": statistics.fmean(vals), "unit": unit, "n": len(vals), "summary": "mean"}
            elif name in TIMINGS:
                s = stats.summarize(self.scaled[name])
                out[name] = {"value": s["median"], "unit": unit, "n": s["n"],
                             "summary": "median at reference speed",
                             "measured": statistics.median(self.samples[name])}
                if "tail" in s:
                    out[name]["tail"] = f"p{s['tail_p']:g}={s['tail']:.6g}"
            else:
                vals = self.samples[name]
                out[name] = {"value": max(vals), "unit": unit, "n": len(vals), "summary": "max"}
        return out

    def per_layer(self):
        return layers.per_layer(
            self.tracer, self.counters, len(self.untraced), self.overhead, self.untraced,
            len(self.absent), self.rows_loaded, self.surrogate_rows_per_s,
        )


def print_report(run, metrics, jobs, facts, trace):
    wl = run.wl
    print(f"# sparse-moe benchmark  workload={wl.name} seed={run.seed} trace={trace} jobs={jobs}")
    blas = facts["blas"]
    print(f"# machine  nproc={facts['nproc']} affinity={facts['affinity']} cpu={facts['cpu']!r} "
          f"python={facts['python']} numpy={facts['numpy']} blas={blas['library']!r} "
          f"threads={blas['threads']} commit={facts['commit']} library_sha256={facts['library_sha256'][:16]}")
    for kind, times in run.calibration.items():
        if times:
            print(f"# {kind} calibration  median={statistics.median(times):.6g} s  n={len(times)}"
                  f"  reference={machine.CALIBRATIONS[kind][1]:g} s")
    for name, m in metrics.items():
        extra = f"  n={m['n']} {m['summary']}" if "n" in m else ""
        if "measured" in m:
            extra += f"  {m['tail']}" if "tail" in m else "  (no percentile with 10 samples beyond it)"
            extra += f"  measured median={m['measured']:.6g}"
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']:10s}{extra}")
    rate = len(run.failures) / run.attempted if run.attempted else 1.0
    print(f"{'error_rate':34s} {rate:>16.6g} fraction    {len(run.failures)} failed of {run.attempted}")
    print(f"# fits whose penalized objective ended at or below its start: {len(run.fell)} of {run.fits}"
          + "".join(f"\n#   {f}" for f in run.fell))
    if run.crit5:
        print(f"# criterion 5 (seed {CRIT5_DATA_SEED}, {CRIT5_ITERS} iterations): informative mass "
              f"{run.crit5[0]:.3f} tuned (>= {CRIT5_TUNED_MIN}), {run.crit5[1]:.3f} unregularized "
              f"(< {CRIT5_UNREGULARIZED_MAX})")
    if trace:
        share = metrics["split.solve_share_of_fit"]["value"]
        op, bound = wl.solve_share
        ok = share >= bound if op == ">=" else share <= bound
        print(f"# layer split: solve share of fit {share:.3f} {op} {bound}: "
              f"{'holds' if ok else 'DOES NOT HOLD'}")
        for t in run.absent:
            print(f"# absent: {t.module}.{t.attr} ({t.name})")
        for name, misses in run.tracer.hook_misses.items():
            print(f"# unreadable results: {name} x{misses}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = ROOT / "src"
    if not (src / "sparse_moe" / "__init__.py").is_file():
        print(f"error: no sparse_moe package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        run.setup()
    except Exception:  # the library cannot be imported or set up: no result
        traceback.print_exc()
        return 2

    start = time.perf_counter()
    jobs = raised = 0
    min_jobs = 1 if args.trace else QUALITY_JOBS
    while (jobs < min_jobs or time.perf_counter() - start < args.seconds) and raised < 3:
        try:
            run.job(jobs)
            if run.setup_due(time.perf_counter() - start, args.seconds):
                run.setup()
            raised = 0
        except Exception as exc:  # a failed job is counted; the loop goes on
            traceback.print_exc()
            run.attempted += 1
            run.failures.append(f"job {jobs}: {type(exc).__name__}: {exc}")
            raised += 1  # three in a row: the library is broken, stop early
        jobs += 1

    if not (run.samples["train_s"] or run.untraced):
        print("error: no job completed: " + "; ".join(run.failures[:3]), file=sys.stderr)
        return 1
    if run.wl.criterion5:
        try:
            run.criterion5()
        except Exception as exc:
            traceback.print_exc()
            run.attempted += 1
            run.failures.append(f"criterion 5: {type(exc).__name__}: {exc}")
    if args.trace:
        metrics = run.per_layer()
        run.tracer.write(run.out / "spans.jsonl")
    else:
        metrics = run.end_to_end()
    run.store_path.write_text(json.dumps(run.store, sort_keys=True, indent=0) + "\n")

    facts = machine.facts(np, ROOT, PACKAGE)
    print_report(run, metrics, jobs, facts, args.trace)
    result = {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    (run.out / f"result-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": metrics, "machine": facts, "failures": run.failures,
                    "criterion5": run.crit5, "objective_fell": run.fell, "jobs": jobs, "samples": run.samples,
                    "scaled": run.scaled, "calibration": run.calibration,
                    "quality": run.quality}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
