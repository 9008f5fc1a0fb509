"""Facts about the machine and build that go with every result, and the
calibration that gives the host's speed at a moment."""

from __future__ import annotations

import hashlib
import os
import platform
import time
from pathlib import Path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from the files; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def library_digest(package: Path) -> str:
    """SHA-256 over the package's Python sources and their relative paths,
    so that uncommitted edits change it too."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def blas_info(np) -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        library = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
        config = blas.get("openblas configuration", "")
    except (TypeError, AttributeError):  # NumPy < 1.25 has no dict mode
        library, config = "unknown", ""
    threads = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {"library": library, "config": config, "threads": threads}


def facts(np, root: Path, package: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "commit": git_commit(root),
        "library_sha256": library_digest(package),
    }


def loop_work(np) -> float:
    """Seconds taken by many small vector operations in a Python loop, as in
    the solver's inner loop, and a few mid-size matrix products."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((11, 11))
    gram = a @ a.T + 11.0 * np.eye(11)
    b = rng.standard_normal(11)
    design = rng.standard_normal((600, 11))
    t0 = time.perf_counter()
    z = np.zeros(11)
    for _ in range(3000):
        z = z - 0.01 * (gram @ z - b)
        np.cumsum(np.sort(np.abs(z))[::-1])
    for _ in range(30):
        (design * z) @ design[:50].T
    return time.perf_counter() - t0


def array_work(np) -> float:
    """Seconds taken by a few passes over large arrays, as in a vectorized
    E-step: a product with a tall matrix, a row-wise softmax and a Gram-like
    product back."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10_000, 41))
    w = rng.standard_normal((41, 8))
    t0 = time.perf_counter()
    for _ in range(10):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        e /= e.sum(axis=1, keepdims=True)
        x.T @ e
    return time.perf_counter() - t0


# Calibrations: fixed pieces of work that use nothing of the library, whose
# time tracks how fast the host runs that kind of work at the moment; with
# the seconds each takes at the reference speed that timings are scaled to.
# On a shared 2-vCPU Xeon VM with one BLAS thread, loop_work took 0.02 to
# 0.04 s and array_work about 0.03 s, as the host's load changed.
CALIBRATIONS = {"loop": (loop_work, 0.025), "array": (array_work, 0.03)}
