"""Independent reference implementations used to check the library.

Everything here is deliberately written against the math, not against the
package internals: dense grid refinement for constrained least squares,
an exact rational Frank-Wolfe gap, central finite differences for
gradients, plain-Python enumeration for the subset selector, and per-cell
Python ``float()`` parsing and ``repr`` writing for the text data format.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from sparse_moe import DataError, Dataset


def wls_objective(design, target, weights, z):
    resid = design @ z - target
    return float(weights @ resid**2)


def exact_fw_gap(design, target, weights, radius, z, free=(), nonnegative=False):
    """The Frank-Wolfe gap of z over the L1 ball (with ``nonnegative``, its
    intersection with the orthant), in exact rational arithmetic.

    The gap is the largest g'(z - s) over feasible s, for the gradient g of
    the weighted residual sum of squares in the constrained coordinates,
    after each free coordinate in ``free`` is moved to its exact minimizer,
    one at a time (exact for a single free coordinate).  It works from the
    residual rather than the Gram matrix and rounds nothing, so it stays
    exact on designs whose column scales span many orders of magnitude,
    where a float recomputation rounds at the scale of the largest column.
    """
    a = [[Fraction(v) for v in row] for row in np.asarray(design, dtype=float).tolist()]
    w = [Fraction(v) for v in np.asarray(weights, dtype=float).tolist()]
    x = [Fraction(v) for v in np.asarray(z, dtype=float).tolist()]
    resid = [sum(aij * xj for aij, xj in zip(row, x)) - Fraction(bi)
             for row, bi in zip(a, np.asarray(target, dtype=float).tolist())]
    for f in free:
        curvature = sum(wi * row[f] ** 2 for wi, row in zip(w, a))
        if curvature:
            shift = -sum(wi * row[f] * ri for wi, row, ri in zip(w, a, resid)) / curvature
            resid = [ri + row[f] * shift for ri, row in zip(resid, a)]
            x[f] += shift
    kept = [j for j in range(len(x)) if j not in free]
    w_resid = [wi * ri for wi, ri in zip(w, resid)]
    grad = [2 * sum(row[j] * v for row, v in zip(a, w_resid)) for j in kept]
    worst = max([0] + [-g if nonnegative else abs(g) for g in grad])
    return float(sum(g * x[j] for g, j in zip(grad, kept)) + Fraction(radius) * worst)


def grid_search_l1(design, target, weights, radius, nonnegative=False, step=1e-3,
                   free_bias=False):
    """Coarse-to-fine grid minimization over the L1 ball (P <= 3).

    Each stage lays a 41-point-per-axis grid over the current box, keeps
    the feasible points, and shrinks the box around the best one until the
    grid spacing is at or below ``step``.

    With ``free_bias`` the last design column is exempt from the
    constraint; its optimal value given the other coordinates is a 1-D
    weighted least-squares problem solved in closed form per grid point.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    target = np.asarray(target, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if free_bias:
        bias_col = design[:, -1]
        design = design[:, :-1]
        bias_den = float(weights @ bias_col**2)
    p = design.shape[1]
    lo_full = np.full(p, 0.0 if nonnegative else -radius)
    hi_full = np.full(p, radius)
    lo, hi = lo_full.copy(), hi_full.copy()
    best_obj, best_z = np.inf, np.zeros(p)
    while True:
        axes = [np.linspace(lo[j], hi[j], 41) for j in range(p)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        feasible = np.abs(pts).sum(axis=1) <= radius + 1e-12
        pts = pts[feasible]
        if pts.shape[0]:
            resid = target[None, :] - pts @ design.T
            if free_bias and bias_den > 0:
                bias = (resid * (weights * bias_col)).sum(axis=1) / bias_den
                resid = resid - bias[:, None] * bias_col[None, :]
            objs = (resid**2 * weights).sum(axis=1)
            i = int(objs.argmin())
            if objs[i] < best_obj:
                best_obj, best_z = float(objs[i]), pts[i]
        spacing = float((hi - lo).max()) / 40.0
        if spacing <= step:
            return best_z, best_obj
        lo = np.maximum(lo_full, best_z - 2.0 * spacing)
        hi = np.minimum(hi_full, best_z + 2.0 * spacing)


def central_difference(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        grad[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def softmax_scalar(logits):
    m = max(logits)
    e = [math.exp(v - m) for v in logits]
    s = sum(e)
    return [v / s for v in e]


def norm0_best_subset(nu, omega, x, y, budget):
    """Plain-Python exhaustive search over subsets of size 1..budget.

    Returns the subset minimizing the instance's negative log mixture
    likelihood with the gated gate; ties go to the lexicographically
    smallest subset tuple.
    """
    k = len(nu)
    scores = [sum(nu[i][j] * x[j] for j in range(len(x))) for i in range(k)]
    g = []
    for i in range(k):
        logits = [sum(omega[l][i][j] * x[j] for j in range(len(x))) for l in range(len(omega))]
        g.append(softmax_scalar(logits)[y])
    best = None
    for size in range(1, budget + 1):
        for sub in itertools.combinations(range(k), size):
            logits = [scores[i] if i in sub else 0.0 for i in range(k)]
            h = softmax_scalar(logits)
            mix = sum(g[i] * h[i] for i in range(k))
            loss = -math.log(max(mix, 1e-12))
            if best is None or loss < best[0] or (loss == best[0] and sub < best[1]):
                best = (loss, sub)
    return best[1]


def _parse_number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def load_dataset_reference(path):
    """Row-by-row, cell-by-cell reading of the comma-delimited format:
    a leading byte-order mark dropped, blank lines skipped, a header when
    any stripped feature cell of the first row is not a number, every
    feature cell parsed by Python ``float()``, and class ids in
    first-appearance order of the last column's tokens, none of them empty
    once stripped."""
    text = Path(path).read_text(encoding="utf-8-sig")
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if not rows:
        raise DataError(f"{path}: empty file")
    width = len(rows[0])
    if width < 2:
        raise DataError(f"{path}: need at least one feature column plus a label")
    start = 0
    if any(_parse_number(c.strip()) is None for c in rows[0][:-1]):
        start = 1
        if len(rows) == 1:
            raise DataError(f"{path}: header only, no data rows")
    feats = []
    ids = []
    names = []
    index = {}
    for r, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise DataError(f"{path}: ragged row {r} ({len(row)} vs {width} columns)")
        vals = []
        for c, cell in enumerate(row[:-1], start=1):
            v = _parse_number(cell.strip())
            if v is None:
                raise DataError(f"{path}: non-numeric value {cell!r} at row {r}, column {c}")
            vals.append(v)
        feats.append(vals)
        token = row[-1].strip()
        if not token:
            raise DataError(f"{path}: empty class token at row {r}")
        if token not in index:
            index[token] = len(names)
            names.append(token)
        ids.append(index[token])
    return Dataset(np.array(feats), np.array(ids), tuple(names))


def save_dataset_reference_text(dataset):
    """The text form, one ``repr(float(v))`` per cell."""
    lines = []
    for x, y in zip(dataset.features, dataset.labels):
        lines.append(",".join(repr(float(v)) for v in x) + "," + dataset.label_names[y])
    return "\n".join(lines) + "\n"
