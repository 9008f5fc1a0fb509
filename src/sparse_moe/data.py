"""Dataset ingestion, standardization, splits, and synthetic generators."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with dense integer class labels.

    ``label_names[i]`` is the original token of class id ``i``; ids are
    assigned in first-appearance order when loading from file.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_names", tuple(self.label_names))
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError("features must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if labels.shape != (feats.shape[0],):
            raise DataError("labels length does not match feature rows")
        if labels.min() < 0 or labels.max() >= len(self.label_names):
            raise DataError("label id out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def q(self) -> int:
        return len(self.label_names)


@dataclass(frozen=True)
class Scaler:
    """Per-feature mean/std captured on the training split."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise DataError("scaler mean and std must be finite")
        if np.any(self.std <= 0):
            raise DataError("scaler std must be strictly positive")


def fit_scaler(dataset: Dataset) -> Scaler:
    """Per-feature mean and std (floored at STD_FLOOR) of the dataset; a
    feature whose mean or std overflows float is a DataError."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = dataset.features.mean(axis=0)
        std = np.maximum(dataset.features.std(axis=0), STD_FLOOR)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise DataError("feature mean or standard deviation overflows float; rescale the features")
    return Scaler(mean, std)


def _parse_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def load_dataset(path) -> Dataset:
    """Read a comma-delimited text file, last column the class token.

    A leading byte-order mark and blank lines are skipped.  A header row is
    auto-detected when any stripped feature cell of the first row fails to
    parse as a number.  A feature cell is any text Python ``float()``
    accepts once ``str.strip()`` has removed its surrounding whitespace;
    there are no comment lines.  Each row's cells are parsed as they stand
    first, and stripped only if that fails: ``float()`` strips the same
    whitespace itself, all but U+001F (U+001C-U+001E end a line and never
    reach a cell), so only a row with a U+001F-padded cell takes the second
    parse.  A class token is stripped, and an empty one raises DataError.

    The file is read one line at a time, and each line is split at every
    ``str.splitlines`` boundary, so the rows are those of
    ``text.splitlines()``.  Bytes that are not UTF-8 raise DataError when the
    reader meets them, naming the last row read before them.
    """
    r = 0
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = (line for physical in f for line in physical.splitlines() if line.strip())
            first = next(lines, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            r = 1
            head = first.split(",")
            width = len(head)
            if width < 2:
                raise DataError(f"{path}: need at least one feature column plus a label")
            start = 0
            if any(_parse_number(c.strip()) is None for c in head[:-1]):
                start = 1
            else:
                lines = chain([first], lines)
            values = array("d")
            index: dict[str, int] = {}
            ids = []
            for r, line in enumerate(lines, start=start + 1):
                row = line.split(",")
                if len(row) != width:
                    raise DataError(f"{path}: ragged row {r} ({len(row)} vs {width} columns)")
                token = row.pop()
                # Each list is built whole before it is appended, so a row
                # that takes the stripped parse appends its values once.
                try:
                    values.fromlist(list(map(float, row)))
                except ValueError:
                    try:
                        values.fromlist(list(map(float, map(str.strip, row))))
                    except ValueError:
                        c, cell = next((c, cell) for c, cell in enumerate(row, start=1)
                                       if _parse_number(cell.strip()) is None)
                        raise DataError(f"{path}: non-numeric value {cell!r} at row {r}, "
                                        f"column {c}") from None
                token = token.strip()
                if not token:
                    raise DataError(f"{path}: empty class token at row {r}")
                ids.append(index.setdefault(token, len(index)))
    except UnicodeDecodeError as e:
        where = f" after row {r}" if r else ""
        raise DataError(f"{path}: not valid UTF-8{where} ({e.reason})") from None
    if not ids:
        raise DataError(f"{path}: header only, no data rows")
    feats = np.frombuffer(values).reshape(len(ids), width - 1)
    return Dataset(feats, np.array(ids), tuple(index))


def save_dataset(dataset: Dataset, path) -> None:
    """Write back the comma-delimited form, one row at a time; floats use
    shortest round-trip repr.  Class tokens that would not load back as
    themselves, or that no row uses, raise DataError, and nothing is
    written."""
    names = dataset.label_names
    if len(set(names)) < len(names) or any(
            t.splitlines() != [t] or t != t.strip() or "," in t
            or t.encode("utf-8", "replace").decode("utf-8") != t for t in names):
        raise DataError(f"class tokens {list(names)!r} do not load back as themselves: each must "
                        "be distinct, nonempty, unpadded, UTF-8 encodable, and free of commas and "
                        "line breaks")
    unused = [t for t, count in zip(names, np.bincount(dataset.labels, minlength=len(names)))
              if not count]
    if unused:
        raise DataError(f"class tokens {unused!r} label no row, so they would not load back")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(",".join(map(repr, x.tolist())) + "," + names[y] + "\n"
                     for x, y in zip(dataset.features, dataset.labels.tolist()))


@dataclass(frozen=True)
class ClusterSpec:
    mean: tuple[float, ...]
    informative_dims: tuple[int, ...]
    label: int


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian clusters whose informative dimensions carry the signal.

    Informative dims draw from N(mean, 1); every other dimension,
    including the ``noise_dims`` appended columns, draws from N(0, 1).
    """

    n_per_cluster: int
    clusters: tuple[ClusterSpec, ...]
    noise_dims: int = 0
    seed: int = 0


def generate_synthetic(spec: SynthSpec) -> Dataset:
    if spec.n_per_cluster < 1 or not spec.clusters:
        raise ConfigError("need at least one cluster and one point per cluster")
    d = len(spec.clusters[0].mean)
    for c in spec.clusters:
        if len(c.mean) != d:
            raise ConfigError("cluster means must share a dimension")
        if any(j < 0 or j >= d for j in c.informative_dims):
            raise ConfigError("informative dim index out of range")
    if spec.noise_dims < 0:
        raise ConfigError("noise_dims must be nonnegative")
    if spec.seed < 0:
        raise ConfigError("seed must be nonnegative")
    # One draw for all clusters gives the values of one draw per cluster in
    # turn: each cluster's block is the next rows of the stream.
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n_per_cluster, len(spec.clusters)
    features = rng.standard_normal((m * n, d + spec.noise_dims))
    for c, x in zip(spec.clusters, np.split(features, m)):
        dims = list(c.informative_dims)
        x[:, dims] += np.take(c.mean, dims)  # a repeated dim gets its mean once
    labels = np.repeat([c.label for c in spec.clusters], n)
    names = tuple(str(i) for i in range(int(labels.max()) + 1))
    return Dataset(features, labels, names)


def train_test_split(dataset: Dataset, fraction: float, seed: int):
    """Deterministic stratified split; first part gets ``fraction`` of each class."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    first, second = [], []
    for c in range(dataset.q):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size < 2:
            raise DataError(f"class {dataset.label_names[c]} has fewer than 2 instances")
        perm = rng.permutation(idx)
        k = int(round(fraction * idx.size))
        k = min(max(k, 1), idx.size - 1)
        first.append(perm[:k])
        second.append(perm[k:])
    i1 = np.sort(np.concatenate(first))
    i2 = np.sort(np.concatenate(second))
    return (
        Dataset(dataset.features[i1], dataset.labels[i1], dataset.label_names),
        Dataset(dataset.features[i2], dataset.labels[i2], dataset.label_names),
    )


PRESETS = ("two-cluster-xor", "grouped-four", "noisy-subspace")
# The XOR layout: (sign of dim 0, sign of dim 1, label) of each cluster.
_XOR_SIGNS = ((1, 1, 0), (-1, -1, 0), (1, -1, 1), (-1, 1, 1))


def preset_spec(name, n_per_cluster, noise_dims=0, seed=0) -> SynthSpec:
    """Named generator configurations used by the CLI and the test suite."""
    if name in ("two-cluster-xor", "noisy-subspace"):
        # noisy-subspace's clusters sit tighter than two-cluster-xor's: that
        # keeps the informative signal weak enough that unregularized fits
        # spread weight onto the appended noise columns.
        offset = 2.0 if name == "two-cluster-xor" else 1.0
        clusters = tuple(ClusterSpec((a * offset, b * offset), (0, 1), label)
                         for a, b, label in _XOR_SIGNS)
        return SynthSpec(n_per_cluster, clusters, noise_dims, seed)
    if name == "grouped-four":
        clusters = tuple(
            ClusterSpec(tuple(3.0 if j == c else 0.0 for j in range(4)), (c,), c)
            for c in range(4)
        )
        return SynthSpec(n_per_cluster, clusters, noise_dims, seed)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
