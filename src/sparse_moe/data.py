"""Dataset ingestion, standardization, splits, and synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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
        if len(self.label_names) < 2:
            raise DataError("need at least 2 classes")
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
    mean = dataset.features.mean(axis=0)
    std = np.maximum(dataset.features.std(axis=0), STD_FLOOR)
    return Scaler(mean, std)


def apply_scaler(dataset: Dataset, scaler: Scaler) -> Dataset:
    if scaler.mean.shape != (dataset.d,):
        raise DataError("scaler dimension does not match dataset")
    z = (dataset.features - scaler.mean) / scaler.std
    return Dataset(z, dataset.labels, dataset.label_names)


def _parse_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def load_dataset(path) -> Dataset:
    """Read a comma-delimited text file, last column the class token.

    Blank lines are skipped.  A header row is auto-detected when any
    stripped feature cell of the first row fails to parse as a number.  A feature
    cell is any text Python ``float()`` accepts, surrounding whitespace
    included; there are no comment lines.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    first = lines[0].split(",")
    width = len(first)
    if width < 2:
        raise DataError(f"{path}: need at least one feature column plus a label")
    start = 0
    if any(_parse_number(c.strip()) is None for c in first[:-1]):
        start = 1
        if len(lines) == 1:
            raise DataError(f"{path}: header only, no data rows")
    body = lines[start:]
    feats = np.empty((len(body), width - 1))
    index: dict[str, int] = {}
    ids = []
    for i, line in enumerate(body):
        r = start + i + 1
        row = line.split(",")
        if len(row) != width:
            raise DataError(f"{path}: ragged row {r} ({len(row)} vs {width} columns)")
        try:
            feats[i] = list(map(float, map(str.strip, row[:-1])))
        except ValueError:
            c, cell = next((c, cell) for c, cell in enumerate(row[:-1], start=1)
                           if _parse_number(cell.strip()) is None)
            raise DataError(f"{path}: non-numeric value {cell!r} at row {r}, column {c}") from None
        ids.append(index.setdefault(row[-1].strip(), len(index)))
    if len(index) < 2:
        raise DataError(f"{path}: fewer than 2 classes present")
    return Dataset(feats, np.array(ids), tuple(index))


def save_dataset(dataset: Dataset, path) -> None:
    """Write back the comma-delimited form; floats use shortest round-trip repr."""
    names = dataset.label_names
    lines = [
        ",".join(map(repr, x)) + "," + names[y]
        for x, y in zip(dataset.features.tolist(), dataset.labels.tolist())
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ClusterSpec:
    mean: tuple[float, ...]
    informative_dims: tuple[int, ...]
    label: int


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian clusters whose informative dimensions carry the signal.

    Informative dims draw from N(mean, 1); every other dimension,
    including the ``noise_dims`` appended columns, draws from
    N(0, noise_sigma).
    """

    n_per_cluster: int
    clusters: tuple[ClusterSpec, ...]
    noise_dims: int = 0
    noise_sigma: float = 1.0
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
    if not (np.isfinite(spec.noise_sigma) and spec.noise_sigma >= 0):
        raise ConfigError("noise_sigma must be finite and nonnegative")
    d_total = d + spec.noise_dims
    rng = np.random.default_rng(spec.seed)
    blocks = []
    labels = []
    for c in spec.clusters:
        z = rng.standard_normal((spec.n_per_cluster, d_total))
        x = z * spec.noise_sigma
        for j in c.informative_dims:
            x[:, j] = c.mean[j] + z[:, j]
        blocks.append(x)
        labels.extend([c.label] * spec.n_per_cluster)
    labels = np.array(labels)
    names = tuple(str(i) for i in range(int(labels.max()) + 1))
    return Dataset(np.vstack(blocks), labels, names)


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


def preset_spec(name, n_per_cluster, noise_dims=0, seed=0) -> SynthSpec:
    """Named generator configurations used by the CLI and the test suite."""
    if name == "two-cluster-xor":
        clusters = (
            ClusterSpec((2.0, 2.0), (0, 1), 0),
            ClusterSpec((-2.0, -2.0), (0, 1), 0),
            ClusterSpec((2.0, -2.0), (0, 1), 1),
            ClusterSpec((-2.0, 2.0), (0, 1), 1),
        )
        return SynthSpec(n_per_cluster, clusters, noise_dims, 1.0, seed)
    if name == "grouped-four":
        clusters = tuple(
            ClusterSpec(tuple(3.0 if j == c else 0.0 for j in range(4)), (c,), c)
            for c in range(4)
        )
        return SynthSpec(n_per_cluster, clusters, noise_dims, 1.0, seed)
    if name == "noisy-subspace":
        # Tighter clusters than two-cluster-xor: keeps the informative
        # signal weak enough that unregularized fits spread weight onto
        # the appended noise columns.
        clusters = (
            ClusterSpec((1.0, 1.0), (0, 1), 0),
            ClusterSpec((-1.0, -1.0), (0, 1), 0),
            ClusterSpec((1.0, -1.0), (0, 1), 1),
            ClusterSpec((-1.0, 1.0), (0, 1), 1),
        )
        return SynthSpec(n_per_cluster, clusters, noise_dims, 1.0, seed)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
