"""Synthetic source/target domain generators and the dataset file format.

All generators are pure functions of their arguments (including the seed),
so identical calls produce bit-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError

DATASET_MAGIC = "#shiftlab-dataset v1"

# 17 significant digits round-trips any float64 exactly.
_FLOAT_FMT = ".17g"


@dataclass
class Dataset:
    """A feature matrix tagged with optional labels, class count and domain id."""

    features: np.ndarray
    labels: np.ndarray | None
    num_classes: int
    domain_id: str

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ParameterError("features must be a 2-D matrix")
        n, d = self.features.shape
        if n < 1 or d < 1:
            raise ParameterError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if self.num_classes < 2:
            raise ParameterError(f"num_classes must be >= 2, got {self.num_classes}")
        if not np.all(np.isfinite(self.features)):
            raise ParameterError("features contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ParameterError("labels must be a length-n vector")
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise ParameterError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def unlabeled(self) -> "Dataset":
        """Copy of this dataset with labels dropped."""
        return Dataset(self.features.copy(), None, self.num_classes, self.domain_id)


def _rotate(points: np.ndarray, degrees: float, center: np.ndarray) -> np.ndarray:
    theta = np.deg2rad(degrees)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return (points - center) @ rot.T + center


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def gen_two_moons(
    n: int,
    noise: float,
    rotation: float = 0.0,
    seed: int = 0,
    domain_id: str = "moons",
) -> Dataset:
    """Two interleaving half circles, optionally rotated by `rotation` degrees.

    Class 0 lies on the upper unit semicircle centered at the origin; class 1
    on the lower unit semicircle centered at (1, 0.5). Rotation is applied
    about the centroid of the noiseless moons, after noise is added.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if noise < 0:
        raise ParameterError(f"noise must be >= 0, got {noise}")
    if not 0.0 <= rotation < 360.0:
        raise ParameterError(f"rotation must be in [0, 360), got {rotation}")
    _check_seed(seed)
    n0 = (n + 1) // 2
    n1 = n - n0
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    outer = np.column_stack([np.cos(t0), np.sin(t0)])
    inner = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    clean = np.vstack([outer, inner])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    centroid = clean.mean(axis=0)

    features = clean
    if noise > 0:
        rng = np.random.default_rng(seed)
        features = clean + rng.normal(0.0, noise, size=clean.shape)

    if rotation:  # rotating by 0 would still move the last bits
        features = _rotate(features, float(rotation), centroid)

    return Dataset(features, labels, 2, domain_id)


def gen_gaussian_blobs(
    n: int,
    num_classes: int,
    d: int,
    separation: float,
    priors,
    seed: int = 0,
    domain_id: str = "blobs",
) -> Dataset:
    """Isotropic unit-variance Gaussian blobs on a circle of radius `separation`.

    Class k's mean sits at distance `separation` from the origin along the
    direction with angle 2*pi*k/K in the first two coordinates (first
    coordinate only when d == 1). Class counts follow a seeded multinomial
    draw on `priors`.
    """
    if num_classes < 2:
        raise ParameterError(f"need num_classes >= 2, got {num_classes}")
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    _check_seed(seed)
    try:
        priors = np.asarray(priors, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(f"priors must be numbers, got {priors!r}") from None
    if priors.shape != (num_classes,) or np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-9:
        raise ParameterError("priors must be a length-K probability vector summing to 1")

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, priors)
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = np.zeros((num_classes, d))
    means[:, 0] = separation * np.cos(angles)
    if d >= 2:
        means[:, 1] = separation * np.sin(angles)

    feats = []
    labels = []
    for k in range(num_classes):
        if counts[k] == 0:
            continue
        feats.append(rng.normal(0.0, 1.0, size=(counts[k], d)) + means[k])
        labels.append(np.full(counts[k], k, dtype=np.int64))
    return Dataset(np.vstack(feats), np.concatenate(labels), num_classes, domain_id)


def _derangement(k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform derangement of range(k) by rejection sampling."""
    while True:
        perm = rng.permutation(k)
        if not np.any(perm == np.arange(k)):
            return perm


def make_adversarial_source(base: Dataset, seed: int = 0) -> Dataset:
    """Copy of `base` with labels permuted by a seeded derangement of the classes.

    Features are untouched, so marginals match while every conditional is
    maximally wrong: the negative-transfer construction.
    """
    if base.labels is None:
        raise ParameterError("adversarial source requires a labeled dataset")
    _check_seed(seed)
    perm = _derangement(base.num_classes, np.random.default_rng(seed))
    return Dataset(base.features.copy(), perm[base.labels], base.num_classes, base.domain_id)


def split(ds: Dataset, train_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Disjoint train/test split, stratified by label when labels exist.

    Train size is round(n * train_fraction); per-class counts use the
    largest-remainder rule so class proportions are preserved within one
    sample.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = ds.n
    n_train = int(round(n * train_fraction))
    if n_train < 1 or n_train >= n:
        raise ParameterError(f"split of n={n} at f={train_fraction} leaves an empty side")
    _check_seed(seed)
    rng = np.random.default_rng(seed)

    if ds.labels is None:
        order = rng.permutation(n)
        tr, te = np.sort(order[:n_train]), np.sort(order[n_train:])
    else:
        counts = np.bincount(ds.labels, minlength=ds.num_classes)
        exact = counts * train_fraction
        base = np.floor(exact).astype(int)
        rem = n_train - base.sum()
        if rem > 0:
            frac = exact - base
            # stable largest-remainder, ties broken by class index
            order = np.lexsort((np.arange(ds.num_classes), -frac))
            base[order[:rem]] += 1
        tr_idx, te_idx = [], []
        for k in range(ds.num_classes):
            idx = np.flatnonzero(ds.labels == k)
            perm = rng.permutation(len(idx))
            tr_idx.append(idx[perm[: base[k]]])
            te_idx.append(idx[perm[base[k] :]])
        tr = np.sort(np.concatenate(tr_idx))
        te = np.sort(np.concatenate(te_idx))

    def take(idx: np.ndarray) -> Dataset:
        labels = None if ds.labels is None else ds.labels[idx]
        return Dataset(ds.features[idx], labels, ds.num_classes, ds.domain_id)

    return take(tr), take(te)


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset in the plain-text v1 format (17-significant-digit floats)."""
    lines = [f"{DATASET_MAGIC} n={ds.n} d={ds.d} K={ds.num_classes} domain={ds.domain_id}"]
    labels = ds.labels if ds.labels is not None else np.full(ds.n, -1, dtype=np.int64)
    for row, lab in zip(ds.features, labels):
        fields = [format(v, _FLOAT_FMT) for v in row]
        fields.append(str(int(lab)))
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_dataset(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`; bad content raises FormatError."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(DATASET_MAGIC):
        raise FormatError(f"{path}: missing dataset header")
    header = dict(
        part.split("=", 1) for part in lines[0][len(DATASET_MAGIC) :].split() if "=" in part
    )
    try:
        n, d, k = int(header["n"]), int(header["d"]), int(header["K"])
        domain = header["domain"]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header: {lines[0]!r}") from exc
    if n < 1 or d < 1:
        raise FormatError(f"{path}: header needs n >= 1 and d >= 1, got n={n}, d={d}")
    body = [ln for ln in lines[1:] if ln]
    if len(body) != n:
        raise FormatError(f"{path}: expected {n} rows, found {len(body)}")
    rows, labels = [], []
    for i, ln in enumerate(body):
        fields = ln.split(",")
        if len(fields) != d + 1:
            raise FormatError(f"{path}: row {i} has {len(fields)} fields, expected {d + 1}")
        try:
            rows.append([float(v) for v in fields[:d]])
            labels.append(int(fields[d]))
        except ValueError as exc:
            raise FormatError(f"{path}: row {i}: {exc}") from None
        if not -1 <= labels[-1] < k:
            raise FormatError(f"{path}: row {i}: label {labels[-1]} out of range for K={k}")
    unlabeled = labels[0] == -1
    if any((label == -1) != unlabeled for label in labels):
        raise FormatError(f"{path}: mixes labeled and unlabeled rows")
    try:
        return Dataset(np.array(rows), None if unlabeled else labels, k, domain)
    except (ParameterError, OverflowError) as exc:  # e.g. K < 2, a non-finite value
        raise FormatError(f"{path}: {exc}") from None
