"""Losses and statistics composed by the trainers.

Every probability fed to a logarithm is guarded by a single global EPS. Each
loss is one call that validates its probability rows once and returns its
value together with its analytic gradient on those rows; `nn.backward`
chains that gradient through the softmax. The trainers call the unchecked
terms on rows they just built: a NaN there reaches `nn.sgd_step`, which refuses it.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .errors import ParameterError
from .nn import SourceModel

EPS = 1e-6


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ParameterError("probs must be a batch x K matrix")
    sums = probs.sum(axis=1)
    if not (np.all(np.abs(sums - 1.0) <= 1e-6) and np.all(probs >= 0)):  # NaN fails too
        raise ParameterError("rows of probs must be probability vectors")
    return probs


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of `labels` under `probs`, and its gradient on `probs`."""
    probs = _check_probs(probs)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (probs.shape[0],):
        raise ParameterError("labels must be a length-batch vector")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ParameterError("label out of range")
    return _cross_entropy(probs, labels)


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    n = len(labels)
    rows = np.arange(n)
    picked = probs[rows, labels] + EPS
    grad = np.zeros_like(probs)
    grad[rows, labels] = -1.0 / picked / n
    return float((-np.log(picked)).mean()), grad


def _entropy(probs: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = probs + EPS
    log = np.log(shifted)
    return float((-(probs * log).sum(axis=1)).mean()), -(log + probs / shifted) / probs.shape[0]


def _diversity(probs: np.ndarray) -> tuple[float, np.ndarray]:
    marginal = probs.mean(axis=0)
    shifted = marginal + EPS
    log = np.log(shifted)
    row = (log + marginal / shifted) / probs.shape[0]
    return float((marginal * log).sum()), np.broadcast_to(row, probs.shape).copy()


def entropy_loss(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-row prediction entropy, and its gradient on `probs`."""
    return _entropy(_check_probs(probs))


def diversity_loss(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative entropy of the marginal prediction, minimized at a uniform
    marginal, and its gradient on `probs`."""
    return _diversity(_check_probs(probs))


def im_loss(probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Information-maximization loss, entropy + diversity, and its gradient on `probs`."""
    probs = _check_probs(probs)
    (ent, d_ent), (div, d_div) = _entropy(probs), _diversity(probs)
    return ent + div, d_ent + d_div


def median_bandwidths(sq: np.ndarray) -> np.ndarray:
    """Median-heuristic bandwidths for the pooled squared-distance matrix `sq`."""
    # sq is exactly symmetric (A @ A.T is computed as a symmetric product),
    # so its off-diagonal is the strict upper triangle with every value
    # doubled, and both have the same median, bit for bit.
    upper = sq[_strict_upper(len(sq))]  # a gathered copy, which _median may reorder
    sigma2 = _median(upper) if upper.size else 1.0
    if sigma2 <= 0:
        sigma2 = 1.0
    return np.array([0.5 * sigma2, sigma2, 2.0 * sigma2])


@functools.lru_cache(maxsize=4)
def _strict_upper(size: int) -> np.ndarray:
    """The boolean mask of the strict upper triangle of a `size` x `size` matrix,
    read-only, as every caller shares it."""
    r = np.arange(size)
    mask = r[:, None] < r
    mask.flags.writeable = False
    return mask


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, bit for bit; reorders `values` in place.

    np.median partitions around both middle positions (and the maximum, to
    find NaNs); numpy partitions around a single position several times
    faster, and the lower middle value is then the maximum of the lower part.
    """
    if np.isnan(values).any():
        return float("nan")
    mid = values.size // 2
    values.partition(mid)
    if values.size % 2:
        return float(values[mid])
    return float((values[:mid].max() + values[mid]) / 2)  # np.mean's sum and quotient


_ROW_CHUNK = 64  # rows of aa + bb held at once while a distance matrix is filled


def _sq_dists(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances (aa_i + bb_j) - 2 (A @ B.T)_ij, floored at 0, in `out` or a fresh array."""
    aa = (A * A).sum(axis=1)[:, None]
    bb = aa.reshape(1, -1) if A is B else (B * B).sum(axis=1)[None, :]
    # with A and B one object, numpy takes the symmetric product
    g = np.matmul(A, B.T, out=np.empty((len(A), len(B))) if out is None else out)
    g *= 2.0
    for i in range(0, len(A), _ROW_CHUNK):
        rows = g[i : i + _ROW_CHUNK]
        np.subtract(aa[i : i + _ROW_CHUNK] + bb, rows, out=rows)
    return np.maximum(g, 0.0, out=g)


# `_scratch.pooled` holds the pooled distance matrix of each MMD call on the
# calling thread. It grows to the largest pooled size that thread has seen and
# is then reused, so steady-state calls fault in no fresh pages, and MMD calls
# on different threads never share it.
_scratch = threading.local()


def _mmd_blocks(X, Y, bandwidths):
    """X, Y, bandwidths and the xx, yy, xy blocks of one pooled squared-distance matrix.

    The blocks are views of the calling thread's `_scratch.pooled`,
    overwritten by its next call.
    """
    X, Y = (np.asarray(A, dtype=np.float64) for A in (X, Y))
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1] or not (len(X) and len(Y)):
        raise ParameterError("X and Y must be non-empty 2-D arrays with matching column count")
    if bandwidths is not None and not (len(bandwidths) and all(0 < b < np.inf for b in bandwidths)):
        raise ParameterError(f"bandwidths must be non-empty, positive and finite, got {bandwidths}")
    pooled = np.vstack([X, Y])
    if not np.isfinite(pooled).all():
        raise ParameterError("X and Y must be finite")
    n, size = len(X), len(X) + len(Y)
    scratch = getattr(_scratch, "pooled", None)
    if scratch is None or scratch.size < size * size:
        scratch = _scratch.pooled = np.empty(size * size)
    sq = _sq_dists(pooled, pooled, out=scratch[: size * size].reshape(size, size))
    if bandwidths is None:
        bandwidths = median_bandwidths(sq)
    return X, Y, np.asarray(bandwidths, dtype=np.float64), (sq[:n, :n], sq[n:, n:], sq[:n, n:])


def _kernel(d: np.ndarray, s2: float, buf: np.ndarray) -> np.ndarray:
    """exp(-d / (2 s2)) in the front of `buf`; d / -(2 s2) is the same quotient, bit for bit."""
    k = buf[: d.size].reshape(d.shape)
    np.divide(d, -(2.0 * s2), out=k)
    return np.exp(k, out=k)


def _mean(k: np.ndarray):
    """k.mean(), bit for bit: numpy's mean is this sum and quotient."""
    return np.add.reduce(k, axis=None) / k.size


def mmd_rbf(X: np.ndarray, Y: np.ndarray, bandwidths: list | None = None) -> float:
    """Biased (V-statistic) multi-scale RBF MMD estimate.

    `bandwidths` are RBF sigma^2 values, used as given; None selects the
    median heuristic of the pooled samples, `median_bandwidths`.
    """
    X, Y, bandwidths, blocks = _mmd_blocks(X, Y, bandwidths)
    buf = np.empty(max(len(X), len(Y)) ** 2)  # holds each kernel block in turn
    total = 0.0
    for s2 in bandwidths:
        mean_xx, mean_yy, mean_xy = (_mean(_kernel(d, s2, buf)) for d in blocks)
        total += mean_xx + mean_yy - 2.0 * mean_xy
    return float(total / len(bandwidths))


def _add_term(g, c, rowsum, P, k, Q, tmp, prod) -> None:
    """g += c * (rowsum[:, None] * P - k @ Q), each operation as numpy evaluates
    that expression, into the preallocated `tmp` and `prod`."""
    np.multiply(rowsum[:, None], P, out=tmp)
    np.matmul(k, Q, out=prod)
    np.subtract(tmp, prod, out=tmp)
    np.multiply(c, tmp, out=tmp)
    np.add(g, tmp, out=g)


def mmd_rbf_grad(
    X: np.ndarray, Y: np.ndarray, bandwidths: list | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """MMD value plus analytic gradients with respect to X and Y rows.

    Bandwidths are treated as constants (the median heuristic is resolved
    once, before differentiating).
    """
    X, Y, bandwidths, (dxx, dyy, dxy) = _mmd_blocks(X, Y, bandwidths)
    n, m = X.shape[0], Y.shape[0]
    buf = np.empty(max(n, m) ** 2)  # holds each kernel block in turn
    value = 0.0
    gx = np.zeros_like(X)
    gy = np.zeros_like(Y)
    tx, px, ty, py = np.empty_like(X), np.empty_like(X), np.empty_like(Y), np.empty_like(Y)
    for s2 in bandwidths:
        kxx = _kernel(dxx, s2, buf)
        mean_xx = _mean(kxx)
        # d/dx_p of mean(Kxx): x_p appears in row p and column p
        _add_term(gx, -2.0 / (n * n * s2), np.add.reduce(kxx, axis=1), X, kxx, X, tx, px)
        kyy = _kernel(dyy, s2, buf)
        mean_yy = _mean(kyy)
        _add_term(gy, -2.0 / (m * m * s2), np.add.reduce(kyy, axis=1), Y, kyy, Y, ty, py)
        kxy = _kernel(dxy, s2, buf)
        value += mean_xx + mean_yy - 2.0 * _mean(kxy)
        c = 2.0 / (n * m * s2)
        _add_term(gx, c, np.add.reduce(kxy, axis=1), X, kxy, Y, tx, px)
        _add_term(gy, c, np.add.reduce(kxy, axis=0), Y, kxy.T, X, ty, py)
    nb = len(bandwidths)
    return float(value / nb), gx / nb, gy / nb


def ensemble_weights(models: list[SourceModel], weights) -> np.ndarray:
    """Ensemble weights as float64, validated against the models.

    One non-negative weight per model, summing to 1; every model must share
    num_classes and input dim.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(models) != len(weights):
        raise ParameterError("one weight per model required")
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-6):  # NaN fails too
        raise ParameterError("weights must be a simplex vector")
    if len({(m.num_classes, m.input_dim) for m in models}) > 1:
        raise ParameterError("all models must share num_classes and input dim")
    return weights


def mix_probs(weights, probs: np.ndarray) -> np.ndarray:
    """Weighted sum of stacked per-member arrays (softmax outputs), in member order.

    `probs` has a leading member axis with one entry per weight; the
    weights must already be checked by `ensemble_weights`.
    """
    return sum(w * p for w, p in zip(weights, probs))

