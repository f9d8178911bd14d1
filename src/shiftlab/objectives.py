"""Losses and statistics composed by the trainers.

Every probability fed to a logarithm is guarded by a single global EPS, and
each loss comes with an analytic gradient with respect to the probability
rows (chained through softmax by the trainers).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .nn import SourceModel

EPS = 1e-6


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ParameterError("probs must be a batch x K matrix")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6) or np.any(probs < 0):
        raise ParameterError("rows of probs must be probability vectors")
    return probs


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = _check_probs(probs)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (probs.shape[0],):
        raise ParameterError("labels must be a length-batch vector")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ParameterError("label out of range")
    picked = probs[np.arange(len(labels)), labels]
    return float((-np.log(picked + EPS)).mean())


def cross_entropy_probs_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d cross_entropy / d probs, mean-reduced over the batch."""
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    grad = np.zeros_like(probs)
    rows = np.arange(n)
    grad[rows, labels] = -1.0 / (probs[rows, labels] + EPS) / n
    return grad


def entropy_loss(probs: np.ndarray) -> float:
    probs = _check_probs(probs)
    return float((-(probs * np.log(probs + EPS)).sum(axis=1)).mean())


def entropy_probs_grad(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    return -(np.log(probs + EPS) + probs / (probs + EPS)) / n


def diversity_loss(probs: np.ndarray) -> float:
    """Negative entropy of the marginal prediction; minimized at uniform marginal."""
    probs = _check_probs(probs)
    marginal = probs.mean(axis=0)
    return float((marginal * np.log(marginal + EPS)).sum())


def diversity_probs_grad(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    marginal = probs.mean(axis=0)
    row = (np.log(marginal + EPS) + marginal / (marginal + EPS)) / n
    return np.broadcast_to(row, probs.shape).copy()


def im_loss(probs: np.ndarray) -> float:
    """Information-maximization loss: entropy + diversity."""
    return entropy_loss(probs) + diversity_loss(probs)


def im_probs_grad(probs: np.ndarray) -> np.ndarray:
    return entropy_probs_grad(probs) + diversity_probs_grad(probs)


def softmax_probs_to_logits_grad(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Chain a gradient on softmax outputs back to the logits."""
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dprobs - inner)


def median_bandwidths(sq: np.ndarray) -> np.ndarray:
    """Median-heuristic bandwidths for the pooled squared-distance matrix `sq`."""
    # sq is exactly symmetric (A @ A.T is computed as a symmetric product),
    # so its off-diagonal is the strict upper triangle with every value
    # doubled, and both have the same median, bit for bit.
    r = np.arange(len(sq))
    upper = sq[r[:, None] < r]
    sigma2 = _median(upper) if upper.size else 1.0
    if sigma2 <= 0:
        sigma2 = 1.0
    return np.array([0.5 * sigma2, sigma2, 2.0 * sigma2])


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, bit for bit.

    np.median partitions around both middle positions (and the maximum, to
    find NaNs); numpy partitions around a single position several times
    faster, and the lower middle value is then the maximum of the lower part.
    """
    if np.isnan(values).any():
        return float("nan")
    mid = values.size // 2
    part = np.partition(values, mid)
    if values.size % 2:
        return float(part[mid])
    return float(np.mean([part[:mid].max(), part[mid]]))


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)


def _mmd_blocks(X, Y, bandwidths):
    """X, Y, bandwidths and the xx, yy, xy blocks of one pooled squared-distance matrix."""
    X, Y = (np.asarray(A, dtype=np.float64) for A in (X, Y))
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1] or not (len(X) and len(Y)):
        raise ParameterError("X and Y must be non-empty 2-D arrays with matching column count")
    if bandwidths is not None and not (len(bandwidths) and all(0 < b < np.inf for b in bandwidths)):
        raise ParameterError(f"bandwidths must be non-empty, positive and finite, got {bandwidths}")
    n = X.shape[0]
    pooled = np.vstack([X, Y])
    sq = _sq_dists(pooled, pooled)  # one object: numpy takes the symmetric product
    if bandwidths is None:
        bandwidths = median_bandwidths(sq)
    return X, Y, np.asarray(bandwidths, dtype=np.float64), (sq[:n, :n], sq[n:, n:], sq[:n, n:])


def mmd_rbf(X: np.ndarray, Y: np.ndarray, bandwidths: list | None = None) -> float:
    """Biased (V-statistic) multi-scale RBF MMD estimate.

    `bandwidths` are RBF sigma^2 values, used as given; None selects the
    median heuristic of the pooled samples, `median_bandwidths`.
    """
    _, _, bandwidths, (dxx, dyy, dxy) = _mmd_blocks(X, Y, bandwidths)
    total = 0.0
    for s2 in bandwidths:
        total += (
            np.exp(-dxx / (2.0 * s2)).mean()
            + np.exp(-dyy / (2.0 * s2)).mean()
            - 2.0 * np.exp(-dxy / (2.0 * s2)).mean()
        )
    return float(total / len(bandwidths))


def mmd_rbf_grad(
    X: np.ndarray, Y: np.ndarray, bandwidths: list | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """MMD value plus analytic gradients with respect to X and Y rows.

    Bandwidths are treated as constants (the median heuristic is resolved
    once, before differentiating).
    """
    X, Y, bandwidths, (dxx, dyy, dxy) = _mmd_blocks(X, Y, bandwidths)
    n, m = X.shape[0], Y.shape[0]
    value = 0.0
    gx = np.zeros_like(X)
    gy = np.zeros_like(Y)
    for s2 in bandwidths:
        kxx = np.exp(-dxx / (2.0 * s2))
        kyy = np.exp(-dyy / (2.0 * s2))
        kxy = np.exp(-dxy / (2.0 * s2))
        value += kxx.mean() + kyy.mean() - 2.0 * kxy.mean()
        # d/dx_p of mean(Kxx): x_p appears in row p and column p
        gx += (-2.0 / (n * n * s2)) * (kxx.sum(axis=1)[:, None] * X - kxx @ X)
        gx += (2.0 / (n * m * s2)) * (kxy.sum(axis=1)[:, None] * X - kxy @ Y)
        gy += (-2.0 / (m * m * s2)) * (kyy.sum(axis=1)[:, None] * Y - kyy @ Y)
        gy += (2.0 / (n * m * s2)) * (kxy.sum(axis=0)[:, None] * Y - kxy.T @ X)
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
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-6:
        raise ParameterError("weights must be a simplex vector")
    k = models[0].num_classes
    d = models[0].input_dim
    for model in models[1:]:
        if model.num_classes != k or model.input_dim != d:
            raise ParameterError("all models must share num_classes and input dim")
    return weights


def mix_probs(weights, probs: dict) -> np.ndarray:
    """Weighted sum of per-model softmax outputs, in model order.

    `probs` maps the index of each model with a non-zero weight to its
    probs; the weights must already be checked by `ensemble_weights`.
    """
    return sum(weights[i] * p for i, p in probs.items())

