import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftlab import objectives
from shiftlab.errors import ParameterError
from shiftlab.nn import backward, forward, init_model, stack_models
from shiftlab.objectives import (
    EPS,
    _median,
    cross_entropy,
    diversity_loss,
    ensemble_weights,
    entropy_loss,
    im_loss,
    median_bandwidths,
    mix_probs,
    mmd_full,
    mmd_rbf,
    mmd_rbf_grad,
    _sq_dists,
)


def naive_mmd(X, Y, bandwidths):
    """O(n^2) double-sum oracle for the biased multi-scale RBF MMD."""

    def k(a, b, s2):
        return np.exp(-np.sum((a - b) ** 2) / (2.0 * s2))

    total = 0.0
    for s2 in bandwidths:
        xx = np.mean([k(a, b, s2) for a in X for b in X])
        yy = np.mean([k(a, b, s2) for a in Y for b in Y])
        xy = np.mean([k(a, b, s2) for a in X for b in Y])
        total += xx + yy - 2.0 * xy
    return total / len(bandwidths)


def three_product_mmd(X, Y, bandwidths):
    """The MMD from three separate distance products, as mmd_rbf computed it
    before it sliced the blocks out of one pooled matrix."""
    dxx, dyy, dxy = _sq_dists(X, X), _sq_dists(Y, Y), _sq_dists(X, Y)
    total = 0.0
    for s2 in bandwidths:
        total += (
            np.exp(-dxx / (2.0 * s2)).mean()
            + np.exp(-dyy / (2.0 * s2)).mean()
            - 2.0 * np.exp(-dxy / (2.0 * s2)).mean()
        )
    return float(total / len(bandwidths))


def reference_sq_dists(A, B):
    """The distance matrix as one expression, with fresh temporaries throughout."""
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)


def reference_blocks(X, Y, bandwidths):
    """Bandwidths and the xx, yy, xy blocks of the pooled matrix, without any scratch."""
    pooled = np.vstack([X, Y])
    sq = reference_sq_dists(pooled, pooled)
    if bandwidths is None:
        upper = sq[np.triu_indices(len(sq), 1)]
        s2 = float(np.median(upper)) if upper.size else 1.0
        s2 = s2 if s2 > 0 else 1.0
        bandwidths = [0.5 * s2, s2, 2.0 * s2]
    n = len(X)
    return bandwidths, sq[:n, :n], sq[n:, n:], sq[:n, n:]


def reference_mmd(X, Y, bandwidths):
    bandwidths, dxx, dyy, dxy = reference_blocks(X, Y, bandwidths)
    total = 0.0
    for s2 in bandwidths:
        total += (
            np.exp(-dxx / (2.0 * s2)).mean()
            + np.exp(-dyy / (2.0 * s2)).mean()
            - 2.0 * np.exp(-dxy / (2.0 * s2)).mean()
        )
    return float(total / len(bandwidths))


def reference_mmd_grad(X, Y, bandwidths):
    bandwidths, dxx, dyy, dxy = reference_blocks(X, Y, bandwidths)
    n, m = len(X), len(Y)
    value, gx, gy = 0.0, np.zeros_like(X), np.zeros_like(Y)
    for s2 in bandwidths:
        kxx = np.exp(-dxx / (2.0 * s2))
        kyy = np.exp(-dyy / (2.0 * s2))
        kxy = np.exp(-dxy / (2.0 * s2))
        value += kxx.mean() + kyy.mean() - 2.0 * kxy.mean()
        gx += (-2.0 / (n * n * s2)) * (kxx.sum(axis=1)[:, None] * X - kxx @ X)
        gx += (2.0 / (n * m * s2)) * (kxy.sum(axis=1)[:, None] * X - kxy @ Y)
        gy += (-2.0 / (m * m * s2)) * (kyy.sum(axis=1)[:, None] * Y - kyy @ Y)
        gy += (2.0 / (n * m * s2)) * (kxy.sum(axis=0)[:, None] * Y - kxy.T @ X)
    nb = len(bandwidths)
    return float(value / nb), gx / nb, gy / nb


# The MMD kernels as they were before their per-call savings (a cached
# triangle mask, one row-norm vector for a pooled product, preallocated
# gradient terms), kept frozen: the current kernels must give their bits.

def frozen_sq_dists(A, B, out):
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    g = np.matmul(A, B.T, out=out)
    g *= 2.0
    for i in range(0, len(A), 64):
        rows = g[i : i + 64]
        np.subtract(aa[i : i + 64] + bb, rows, out=rows)
    return np.maximum(g, 0.0, out=g)


def frozen_median(values):
    if np.isnan(values).any():
        return float("nan")
    mid = values.size // 2
    values.partition(mid)
    if values.size % 2:
        return float(values[mid])
    return float(np.mean([values[:mid].max(), values[mid]]))


def frozen_blocks(X, Y, bandwidths):
    pooled = np.vstack([X, Y])
    n, size = len(X), len(X) + len(Y)
    sq = frozen_sq_dists(pooled, pooled, np.empty((size, size)))
    if bandwidths is None:
        r = np.arange(len(sq))
        upper = sq[r[:, None] < r]
        sigma2 = frozen_median(upper) if upper.size else 1.0
        if sigma2 <= 0:
            sigma2 = 1.0
        bandwidths = np.array([0.5 * sigma2, sigma2, 2.0 * sigma2])
    return np.asarray(bandwidths, dtype=np.float64), (sq[:n, :n], sq[n:, n:], sq[:n, n:])


def frozen_kernel(d, s2, buf):
    k = buf[: d.size].reshape(d.shape)
    np.divide(d, -(2.0 * s2), out=k)
    return np.exp(k, out=k)


def frozen_mmd_rbf(X, Y, bandwidths=None):
    bandwidths, blocks = frozen_blocks(X, Y, bandwidths)
    buf = np.empty(max(len(X), len(Y)) ** 2)
    total = 0.0
    for s2 in bandwidths:
        mean_xx, mean_yy, mean_xy = (frozen_kernel(d, s2, buf).mean() for d in blocks)
        total += mean_xx + mean_yy - 2.0 * mean_xy
    return float(total / len(bandwidths))


def frozen_mmd_rbf_grad(X, Y, bandwidths=None):
    bandwidths, (dxx, dyy, dxy) = frozen_blocks(X, Y, bandwidths)
    n, m = X.shape[0], Y.shape[0]
    buf = np.empty(max(n, m) ** 2)
    value = 0.0
    gx = np.zeros_like(X)
    gy = np.zeros_like(Y)
    for s2 in bandwidths:
        kxx = frozen_kernel(dxx, s2, buf)
        mean_xx = kxx.mean()
        gx += (-2.0 / (n * n * s2)) * (kxx.sum(axis=1)[:, None] * X - kxx @ X)
        kyy = frozen_kernel(dyy, s2, buf)
        mean_yy = kyy.mean()
        gy += (-2.0 / (m * m * s2)) * (kyy.sum(axis=1)[:, None] * Y - kyy @ Y)
        kxy = frozen_kernel(dxy, s2, buf)
        value += mean_xx + mean_yy - 2.0 * kxy.mean()
        gx += (2.0 / (n * m * s2)) * (kxy.sum(axis=1)[:, None] * X - kxy @ Y)
        gy += (2.0 / (n * m * s2)) * (kxy.sum(axis=0)[:, None] * Y - kxy.T @ X)
    nb = len(bandwidths)
    return float(value / nb), gx / nb, gy / nb


def samples(n, m, seed=0):
    rng = np.random.default_rng([n, m, seed])
    return np.tanh(rng.normal(size=(n, 64))), np.tanh(rng.normal(size=(m, 64)) + 0.5)


def assert_matches_reference(X, Y, bandwidths):
    assert mmd_rbf(X, Y, bandwidths) == reference_mmd(X, Y, bandwidths)
    value, gx, gy = mmd_rbf_grad(X, Y, bandwidths)
    ref_value, ref_gx, ref_gy = reference_mmd_grad(X, Y, bandwidths)
    assert value == ref_value
    assert np.array_equal(gx, ref_gx) and np.array_equal(gy, ref_gy)


def steady_state_peak():
    """Peak bytes traced during a 400 vs 400 `mmd_rbf` made after a first one."""
    X, Y = samples(400, 400)
    mmd_rbf(X, Y)
    tracemalloc.start()
    try:
        mmd_rbf(X, Y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fd_grad(f, A, eps=1e-6):
    g = np.zeros_like(A)
    it = np.nditer(A, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        A[i] += eps
        hi = f()
        A[i] -= 2 * eps
        lo = f()
        A[i] += eps
        g[i] = (hi - lo) / (2 * eps)
    return g


def random_probs(rng, n, k):
    raw = rng.uniform(0.1, 1.0, size=(n, k))
    return raw / raw.sum(axis=1, keepdims=True)


class TestCrossEntropy:
    def test_worked_example(self):
        probs = np.array([[0.9, 0.1], [0.25, 0.75]])
        labels = np.array([0, 1])
        expected = -(np.log(0.9 + EPS) + np.log(0.75 + EPS)) / 2
        assert cross_entropy(probs, labels)[0] == pytest.approx(expected, abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, np.array([0, 1]))[0] == pytest.approx(0.0, abs=1e-5)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        probs = random_probs(rng, 6, 3)
        labels = rng.integers(0, 3, size=6)
        g = cross_entropy(probs, labels)[1]
        # eps below the simplex-check tolerance so perturbed rows stay valid
        fd = fd_grad(lambda: cross_entropy(probs, labels)[0], probs, eps=1e-7)
        # unconstrained FD: only the picked entries carry gradient
        assert np.allclose(g, fd, atol=1e-4)

    def test_rejects_bad_labels(self):
        probs = random_probs(np.random.default_rng(1), 4, 2)
        with pytest.raises(ParameterError):
            cross_entropy(probs, np.array([0, 1, 2, 0]))

    def test_rejects_non_simplex_rows(self):
        with pytest.raises(ParameterError):
            cross_entropy(np.array([[0.9, 0.9]]), np.array([0]))


class TestProbabilityRows:
    @pytest.mark.parametrize("loss", [cross_entropy, entropy_loss, diversity_loss, im_loss],
                             ids=lambda loss: loss.__name__)
    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_rejects_nan_rows(self, loss, row):
        probs = np.array([[0.5, 0.5], row])
        args = (probs, np.array([0, 1])) if loss is cross_entropy else (probs,)
        with pytest.raises(ParameterError, match="probability vectors"):
            loss(*args)


class TestEntropyAndDiversity:
    def test_uniform_rows_maximize_entropy(self):
        uniform = np.full((4, 3), 1.0 / 3.0)
        assert entropy_loss(uniform)[0] == pytest.approx(np.log(3.0), abs=1e-5)
        peaked = np.array([[1.0, 0.0, 0.0]] * 4)
        assert entropy_loss(peaked)[0] == pytest.approx(0.0, abs=1e-4)

    def test_diversity_minimized_at_uniform_marginal(self):
        # two confidently different rows -> uniform marginal -> -log 2
        probs = np.array([[0.99, 0.01], [0.01, 0.99]])
        assert diversity_loss(probs)[0] == pytest.approx(-np.log(2.0), abs=1e-5)
        # collapsed predictions -> marginal entropy ~0 -> loss ~0 (larger)
        collapsed = np.array([[0.99, 0.01], [0.99, 0.01]])
        assert diversity_loss(collapsed)[0] > diversity_loss(probs)[0]

    def test_im_is_sum_of_parts(self):
        probs = random_probs(np.random.default_rng(3), 8, 4)
        (total, grad), (ent, d_ent), (div, d_div) = (
            im_loss(probs), entropy_loss(probs), diversity_loss(probs)
        )
        assert total == pytest.approx(ent + div, abs=1e-12)
        assert np.allclose(grad, d_ent + d_div, atol=1e-12)

    @pytest.mark.parametrize("loss", [entropy_loss, diversity_loss, im_loss],
                             ids=lambda loss: loss.__name__)
    def test_grads_match_fd(self, loss):
        probs = random_probs(np.random.default_rng(4), 5, 3)
        g = loss(probs)[1]
        fd = fd_grad(lambda: loss(probs)[0], probs, eps=1e-7)
        assert np.allclose(g, fd, atol=1e-5)


class TestSoftmaxChain:
    """`nn.backward` chains a gradient on the probabilities through the softmax."""

    def test_matches_fd_through_logits(self):
        # on a one-row batch the classifier bias moves the logits one for one,
        # so its gradient is the chained gradient on the logits
        rng = np.random.default_rng(5)
        m = init_model(2, 5, 4, depth=2, seed=5)
        for x, u in zip(rng.normal(size=(6, 1, 2)), rng.normal(size=(6, 1, 4))):
            g = backward(m, forward(m, x), u)[-1].bias
            fd = fd_grad(lambda: float((forward(m, x).probs * u).sum()), m.layers[-1].bias)
            assert np.allclose(g, fd, atol=1e-6)

    def test_constant_upstream_gives_zero(self):
        # softmax output sums to 1, so a constant direction has no effect
        m = init_model(2, 5, 3, depth=2, seed=6)
        tape = forward(m, np.random.default_rng(6).normal(size=(4, 2)))
        g = backward(m, tape, np.ones_like(tape.probs))
        for gw, gb in g:
            assert np.allclose(gw, 0.0, atol=1e-12) and np.allclose(gb, 0.0, atol=1e-12)


class TestMmd:
    def test_worked_example_single_points(self):
        # X={0}, Y={2}, sigma^2=2: 1 + 1 - 2 exp(-4/4) = 2 (1 - e^-1)
        X, Y = np.array([[0.0]]), np.array([[2.0]])
        kernel = [2.0]
        assert mmd_rbf(X, Y, kernel) == pytest.approx(2.0 * (1.0 - np.exp(-1.0)), abs=1e-12)

    def test_identical_samples_give_zero(self):
        X = np.random.default_rng(7).normal(size=(12, 3))
        assert mmd_rbf(X, X.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 2))
        Y = rng.normal(size=(7, 2)) + 1.0
        kernel = [0.5, 1.0, 3.0]
        assert mmd_rbf(X, Y, kernel) == pytest.approx(
            naive_mmd(X, Y, [0.5, 1.0, 3.0]), abs=1e-12
        )

    def test_median_heuristic_matches_naive(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(8, 2))
        Y = rng.normal(size=(6, 2)) + 2.0
        pooled = np.vstack([X, Y])
        sq = ((pooled[:, None, :] - pooled[None, :, :]) ** 2).sum(-1)
        s2 = np.median(sq[~np.eye(len(pooled), dtype=bool)])
        expected = naive_mmd(X, Y, [0.5 * s2, s2, 2.0 * s2])
        assert mmd_rbf(X, Y) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (7, 3), (64, 64)])
    @pytest.mark.parametrize("d", [2, 64])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_median_heuristic_is_exact(self, n, m, d, ties):
        # bit-equal to the median over the full pooled off-diagonal of the
        # same squared-distance computation, not merely close to it
        rng = np.random.default_rng([n, m, d, ties])
        for _ in range(10):
            X = np.tanh(rng.normal(size=(n, d)))
            Y = np.tanh(rng.normal(size=(m, d)) + 0.5)
            if ties:
                X[n // 2 :] = X[0]
                Y[: (m + 1) // 2] = X[-1]
            pooled = np.vstack([X, Y])
            sq = _sq_dists(pooled, pooled)
            s2 = float(np.median(sq[~np.eye(n + m, dtype=bool)]))
            s2 = s2 if s2 > 0 else 1.0
            assert median_bandwidths(sq).tolist() == [0.5 * s2, s2, 2.0 * s2]

    @pytest.mark.parametrize("size", [1, 2, 7, 800])
    def test_median_heuristic_reads_the_strict_upper_triangle(self, size):
        # on a matrix that is not symmetric, only the np.triu(..., 1) entries count
        sq = np.random.default_rng(size).random((size, size))
        sq[np.tril_indices(size)] += 10.0
        upper = sq[np.triu(np.ones((size, size), dtype=bool), 1)]
        s2 = float(np.median(upper)) if upper.size else 1.0
        assert median_bandwidths(sq).tolist() == [0.5 * s2, s2, 2.0 * s2]

    SHAPES = [(1, 1), (1, 5), (7, 3), (13, 29), (64, 64), (400, 400)]

    @pytest.mark.parametrize("n, m", SHAPES)
    @pytest.mark.parametrize("bandwidths", [None, [0.7, 2.0]], ids=["median", "explicit"])
    def test_pooled_blocks_match_three_products(self, n, m, bandwidths):
        # slicing the pooled matrix may move the last bits on some shapes
        rng = np.random.default_rng([n, m])
        X = np.tanh(rng.normal(size=(n, 64)))
        Y = np.tanh(rng.normal(size=(m, 64)) + 0.5)
        pooled = np.vstack([X, Y])
        ref = three_product_mmd(X, Y, bandwidths or median_bandwidths(_sq_dists(pooled, pooled)))
        assert mmd_rbf(X, Y, bandwidths) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n, m", SHAPES + [(8, 8), (50, 64), (100, 400)])
    @pytest.mark.parametrize("bandwidths", [None, [0.7, 2.0]], ids=["median", "explicit"])
    def test_grad_value_equals_mmd_exactly(self, n, m, bandwidths):
        # both read the same blocks in the same order, on any BLAS
        rng = np.random.default_rng([n, m, 1])
        X = rng.normal(size=(n, 64))
        Y = rng.normal(size=(m, 64)) + 0.3
        assert mmd_rbf_grad(X, Y, bandwidths)[0] == mmd_rbf(X, Y, bandwidths)

    @pytest.mark.parametrize("n, m", SHAPES + [(8, 8), (50, 64), (100, 400)])
    @pytest.mark.parametrize("bandwidths", [None, [0.7, 2.0]], ids=["median", "explicit"])
    def test_in_place_kernels_equal_the_reference_exactly(self, n, m, bandwidths):
        assert_matches_reference(*samples(n, m), bandwidths)

    def test_scratch_that_shrinks_and_grows_stays_exact(self):
        # a stale or undersized pooled-distance scratch would show as a mismatch
        for seed, rows in enumerate([400, 7, 64, 400]):
            for bandwidths in (None, [0.7, 2.0]):
                assert_matches_reference(*samples(rows, rows, seed), bandwidths)
                assert_matches_reference(*samples(rows, 3, seed), bandwidths)

    @pytest.mark.parametrize("same", [True, False], ids=["pooled", "cross"])
    def test_sq_dists_without_out_is_fresh_and_exact(self, same):
        X, Y = samples(50, 70)
        A, B = (np.vstack([X, Y]),) * 2 if same else (X, Y)
        mmd_rbf(X, Y)  # so that the scratch holds a pooled matrix
        sq = _sq_dists(A, B)
        assert np.array_equal(sq, reference_sq_dists(A, B))
        assert not np.shares_memory(sq, objectives._scratch.pooled)

    def test_median_bandwidths_leaves_its_input_unchanged(self):
        X, Y = samples(40, 30)
        pooled = np.vstack([X, Y])
        sq = _sq_dists(pooled, pooled)
        before = sq.tobytes()
        median_bandwidths(sq)
        assert sq.tobytes() == before

    def test_returned_gradients_outlive_later_calls(self):
        X, Y = samples(64, 64)
        _, gx, gy = mmd_rbf_grad(X, Y)
        kept = gx.copy(), gy.copy()
        for other in (samples(400, 400, 1), samples(7, 3, 1)):
            mmd_rbf_grad(*other)
            mmd_rbf(*other)
        assert np.array_equal(gx, kept[0]) and np.array_equal(gy, kept[1])
        assert not any(np.shares_memory(g, objectives._scratch.pooled) for g in (gx, gy))

    def test_steady_state_call_allocates_less_than_one_pooled_matrix(self):
        # deterministic, unlike a timing: the bytes numpy allocates during one
        # 400 vs 400 call once the scratch has grown, against the 800 x 800
        # float64 pooled matrix that a fresh-allocating call needs at least twice
        assert steady_state_peak() < 800 * 800 * 8

    def test_steady_state_call_on_a_helper_thread_allocates_less_than_one_pooled_matrix(self):
        # a thread's first call grows its own scratch, and its later calls reuse it
        peaks = []
        helper = threading.Thread(target=lambda: peaks.append(steady_state_peak()))
        helper.start()
        helper.join(timeout=60)
        assert not helper.is_alive() and len(peaks) == 1 and peaks[0] < 800 * 800 * 8

    def test_threads_keep_their_own_scratch(self):
        # full-dataset diagnostics and batch gradients running at once, as in
        # UDA, on more threads than a small host has cores and with frequent
        # thread switches, each give the bytes of a call made alone
        big, small = samples(400, 400), samples(64, 64, 1)
        expected = {"value": mmd_rbf(*big), "grad": mmd_rbf_grad(*small)}
        calls = {"value": lambda: mmd_rbf(*big), "grad": lambda: mmd_rbf_grad(*small)}
        kinds = ["value", "grad"] * 2
        results = [[] for _ in kinds]

        def repeat(kind, out):
            for _ in range(50):
                out.append(calls[kind]())

        threads = [threading.Thread(target=repeat, args=job) for job in zip(kinds, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        value, gx, gy = expected["grad"]
        for kind, out in zip(kinds, results):
            assert len(out) == 50
            if kind == "value":
                assert out == [expected["value"]] * 50
            else:
                for v, rx, ry in out:
                    assert v == value and np.array_equal(rx, gx) and np.array_equal(ry, gy)

    # two values near the float64 maximum overflow to inf in np.median's mean,
    # with a RuntimeWarning, and _median must overflow the same way
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64, st.integers(1, 40),
            elements=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(allow_nan=True)),
        )
    )
    def test_median_equals_numpy_median(self, values):
        expected = float(np.median(values))
        got = _median(values.copy())
        assert got == expected or (np.isnan(got) and np.isnan(expected))

    def test_median_equals_numpy_median_on_large_arrays(self):
        # the lower middle value must come from the whole lower part: numpy's
        # partition leaves it next to the pivot only most of the time
        rng = np.random.default_rng(12)
        for size in 2 * rng.integers(250, 1000, size=300):
            values = rng.random(size)
            assert _median(values) == np.median(values)

    def test_shift_increases_mmd(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 2))
        kernel = [1.0]
        small = mmd_rbf(X, X + 0.1, kernel)
        large = mmd_rbf(X, X + 2.0, kernel)
        assert 0.0 <= small < large

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(5, 3))
        Y = rng.normal(size=(8, 3))
        kernel = [1.5]
        assert mmd_rbf(X, Y, kernel) == pytest.approx(mmd_rbf(Y, X, kernel), abs=1e-15)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ParameterError):
            mmd_rbf(np.zeros((3, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("fn", [mmd_rbf, mmd_rbf_grad])
    @pytest.mark.parametrize("X, Y", [
        (np.zeros((3, 2)), np.zeros((3, 3))),
        (np.zeros((0, 2)), np.ones((3, 2))),
        (np.ones((3, 2)), np.zeros((0, 2))),
        (np.zeros(3), np.zeros((3, 1))),
        (np.zeros((2, 2, 2)), np.zeros((2, 2))),
    ], ids=["columns", "empty-x", "empty-y", "1-d", "3-d"])
    def test_rejects_malformed_input(self, fn, X, Y):
        with pytest.raises(ParameterError):
            fn(X, Y)

    @pytest.mark.parametrize("fn", [mmd_rbf, mmd_rbf_grad])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_rejects_non_finite_samples(self, fn, bad, side):
        X, Y = np.zeros((3, 2)), np.ones((4, 2))
        (X if side == "x" else Y)[1, 0] = bad
        with pytest.raises(ParameterError, match="^X and Y must be finite$"):
            fn(X, Y)
        with pytest.raises(ParameterError, match="^X and Y must be finite$"):
            fn(X, Y, [1.0])

    def test_bandwidths_may_be_an_array(self):
        X, Y = np.zeros((3, 2)), np.ones((4, 2))
        assert mmd_rbf(X, Y, np.array([0.7, 2.0])) == mmd_rbf(X, Y, [0.7, 2.0])

    @pytest.mark.parametrize("fn", [mmd_rbf, mmd_rbf_grad])
    @pytest.mark.parametrize(
        "bandwidths", [[-1.0], [], [0.0], [np.nan], [np.inf], [1.0, np.nan]],
        ids=["negative", "empty", "zero", "nan", "inf", "one-nan"],
    )
    def test_rejects_bad_kernel(self, fn, bandwidths):
        with pytest.raises(ParameterError):
            fn(np.zeros((3, 2)), np.ones((3, 2)), bandwidths)

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, (4, 2), elements=st.floats(-3, 3)),
        arrays(np.float64, (5, 2), elements=st.floats(-3, 3)),
    )
    def test_nonnegative_and_matches_naive(self, X, Y):
        kernel = [1.0]
        v = mmd_rbf(X, Y, kernel)
        assert v >= -1e-12
        assert v == pytest.approx(naive_mmd(X, Y, [1.0]), abs=1e-10)


class TestFrozenKernels:
    """mmd_rbf and mmd_rbf_grad give the frozen kernels' bits, value and gradients."""

    @staticmethod
    def assert_frozen_bits(X, Y, bandwidths):
        assert mmd_rbf(X, Y, bandwidths) == frozen_mmd_rbf(X, Y, bandwidths)
        value, gx, gy = mmd_rbf_grad(X, Y, bandwidths)
        ref_value, ref_gx, ref_gy = frozen_mmd_rbf_grad(X, Y, bandwidths)
        assert value == ref_value
        assert np.array_equal(gx, ref_gx) and np.array_equal(gy, ref_gy)

    @pytest.mark.parametrize("n, m, d", [(1, 1, 1), (50, 70, 33), (64, 64, 64), (64, 64, 16),
                                         (3, 130, 7), (400, 400, 64)])
    @pytest.mark.parametrize("bandwidths", [None, [0.7, 2.0]], ids=["median", "explicit"])
    def test_fixed_shapes(self, n, m, d, bandwidths):
        rng = np.random.default_rng([n, m, d])
        X, Y = np.tanh(rng.normal(size=(n, d))), np.tanh(rng.normal(size=(m, d)) + 0.5)
        self.assert_frozen_bits(X, Y, bandwidths)

    def test_random_shapes_ties_and_bandwidths(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            n, m, d = rng.integers(1, 90, size=2).tolist() + [int(rng.integers(1, 70))]
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
            Y = rng.normal(size=(m, d)) + rng.uniform(-1.0, 1.0)
            if rng.random() < 0.4:  # tied rows, within and across the samples
                X[n // 2 :] = X[0]
                Y[: (m + 1) // 2] = X[-1]
            bandwidths = None if rng.random() < 0.5 else rng.uniform(0.05, 5.0, size=int(rng.integers(1, 4)))
            self.assert_frozen_bits(X, Y, bandwidths)

    def test_identical_and_same_object_samples(self):
        X = np.random.default_rng(3).normal(size=(20, 5))
        self.assert_frozen_bits(X, X, None)
        self.assert_frozen_bits(X, X.copy(), [1.0])
        self.assert_frozen_bits(np.zeros((4, 3)), np.zeros((6, 3)), None)


def reference_mmd_full(X, Y):
    """mmd_full as one expression per block: the kernel at 2 sigma^2, k, gives
    k**2 at sigma^2 and (k**2)**2 at sigma^2 / 2; the terms add up in that
    bandwidth order, as in mmd_rbf."""
    pooled = np.vstack([X, Y])
    sq = _sq_dists(pooled, pooled)
    wide = median_bandwidths(sq)[2]
    n = len(X)
    k = [np.exp(d / -(2.0 * wide)) for d in (sq[:n, :n], sq[n:, n:], sq[:n, n:])]
    k2 = [a * a for a in k]
    k4 = [a * a for a in k2]
    total = 0.0
    for xx, yy, xy in (k4, k2, k):
        total += xx.mean() + yy.mean() - 2.0 * xy.mean()
    return float(total / 3)


class TestMmdFull:
    """mmd_full, the one-exp diagnostic, agrees with mmd_rbf at the median heuristic."""

    @pytest.mark.parametrize("n, m, d", [(1, 1, 1), (1, 7, 3), (50, 70, 33), (400, 400, 64)])
    def test_matches_its_reference_bit_for_bit(self, n, m, d):
        rng = np.random.default_rng([n, m, d])
        X, Y = np.tanh(rng.normal(size=(n, d))), np.tanh(rng.normal(size=(m, d)) + 0.5)
        assert mmd_full(X, Y) == reference_mmd_full(X, Y)

    def test_matches_its_reference_bit_for_bit_on_random_shapes(self):
        # the bandwidth order of the sum shows in the bits of about 1 case in 100
        rng = np.random.default_rng(7)
        for case in range(300):
            n, m, d = int(rng.integers(1, 80)), int(rng.integers(1, 80)), int(rng.integers(1, 40))
            X = np.tanh(rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0))
            Y = np.tanh(rng.normal(size=(m, d)) + rng.uniform(-1.0, 1.0))
            assert mmd_full(X, Y) == reference_mmd_full(X, Y), (case, n, m, d)

    def test_agrees_with_mmd_rbf_on_random_shapes_and_ties(self):
        rng = np.random.default_rng(25)
        for case in range(400):
            n, m = rng.choice(300, size=2, replace=False) + 1  # n != m
            if case % 10 == 0:
                n = 1  # a one-row side
            d = int(rng.integers(1, 65))
            X = np.tanh(rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0))
            Y = np.tanh(rng.normal(size=(m, d)) + rng.uniform(-1.0, 1.0))
            if rng.random() < 0.3:  # tied rows, within and across the samples
                X[n // 2 :] = X[0]
                Y[: (m + 1) // 2] = X[-1]
            assert mmd_full(X, Y) == pytest.approx(mmd_rbf(X, Y), rel=1e-13, abs=1e-15), (n, m, d)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 300), (300, 1), (400, 400)])
    def test_agrees_at_the_edges(self, n, m):
        rng = np.random.default_rng([n, m])
        X, Y = np.tanh(rng.normal(size=(n, 16))), np.tanh(rng.normal(size=(m, 16)) + 0.5)
        assert mmd_full(X, Y) == pytest.approx(mmd_rbf(X, Y), rel=1e-13, abs=1e-15)

    def test_identical_samples_give_exactly_zero(self):
        X = np.random.default_rng(3).normal(size=(40, 5))
        assert mmd_full(X, X) == 0.0
        assert mmd_full(X, X.copy()) == 0.0
        assert mmd_full(np.zeros((4, 3)), np.zeros((6, 3))) == 0.0

    @pytest.mark.parametrize("X, Y", [
        (np.zeros((3, 2)), np.zeros((3, 3))),
        (np.zeros((0, 2)), np.ones((3, 2))),
        (np.ones((3, 2)), np.zeros((0, 2))),
        (np.zeros(3), np.zeros((3, 1))),
        (np.zeros((2, 2, 2)), np.zeros((2, 2))),
        (np.array([[0.0, np.nan]]), np.ones((3, 2))),
        (np.zeros((3, 2)), np.array([[np.inf, 0.0]])),
        (np.zeros((3, 2)), np.array([[0.0, -np.inf]])),
    ], ids=["columns", "empty-x", "empty-y", "1-d", "3-d", "nan", "inf", "-inf"])
    def test_refuses_what_mmd_rbf_refuses(self, X, Y):
        with pytest.raises(ParameterError) as expected:
            mmd_rbf(X, Y)
        with pytest.raises(ParameterError, match=f"^{re.escape(str(expected.value))}$"):
            mmd_full(X, Y)


class TestMmdGrad:
    def test_matches_fd_both_arguments(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(5, 2)) + 0.5
        kernel = [0.7, 1.3]
        value, gx, gy = mmd_rbf_grad(X, Y, kernel)
        assert value == pytest.approx(mmd_rbf(X, Y, kernel), abs=1e-12)
        fx = fd_grad(lambda: mmd_rbf(X, Y, kernel), X)
        fy = fd_grad(lambda: mmd_rbf(X, Y, kernel), Y)
        assert np.allclose(gx, fx, atol=1e-6)
        assert np.allclose(gy, fy, atol=1e-6)

    def test_zero_at_identical_samples(self):
        X = np.random.default_rng(13).normal(size=(7, 2))
        _, gx, gy = mmd_rbf_grad(X, X.copy(), [1.0])
        assert np.allclose(gx + gy, 0.0, atol=1e-12)


class TestEnsemble:
    def _models(self, n=2):
        return [init_model(2, 4, 3, seed=i, domain_id=f"d{i}") for i in range(n)]

    def _mix(self, models, weights, X):
        w = ensemble_weights(models, weights)
        net, _ = stack_models([m for m, wi in zip(models, w) if wi != 0.0])
        return mix_probs(w[w != 0.0], forward(net, X).probs)

    def test_single_model_weight_one(self):
        models = self._models(2)
        X = np.random.default_rng(14).normal(size=(5, 2))
        ens = self._mix(models, [1.0, 0.0], X)
        assert np.array_equal(ens, forward(models[0], X).probs)

    def test_convex_combination(self):
        models = self._models(2)
        X = np.random.default_rng(15).normal(size=(5, 2))
        ens = self._mix(models, [0.3, 0.7], X)
        manual = 0.3 * forward(models[0], X).probs + 0.7 * forward(models[1], X).probs
        assert np.allclose(ens, manual, atol=1e-15)
        assert np.allclose(ens.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_non_simplex_weights(self):
        models = self._models(2)
        with pytest.raises(ParameterError):
            ensemble_weights(models, [0.5, 0.6])
        with pytest.raises(ParameterError):
            ensemble_weights(models, [-0.1, 1.1])
        with pytest.raises(ParameterError):  # NaN fails every comparison
            ensemble_weights(models, [np.nan, np.nan])
