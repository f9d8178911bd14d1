import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftlab.errors import ParameterError
from shiftlab.nn import init_model, forward
from shiftlab.objectives import (
    EPS,
    _median,
    cross_entropy,
    cross_entropy_probs_grad,
    diversity_loss,
    diversity_probs_grad,
    ensemble_weights,
    entropy_loss,
    entropy_probs_grad,
    im_loss,
    im_probs_grad,
    median_bandwidths,
    mix_probs,
    mmd_rbf,
    mmd_rbf_grad,
    _sq_dists,
    softmax_probs_to_logits_grad,
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
        assert cross_entropy(probs, labels) == pytest.approx(expected, abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, np.array([0, 1])) == pytest.approx(0.0, abs=1e-5)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        probs = random_probs(rng, 6, 3)
        labels = rng.integers(0, 3, size=6)
        g = cross_entropy_probs_grad(probs, labels)
        # eps below the simplex-check tolerance so perturbed rows stay valid
        fd = fd_grad(lambda: cross_entropy(probs, labels), probs, eps=1e-7)
        # unconstrained FD: only the picked entries carry gradient
        assert np.allclose(g, fd, atol=1e-4)

    def test_rejects_bad_labels(self):
        probs = random_probs(np.random.default_rng(1), 4, 2)
        with pytest.raises(ParameterError):
            cross_entropy(probs, np.array([0, 1, 2, 0]))

    def test_rejects_non_simplex_rows(self):
        with pytest.raises(ParameterError):
            cross_entropy(np.array([[0.9, 0.9]]), np.array([0]))


class TestEntropyAndDiversity:
    def test_uniform_rows_maximize_entropy(self):
        uniform = np.full((4, 3), 1.0 / 3.0)
        assert entropy_loss(uniform) == pytest.approx(np.log(3.0), abs=1e-5)
        peaked = np.array([[1.0, 0.0, 0.0]] * 4)
        assert entropy_loss(peaked) == pytest.approx(0.0, abs=1e-4)

    def test_diversity_minimized_at_uniform_marginal(self):
        # two confidently different rows -> uniform marginal -> -log 2
        probs = np.array([[0.99, 0.01], [0.01, 0.99]])
        assert diversity_loss(probs) == pytest.approx(-np.log(2.0), abs=1e-5)
        # collapsed predictions -> marginal entropy ~0 -> loss ~0 (larger)
        collapsed = np.array([[0.99, 0.01], [0.99, 0.01]])
        assert diversity_loss(collapsed) > diversity_loss(probs)

    def test_im_is_sum_of_parts(self):
        probs = random_probs(np.random.default_rng(3), 8, 4)
        total = im_loss(probs)
        assert total == pytest.approx(entropy_loss(probs) + diversity_loss(probs), abs=1e-12)

    @pytest.mark.parametrize(
        "loss,grad",
        [
            (entropy_loss, entropy_probs_grad),
            (diversity_loss, diversity_probs_grad),
            (im_loss, im_probs_grad),
        ],
    )
    def test_grads_match_fd(self, loss, grad):
        probs = random_probs(np.random.default_rng(4), 5, 3)
        g = grad(probs)
        fd = fd_grad(lambda: loss(probs), probs, eps=1e-7)
        assert np.allclose(g, fd, atol=1e-5)


class TestSoftmaxChain:
    def test_matches_fd_through_logits(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 4))
        U = rng.normal(size=(6, 4))

        def softmax(z):
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            return e / e.sum(axis=1, keepdims=True)

        probs = softmax(logits)
        g = softmax_probs_to_logits_grad(probs, U)
        fd = fd_grad(lambda: float((softmax(logits) * U).sum()), logits)
        assert np.allclose(g, fd, atol=1e-6)

    def test_constant_upstream_gives_zero(self):
        # softmax output sums to 1, so a constant direction has no effect
        probs = random_probs(np.random.default_rng(6), 4, 3)
        g = softmax_probs_to_logits_grad(probs, np.ones_like(probs))
        assert np.allclose(g, 0.0, atol=1e-12)


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
        return mix_probs(w, {i: forward(m, X).probs for i, m in enumerate(models) if w[i] != 0.0})

    def test_single_model_weight_one(self):
        models = self._models(2)
        X = np.random.default_rng(14).normal(size=(5, 2))
        ens = self._mix(models, [1.0, 0.0], X)
        assert np.array_equal(ens, forward(models[0], X)[2])

    def test_convex_combination(self):
        models = self._models(2)
        X = np.random.default_rng(15).normal(size=(5, 2))
        ens = self._mix(models, [0.3, 0.7], X)
        manual = 0.3 * forward(models[0], X)[2] + 0.7 * forward(models[1], X)[2]
        assert np.allclose(ens, manual, atol=1e-15)
        assert np.allclose(ens.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_non_simplex_weights(self):
        models = self._models(2)
        with pytest.raises(ParameterError):
            ensemble_weights(models, [0.5, 0.6])
        with pytest.raises(ParameterError):
            ensemble_weights(models, [-0.1, 1.1])
