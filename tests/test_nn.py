import pickle

import numpy as np
import pytest

from shiftlab.adapt import AdaptationConfig, train_source
from shiftlab.datagen import gen_two_moons
from shiftlab.errors import FormatError, NumericError, ParameterError
from shiftlab.nn import (
    Layer,
    SourceModel,
    add_gradient,
    backward,
    forward,
    init_model,
    init_optimizer,
    load_model,
    save_model,
    sgd_step,
    stack_models,
    zeros_gradient,
)


def finite_difference_grad(model, X, loss_fn, eps=1e-5):
    """Central finite differences of loss_fn(model) for every parameter."""
    grads = []
    for w, b in model.layers:
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for arr, g in ((w, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                arr[i] += eps
                lp = loss_fn(model)
                arr[i] -= 2 * eps
                lm = loss_fn(model)
                arr[i] += eps
                g[i] = (lp - lm) / (2 * eps)
        grads.append((gw, gb))
    return grads


def assert_grad_close(analytic, fd, rtol=1e-4):
    for (aw, ab), (fw, fb) in zip(analytic, fd):
        for a, f in ((aw, fw), (ab, fb)):
            denom = np.maximum(np.abs(f), 1e-6)
            assert np.max(np.abs(a - f) / denom) < rtol


class TestInit:
    def test_determinism(self):
        a = init_model(2, 8, 2, depth=2, seed=5)
        b = init_model(2, 8, 2, depth=2, seed=5)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_shapes_depth_one(self):
        m = init_model(2, 8, 2, depth=1, seed=0)
        assert [l.weight.shape for l in m.layers] == [(8, 2), (2, 8)]
        assert (m.input_dim, m.num_classes) == (2, 2)

    def test_biases_zero_and_fan_in_bound(self):
        m = init_model(3, 16, 4, depth=3, seed=2)
        for layer in m.layers:
            assert np.all(layer.bias == 0)
            bound = 1.0 / np.sqrt(layer.weight.shape[1])
            assert np.all(np.abs(layer.weight) <= bound)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ParameterError):
            init_model(0, 8, 2)
        with pytest.raises(ParameterError):
            init_model(2, 8, 2, depth=0)


class TestModel:
    def test_needs_a_tanh_layer_and_a_classifier(self):
        with pytest.raises(ParameterError, match="at least one tanh layer"):
            SourceModel(init_model(2, 4, 2).layers[-1:])

    def test_adjacent_layers_must_compose(self):
        layers = init_model(2, 4, 3, depth=2).layers
        with pytest.raises(ParameterError, match="do not compose"):
            SourceModel([layers[0], Layer(np.zeros((3, 5)), np.zeros(3))])

    def test_parameters_must_be_finite(self):
        layers = init_model(2, 4, 2).layers
        layers[-1].bias[0] = np.inf
        with pytest.raises(ParameterError, match="finite"):
            SourceModel(layers)


class TestForward:
    def test_zero_classifier_gives_uniform_probs(self):
        m = init_model(2, 8, 3, seed=1)
        m.layers[-1].weight[...] = 0.0
        probs = forward(m, np.random.default_rng(0).normal(size=(5, 2))).probs
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        m = init_model(2, 8, 3, seed=1)
        X = np.random.default_rng(1).normal(size=(4, 2))
        probs = forward(m, X).probs
        m2 = init_model(2, 8, 3, seed=1)
        m2.layers[-1].bias[...] += 7.5  # shifts every logit of every row
        probs2 = forward(m2, X).probs
        assert np.allclose(probs, probs2, atol=1e-12)

    def test_rows_sum_to_one(self):
        m = init_model(5, 12, 4, seed=3)
        X = np.random.default_rng(2).normal(size=(20, 5))
        probs = forward(m, X).probs
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((probs > 0) & (probs < 1))

    def test_dimension_mismatch(self):
        m = init_model(3, 8, 2, seed=0)
        with pytest.raises(ParameterError):
            forward(m, np.zeros((4, 2)))

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("rows", [1, 64, 400])
    def test_pass_into_an_earlier_tape_equals_a_fresh_pass(self, members, rows):
        rng = np.random.default_rng(10 * rows + members)
        net, _ = stack_models([init_model(2, seed=k) for k in range(members)])
        tape = forward(net, rng.normal(size=(rows, 2)))
        arrays = [tape.features, tape.probs, *tape.acts[1:]]
        for w, b in net.layers:  # moved, as by the training steps between two passes
            w += rng.normal(scale=0.1, size=w.shape)
            b += rng.normal(scale=0.1, size=b.shape)
        X = rng.normal(size=(rows, 2))
        fresh, reused = forward(net, X), forward(net, X, tape)
        assert reused.acts[0] is X and len(reused.acts) == len(fresh.acts)
        for got, want in zip([reused.features, reused.probs, *reused.acts[1:]],
                             [fresh.features, fresh.probs, *fresh.acts[1:]], strict=True):
            assert np.array_equal(got, want)
        # written into the earlier tape's own arrays
        for got, mine in zip([reused.features, reused.probs, *reused.acts[1:]], arrays, strict=True):
            assert got is mine
        assert reused.features is reused.acts[-1]


class TestBackward:
    def test_matches_finite_differences_on_ce_style_loss(self):
        rng = np.random.default_rng(7)
        m = init_model(3, 6, 3, depth=2, seed=7)
        X = rng.normal(size=(10, 3))
        U = rng.normal(size=(10, 3))  # arbitrary fixed upstream direction

        def loss(model):
            return float((forward(model, X).probs * U).sum())

        analytic = backward(m, forward(m, X), U)
        assert_grad_close(analytic, finite_difference_grad(m, X, loss))

    def test_feature_gradient_path(self):
        rng = np.random.default_rng(8)
        m = init_model(2, 5, 2, depth=2, seed=8)
        X = rng.normal(size=(6, 2))
        V = rng.normal(size=(6, 5))

        def loss(model):
            return float((forward(model, X)[0] * V).sum())

        analytic = backward(m, forward(m, X), dfeat=V)
        assert_grad_close(analytic, finite_difference_grad(m, X, loss))

    def test_zero_upstream_gives_zero_gradient(self):
        m = init_model(2, 4, 2, seed=0)
        g = backward(m, forward(m, np.zeros((3, 2))), np.zeros((3, 2)))
        for gw, gb in g:
            assert np.all(gw == 0) and np.all(gb == 0)

    def test_mean_reduction_invariant_to_duplication(self):
        rng = np.random.default_rng(3)
        m = init_model(2, 4, 2, seed=3)
        X = rng.normal(size=(5, 2))
        U = rng.normal(size=(5, 2))
        g1 = backward(m, forward(m, X), U / 5)
        g2 = backward(m, forward(m, np.vstack([X, X])), np.vstack([U, U]) / 10)
        for (a, ab), (b, bb) in zip(g1, g2):
            assert np.allclose(a, b, atol=1e-12)
            assert np.allclose(ab, bb, atol=1e-12)


    def test_add_gradient_sums_in_place(self):
        rng = np.random.default_rng(4)
        m = init_model(2, 4, 2, depth=2, seed=4)
        tape = forward(m, rng.normal(size=(5, 2)))
        g1 = backward(m, tape, rng.normal(size=(5, 2)))
        g2 = backward(m, tape, dfeat=rng.normal(size=(5, 4)))
        want = [Layer(a.weight + b.weight, a.bias + b.bias) for a, b in zip(g1, g2)]
        assert add_gradient(g1, g2) is g1
        for got, w in zip(g1, want, strict=True):
            assert np.array_equal(got.weight, w.weight) and np.array_equal(got.bias, w.bias)

    def test_without_the_classifier_the_other_layers_are_unchanged(self):
        rng = np.random.default_rng(5)
        m = init_model(2, 4, 2, depth=2, seed=5)
        tape = forward(m, rng.normal(size=(5, 2)))
        U, V = rng.normal(size=(5, 2)), rng.normal(size=(5, 4))
        for upstream in ((U, None), (None, V), (U, V)):
            full, frozen = backward(m, tape, *upstream), backward(m, tape, *upstream, classifier=False)
            assert frozen[-1] is None
            for a, b in zip(full[:-1], frozen[:-1], strict=True):
                assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)
            assert add_gradient(frozen, backward(m, tape, U, classifier=False))[-1] is None


class TestSgd:
    def test_plain_step(self):
        m = init_model(2, 4, 2, seed=1)
        before = m.layers[0].weight.copy()
        g = zeros_gradient(m)
        g[0].weight[...] = 1.0
        state = init_optimizer(m, 0.1, 0.0)
        sgd_step(m, g, state)
        assert np.allclose(m.layers[0].weight, before - 0.1, atol=1e-15)

    def test_zero_grad_fixed_point(self):
        m = init_model(2, 4, 2, seed=1)
        before = m.layers[-1].weight.copy()
        sgd_step(m, zeros_gradient(m), init_optimizer(m, 0.5, 0.9))
        assert np.array_equal(m.layers[-1].weight, before)

    def test_momentum_recurrence(self):
        m = init_model(2, 4, 2, seed=1)
        before = m.layers[0].weight.copy()
        state = init_optimizer(m, 1.0, 0.9)
        g = zeros_gradient(m)
        g[0].weight[...] = 1.0
        sgd_step(m, g, state)
        g2 = zeros_gradient(m)
        g2[0].weight[...] = 1.0
        sgd_step(m, g2, state)
        # v1 = g, v2 = 0.9 g + g -> total displacement g (1 + 1.9)
        assert np.allclose(before - m.layers[0].weight, 2.9, atol=1e-12)

    def test_a_layer_without_gradient_is_untouched(self):
        m = init_model(2, 4, 2, depth=2, seed=1)
        state = init_optimizer(m, 0.1, 0.9)
        g = zeros_gradient(m)
        for gw, gb in g:
            gw[...] = 1.0
            gb[...] = 1.0
        head, velocity = [a.copy() for a in m.layers[-1]], [a.copy() for a in state.velocity[-1]]
        g[-1] = None
        for _ in range(2):
            sgd_step(m, g, state)
        assert np.allclose(m.layers[0].weight - init_model(2, 4, 2, depth=2, seed=1).layers[0].weight,
                           -0.1 * 2.9, atol=1e-12)
        for a, b in zip([*m.layers[-1], *state.velocity[-1]], head + velocity, strict=True):
            assert np.array_equal(a, b)

    def test_nonfinite_gradient_aborts(self):
        m = init_model(2, 4, 2, seed=1)
        g = zeros_gradient(m)
        g[0].weight[0, 0] = np.nan
        with pytest.raises(NumericError):
            sgd_step(m, g, init_optimizer(m, 0.1, 0.0))

    def test_nonfinite_last_entry_touches_nothing(self):
        m = init_model(2, 4, 2, depth=2, seed=1)
        state = init_optimizer(m, 0.1, 0.9)
        g = zeros_gradient(m)
        for gw, gb in g:
            gw[...] = 1.0
            gb[...] = 1.0
        sgd_step(m, g, state)  # non-zero velocity, so a partial update would show

        def snapshot():
            return [a.copy() for pair in m.layers + state.velocity for a in pair]

        before = snapshot()
        g[-1].bias[-1] = np.nan  # the last entry the finiteness check reaches
        with pytest.raises(NumericError):
            sgd_step(m, g, state)
        assert all(np.array_equal(a, b) for a, b in zip(before, snapshot()))


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = init_model(3, 7, 4, depth=3, seed=9, domain_id="dom-x")
        path = tmp_path / "m.txt"
        save_model(m, path)
        back = load_model(path)
        for la, lb in zip(m.layers, back.layers, strict=True):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
        assert back.meta["domain_id"] == "dom-x"

    def test_pickle_roundtrip_exact(self):
        # the bench's worker processes send source models back by pickle
        ds = gen_two_moons(80, 0.1, 10.0, seed=2, domain_id="dom-p")
        m = train_source(ds, AdaptationConfig(iterations=20, seed=3)).model
        back = pickle.loads(pickle.dumps(m))
        for la, lb in zip(m.layers, back.layers, strict=True):
            for a, b in zip(la, lb, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
        assert back.meta == m.meta and back.meta["domain_id"] == "dom-p"

    def test_activation_word_fixed_by_position(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(init_model(2, 4, 2, depth=3), path)
        lines = path.read_text().splitlines()
        assert [ln.split()[3] for ln in lines if ln.startswith("layer ")] == [
            "tanh", "tanh", "tanh", "linear"]

    @pytest.mark.parametrize("domain_id", ["a b", "p,q", "x=y", "\xe9"])
    def test_init_model_rejects_a_bad_domain_id(self, domain_id):
        with pytest.raises(ParameterError, match="domain id"):
            init_model(2, 4, 2, domain_id=domain_id)

    def test_file_with_a_bad_domain_id_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(init_model(2, 4, 2, domain_id="pq"), path)
        path.write_text(path.read_text().replace("domain_id=pq", "domain_id=p,q"))
        with pytest.raises(FormatError, match="domain id 'p,q'"):
            load_model(path)

    def test_shape_inconsistent_file_rejected(self, tmp_path):
        m = init_model(2, 4, 2, seed=0)
        path = tmp_path / "m.txt"
        save_model(m, path)
        lines = path.read_text().splitlines()
        # corrupt the classifier block header to an incompatible input dim
        idx = max(i for i, ln in enumerate(lines) if ln.startswith("layer "))
        lines[idx] = "layer 2 3 linear"
        path.write_text("\n".join(lines[: idx + 1 + 2 * 3 + 2]) + "\n")
        with pytest.raises(FormatError):
            load_model(path)

    def test_magic_line_only_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("#shiftlab-model v1\n")
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("layer, activation", [(0, "relu"), (-1, "tanh"), (0, "linear"),
                                                   (1, "sigmoid")])
    def test_activation_forward_cannot_run_rejected(self, tmp_path, layer, activation):
        m = init_model(2, 4, 2, depth=2, seed=0)
        path = tmp_path / "m.txt"
        save_model(m, path)
        lines = path.read_text().splitlines()
        headers = [i for i, ln in enumerate(lines) if ln.startswith("layer ")]
        rows, cols = lines[headers[layer]].split()[1:3]
        lines[headers[layer]] = f"layer {rows} {cols} {activation}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"activations must be .*, got \[.*'{activation}'"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("#shiftlab-model v999\n\n")
        with pytest.raises(FormatError):
            load_model(path)
