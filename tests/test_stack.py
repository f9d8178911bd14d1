"""The stacked ensemble path against the per-model path it replaced.

`ref_forward`, `ref_backward` and `ref_sgd_step` are the nn code that ran one
model at a time before ensembles were stacked; the `ref_*` losses and
`ref_logits_grad` are the objectives code from before each loss returned its
value and gradient in one call, when the trainers chained the gradient
through the softmax themselves. `ref_adapt` is the per-model adaptation loop
built on them, one dict entry per member. Every result of the code under
test must equal them bit for bit; where it does not, these tests say which
function or which trainer step diverged first.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftlab import adapt
from shiftlab.adapt import (
    AdaptationConfig,
    train_expanded_base,
    train_msfda,
    train_sfda,
    train_source,
)
from shiftlab.datagen import gen_two_moons
from shiftlab.errors import ParameterError
from shiftlab.nn import (
    Layer,
    Tape,
    add_gradient,
    backward,
    forward,
    init_model,
    init_optimizer,
    sgd_step,
    stack_models,
)
from shiftlab.objectives import (
    EPS,
    cross_entropy,
    diversity_loss,
    entropy_loss,
    im_loss,
    mmd_rbf_grad,
)

# ---------------------------------------------------------------------------
# The per-model reference.


def ref_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def ref_forward(model, X):
    *hidden, head = model.layers
    acts = [X]
    for layer in hidden:
        acts.append(np.tanh(acts[-1] @ layer.weight.T + layer.bias))
    features = acts[-1]
    logits = features @ head.weight.T + head.bias
    return Tape(features, ref_softmax(logits), acts)


def ref_backward(model, tape, dlogits=None, dfeat=None):
    acts, features = tape.acts, tape.features
    *hidden, head = model.layers
    if dlogits is not None:
        g_wc = dlogits.T @ features
        g_bc = dlogits.sum(axis=0)
        g = dlogits @ head.weight
    else:
        g_wc = np.zeros_like(head.weight)
        g_bc = np.zeros_like(head.bias)
        g = np.zeros_like(features)
    if dfeat is not None:
        g = g + dfeat
    grads = [None] * len(hidden) + [Layer(g_wc, g_bc)]
    for i in range(len(hidden) - 1, -1, -1):
        a_out, a_in = acts[i + 1], acts[i]
        dz = g * (1.0 - a_out * a_out)  # tanh'
        grads[i] = Layer(dz.T @ a_in, dz.sum(axis=0))
        g = dz @ hidden[i].weight
    return grads


def ref_sgd_step(model, grad, state):
    for (w, b), (gw, gb), (vw, vb) in zip(model.layers, grad, state.velocity):
        vw *= state.momentum
        vw += gw
        vb *= state.momentum
        vb += gb
        w -= state.learning_rate * vw
        b -= state.learning_rate * vb


def ref_logits_grad(probs, dprobs):
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def ref_cross_entropy(probs, labels):
    picked = probs[np.arange(len(labels)), labels]
    return float((-np.log(picked + EPS)).mean())


def ref_cross_entropy_probs_grad(probs, labels):
    n = probs.shape[0]
    grad = np.zeros_like(probs)
    rows = np.arange(n)
    grad[rows, labels] = -1.0 / (probs[rows, labels] + EPS) / n
    return grad


def ref_entropy_loss(probs):
    return float((-(probs * np.log(probs + EPS)).sum(axis=1)).mean())


def ref_entropy_probs_grad(probs):
    n = probs.shape[0]
    return -(np.log(probs + EPS) + probs / (probs + EPS)) / n


def ref_diversity_loss(probs):
    marginal = probs.mean(axis=0)
    return float((marginal * np.log(marginal + EPS)).sum())


def ref_diversity_probs_grad(probs):
    n = probs.shape[0]
    marginal = probs.mean(axis=0)
    row = (np.log(marginal + EPS) + marginal / (marginal + EPS)) / n
    return np.broadcast_to(row, probs.shape).copy()


def ref_im_loss(probs):
    return ref_entropy_loss(probs) + ref_diversity_loss(probs)


def ref_im_probs_grad(probs):
    return ref_entropy_probs_grad(probs) + ref_diversity_probs_grad(probs)


def ref_mix(weights, probs):
    """`probs` maps each active model's index to its probs; summed in model order."""
    return sum(weights[i] * p for i, p in probs.items())


def ref_cosine_distances(feats, centroids):
    fn = feats / (np.linalg.norm(feats, axis=1, keepdims=True) + 1e-12)
    cn = centroids / (np.linalg.norm(centroids, axis=1, keepdims=True) + 1e-12)
    return 1.0 - fn @ cn.T


def ref_pseudo_labels(models, weights, X):
    active = [(i, w) for i, w in enumerate(weights) if w != 0.0]
    feats, member_probs = {}, {}
    for i, _ in active:
        tape = ref_forward(models[i], X)
        feats[i], member_probs[i] = tape.features, tape.probs
    probs = ref_mix(weights, member_probs)
    k = probs.shape[1]
    centroids = {i: (probs.T @ feats[i]) / (probs.sum(axis=0)[:, None] + 1e-8) for i, _ in active}

    def assign():
        dist = np.zeros((X.shape[0], k))
        for i, w in active:
            dist += w * ref_cosine_distances(feats[i], centroids[i])
        return dist.argmin(axis=1)

    labels = assign()
    for i, _ in active:
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[i][c] = feats[i][mask].mean(axis=0)
    return assign()


def ref_adapt(models, weights, target, cfg, eval_set, visible_sources=(), mode=None):
    """The per-model adaptation loop: (adapted models, one loss dict per step)."""
    weights = np.asarray(weights, dtype=np.float64)
    active = [i for i, w in enumerate(weights) if w != 0.0]
    models = [m.clone() for m in models]
    opts = [init_optimizer(m, cfg.learning_rate, cfg.momentum) for m in models]
    stream = adapt._stream(target.n, cfg, 17)
    vs_streams = [adapt._stream(vs.n, cfg, 41 + j) for j, vs in enumerate(visible_sources)]
    lam = cfg.lambda_uda
    rows = []
    for it in range(cfg.iterations):
        if cfg.beta_pseudo > 0 and it % cfg.pseudo_refresh == 0:
            pl = ref_pseudo_labels(models, weights, target.features)
        idx = next(stream)
        tapes = {i: ref_forward(models[i], target.features[idx]) for i in active}
        ens = ref_mix(weights, {i: t.probs for i, t in tapes.items()})
        im = ref_im_loss(ens)
        dprobs = ref_im_probs_grad(ens)
        ce_value = 0.0
        if cfg.beta_pseudo > 0:
            ce_value = ref_cross_entropy(ens, pl[idx])
            dprobs = dprobs + cfg.beta_pseudo * ref_cross_entropy_probs_grad(ens, pl[idx])
        vis_ce_value = 0.0
        mmd_value = 0.0
        vis_grads = []
        dfeat = dict.fromkeys(tapes)
        for vs, vstream in zip(visible_sources, vs_streams):
            scale = 1.0 / len(visible_sources)
            vidx = next(vstream)
            xs, ys = vs.features[vidx], vs.labels[vidx]
            tapes_s = {i: ref_forward(models[i], xs) for i in active}
            ens_s = ref_mix(weights, {i: t.probs for i, t in tapes_s.items()})
            vis_ce_value += scale * ref_cross_entropy(ens_s, ys)
            dprobs_s = scale * ref_cross_entropy_probs_grad(ens_s, ys)
            for i, ts in tapes_s.items():
                dlog = ref_logits_grad(ts.probs, weights[i] * dprobs_s)
                if mode == "ce+mmd" and lam > 0:
                    mv, gs, gt = mmd_rbf_grad(ts.features, tapes[i].features)
                    mmd_value += scale * weights[i] * mv
                    c = lam * scale * weights[i]
                    dfeat[i] = c * gt if dfeat[i] is None else dfeat[i] + c * gt
                    vis_grads.append((i, ref_backward(models[i], ts, dlog, c * gs)))
                else:
                    vis_grads.append((i, ref_backward(models[i], ts, dlog)))
        grads = {
            i: ref_backward(models[i], t, ref_logits_grad(t.probs, weights[i] * dprobs), dfeat[i])
            for i, t in tapes.items()
        }
        for i, g in vis_grads:
            add_gradient(grads[i], g)
        for i, g in grads.items():
            for a in g[-1]:
                a[...] = 0.0
            ref_sgd_step(models[i], g, opts[i])
        row = {
            "loss_total": im + cfg.beta_pseudo * ce_value + vis_ce_value + lam * mmd_value,
            "loss_ce": ce_value + vis_ce_value,
            "loss_mmd": mmd_value,
            "loss_im": im,
            "acc_target": None,
        }
        if it % adapt.EVAL_INTERVAL == 0 or it == cfg.iterations - 1:
            probs = ref_mix(weights, {i: ref_forward(models[i], eval_set.features).probs for i in active})
            row["acc_target"] = float(np.mean(probs.argmax(axis=1) == eval_set.labels))
        rows.append(row)
    return models, rows


# ---------------------------------------------------------------------------
# Kernels: a stack against each of its members on the reference.


@pytest.fixture(scope="module")
def members():
    return [init_model(2, 16, 3, depth=2, seed=i, domain_id=f"m{i}") for i in range(3)]


@pytest.mark.parametrize("n", [1, 7, 64, 400])
def test_stacked_forward_and_backward_equal_each_member(members, n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 2))
    net, _ = stack_models(members)
    tape = forward(net, X)
    dprobs = rng.normal(size=tape.probs.shape)
    dfeat = rng.normal(size=tape.features.shape)
    grad = backward(net, tape, dprobs, dfeat)
    dfeat_only = backward(net, tape, dfeat=dfeat)
    for k, model in enumerate(members):
        ref = ref_forward(model, X)
        # features, probs and the activations after the shared input
        for got, want in zip([*tape[:2], *tape.acts[1:]], [*ref[:2], *ref.acts[1:]]):
            assert np.array_equal(got[k], want)
        dlogits = ref_logits_grad(ref.probs, dprobs[k])
        for stacked, single in ((grad, ref_backward(model, ref, dlogits, dfeat[k])),
                                (dfeat_only, ref_backward(model, ref, dfeat=dfeat[k]))):
            for (gw, gb), (rw, rb) in zip(stacked, single, strict=True):
                assert np.array_equal(gw[k], rw) and np.array_equal(gb[k], rb)


def test_stacked_sgd_steps_equal_each_member(members):
    rng = np.random.default_rng(5)
    net, views = stack_models(members)
    singles = [m.clone() for m in members]
    opt = init_optimizer(net, 0.05, 0.9)
    ref_opts = [init_optimizer(m, 0.05, 0.9) for m in singles]
    for _ in range(3):
        grads = [[Layer(rng.normal(size=w.shape), rng.normal(size=b.shape)) for w, b in m.layers]
                 for m in singles]
        sgd_step(net, [Layer(*(np.stack(p) for p in zip(*ls))) for ls in zip(*grads)], opt)
        for m, g, o in zip(singles, grads, ref_opts):
            ref_sgd_step(m, g, o)
    for view, single in zip(views, singles):  # the members moved with their stack
        for a, b in zip(view.layers, single.layers, strict=True):
            assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_members_are_views_of_a_copy(members):
    net, views = stack_models(members)
    assert all(np.shares_memory(v.layers[0].weight, net.layers[0].weight) for v in views)
    assert not any(np.shares_memory(m.layers[0].weight, net.layers[0].weight) for m in members)
    assert [v.meta for v in views] == [m.meta for m in members]


def test_stack_refuses_models_of_two_architectures(members):
    with pytest.raises(ParameterError, match="one architecture"):
        stack_models([members[0], init_model(2, 8, 3, seed=0)])


def test_stack_refuses_no_models():
    with pytest.raises(ParameterError, match="^need at least one model to stack$"):
        stack_models([])


# ---------------------------------------------------------------------------
# Losses: each (value, dprobs) call against the reference value and gradient,
# and backward's softmax chain against the reference chain.


REF_LOSSES = {
    entropy_loss: (ref_entropy_loss, ref_entropy_probs_grad),
    diversity_loss: (ref_diversity_loss, ref_diversity_probs_grad),
    im_loss: (ref_im_loss, ref_im_probs_grad),
    cross_entropy: (ref_cross_entropy, ref_cross_entropy_probs_grad),
}


def assert_losses_equal_reference(probs, labels):
    """Every loss on `probs` (and `labels`), and backward through a tape carrying
    `probs`, equal the reference bit for bit."""
    n, k = probs.shape
    model = init_model(2, 8, k, depth=2, seed=k)
    tape = forward(model, np.random.default_rng(n).normal(size=(n, 2)))._replace(probs=probs)
    for loss, (ref_value, ref_grad) in REF_LOSSES.items():
        args = (probs, labels) if loss is cross_entropy else (probs,)
        value, dprobs = loss(*args)
        assert value == ref_value(*args), loss.__name__
        assert np.array_equal(dprobs, ref_grad(*args)), loss.__name__
        got = backward(model, tape, dprobs)
        want = ref_backward(model, tape, ref_logits_grad(probs, dprobs))
        for (gw, gb), (rw, rb) in zip(got, want, strict=True):
            assert np.array_equal(gw, rw) and np.array_equal(gb, rb), loss.__name__


@pytest.mark.parametrize("n, k", [(1, 2), (7, 3), (64, 2), (400, 4)])
def test_losses_and_chain_equal_reference_on_random_rows(n, k):
    rng = np.random.default_rng(10 * n + k)
    raw = rng.uniform(size=(n, k))
    assert_losses_equal_reference(raw / raw.sum(axis=1, keepdims=True), rng.integers(0, k, size=n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_losses_and_chain_equal_reference_on_drawn_rows(data):
    n, k = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 5))
    raw = data.draw(arrays(np.float64, (n, k), elements=st.floats(0.0, 1.0)))
    assume(np.all(raw.sum(axis=1) > 0))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    assert_losses_equal_reference(raw / raw.sum(axis=1, keepdims=True), labels)


# ---------------------------------------------------------------------------
# Trainers: every row and every parameter after 25 steps.


@pytest.fixture(scope="module")
def domains():
    sources = [gen_two_moons(200, 0.1, r, seed=70 + i, domain_id=f"s{i}")
               for i, r in enumerate((0.0, 15.0, 30.0))]
    models = [train_source(s, AdaptationConfig(iterations=40, seed=i)).model
              for i, s in enumerate(sources)]
    target = gen_two_moons(200, 0.1, 45.0, seed=79, domain_id="t")
    return sources, models, target


CFG = AdaptationConfig(iterations=25, pseudo_refresh=10, seed=3)
CASES = {
    "sfda": ([1.0], (), None),
    "msfda": ([0.5, 0.5, 0.0], (), None),
    "expanded-ce-only": ([0.5, 0.5, 0.0], (0, 1), "ce-only"),
    "expanded-ce+mmd": ([0.5, 0.5, 0.0], (0, 1), "ce+mmd"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_trainer_matches_per_model_reference(domains, case):
    sources, models, target = domains
    weights, visible_ids, mode = CASES[case]
    models = models[: len(weights)]
    visible = [sources[j] for j in visible_ids]
    unlabeled = target.unlabeled()
    if case == "sfda":
        out = train_sfda(models[0], unlabeled, CFG, eval_set=target)
    elif mode is None:
        out = train_msfda(models, weights, unlabeled, CFG, eval_set=target)
    else:
        out = train_expanded_base(models, weights, unlabeled, visible, mode, CFG, eval_set=target)
    ref_models, ref_rows = ref_adapt(models, weights, unlabeled, CFG, target, visible, mode)

    assert len(out.rows) == len(ref_rows) == CFG.iterations
    for row, ref in zip(out.rows, ref_rows):
        got = {k: getattr(row, k) for k in ref}
        assert got == ref, f"step {row.iteration} differs"
    for got, ref in zip(out.models, ref_models):
        for a, b in zip(got.layers, ref.layers, strict=True):
            assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)
