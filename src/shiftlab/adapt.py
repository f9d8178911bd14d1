"""Trainers: supervised source training, UDA, SFDA, and weighted MSFDA.

Source-freedom is enforced by signature: the SFDA/MSFDA trainers take no
source dataset argument at all. Evaluation labels are supplied by the
harness through `eval_set` and are used only for accuracy logging, never
for gradients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import ParameterError
from .nn import (
    SourceModel,
    backward,
    forward,
    init_model,
    init_optimizer,
    sgd_step,
)
from .objectives import (
    cross_entropy,
    cross_entropy_probs_grad,
    ensemble_weights,
    im_loss,
    im_probs_grad,
    mix_probs,
    mmd_rbf,
    mmd_rbf_grad,
    softmax_probs_to_logits_grad,
)
from .records import ExperimentRecord, TrajectoryRow

EVAL_INTERVAL = 10

EXPANDED_MODES = ("ce-only", "ce+mmd")


@dataclass
class AdaptationConfig:
    iterations: int = 300
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    lambda_uda: float = 1.0
    lambda_mea: float = 1.0
    beta_pseudo: float = 0.3
    pseudo_refresh: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0 or self.batch_size < 1 or self.pseudo_refresh < 1:
            raise ParameterError("iterations, batch_size and pseudo_refresh must be positive")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        for name in ("learning_rate", "momentum", "lambda_uda", "lambda_mea", "beta_pseudo"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ParameterError(f"{name} must be finite and non-negative, got {v}")


@dataclass
class TrainerOutput:
    models: list
    weights: np.ndarray
    record: ExperimentRecord

    @property
    def model(self) -> SourceModel:
        return self.models[0]


class _BatchStream:
    """Seeded epoch-wise shuffled mini-batch index stream."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next(self) -> np.ndarray:
        if self._pos + self.batch_size > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return idx


def _stream(n: int, cfg: AdaptationConfig, stream_id: int) -> _BatchStream:
    return _BatchStream(n, cfg.batch_size, np.random.default_rng([cfg.seed, stream_id]))


def _ensemble_accuracy(models, weights, eval_set: Dataset) -> float:
    X = eval_set.features
    probs = {i: forward(m, X).probs for i, m in enumerate(models) if weights[i] != 0.0}
    return float(np.mean(mix_probs(weights, probs).argmax(axis=1) == eval_set.labels))


def _should_eval(step: int, iterations: int) -> bool:
    return step % EVAL_INTERVAL == 0 or step == iterations - 1


def _drive(run_id, scenario, models, weights, cfg, eval_set, step) -> TrainerOutput:
    """Run `cfg.iterations` steps and log one trajectory row per step.

    `step(i, evaluating)` updates the models and returns the row's loss
    fields; `evaluating` marks the steps whose row also gets the ensemble
    accuracy on `eval_set`. The batch tapes are locals of the step, so they
    are freed before that full-dataset pass.
    """
    record = ExperimentRecord(run_id=run_id, scenario=scenario)
    clock = time.perf_counter
    t0 = clock()
    for i in range(cfg.iterations):
        evaluating = _should_eval(i, cfg.iterations)
        row = TrajectoryRow(iteration=i, **step(i, evaluating))
        if eval_set is not None and evaluating:
            row.acc_target = _ensemble_accuracy(models, weights, eval_set)
        row.ms = (clock() - t0) * 1e3
        record.rows.append(row)
    record.summary = {"final_accuracy": record.final_accuracy(), "iterations": cfg.iterations}
    return TrainerOutput(models, weights, record)


def train_source(ds: Dataset, cfg: AdaptationConfig, eval_set: Dataset | None = None) -> TrainerOutput:
    """Supervised cross-entropy training from a fresh seeded model."""
    if ds.labels is None:
        raise ParameterError("train_source requires a labeled dataset")
    model = init_model(ds.d, num_classes=ds.num_classes, seed=cfg.seed, domain_id=ds.domain_id)
    opt = init_optimizer(model, cfg.learning_rate, cfg.momentum)
    stream = _stream(ds.n, cfg, 17)

    def step(it, evaluating):
        idx = stream.next()
        xb, yb = ds.features[idx], ds.labels[idx]
        tape = forward(model, xb)
        ce = cross_entropy(tape.probs, yb)
        dlogits = softmax_probs_to_logits_grad(tape.probs, cross_entropy_probs_grad(tape.probs, yb))
        sgd_step(model, backward(model, tape, dlogits), opt)
        return {"loss_total": ce, "loss_ce": ce}

    run_id = f"source-{ds.domain_id}-s{cfg.seed}"
    model.meta["epochs"] = str(cfg.iterations)
    return _drive(run_id, "source", [model], np.array([1.0]), cfg, eval_set, step)


def train_uda(
    source: Dataset,
    target: Dataset,
    cfg: AdaptationConfig,
    eval_set: Dataset | None = None,
) -> TrainerOutput:
    """Joint source cross-entropy plus MMD feature alignment to the target."""
    if source.labels is None:
        raise ParameterError("train_uda requires a labeled source dataset")
    if source.d != target.d:
        raise ParameterError("source and target dimensions differ")
    model = init_model(source.d, num_classes=source.num_classes, seed=cfg.seed, domain_id=source.domain_id)
    opt = init_optimizer(model, cfg.learning_rate, cfg.momentum)
    src_stream = _stream(source.n, cfg, 17)
    tgt_stream = _stream(target.n, cfg, 29)
    lam = cfg.lambda_uda

    def step(it, evaluating):
        idx = src_stream.next()
        xb, yb = source.features[idx], source.labels[idx]
        tape_s = forward(model, xb)
        ce = cross_entropy(tape_s.probs, yb)
        dlogits = softmax_probs_to_logits_grad(tape_s.probs, cross_entropy_probs_grad(tape_s.probs, yb))
        mmd_value = 0.0
        if lam > 0:
            tape_t = forward(model, target.features[tgt_stream.next()])
            mmd_value, gx, gy = mmd_rbf_grad(tape_s.features, tape_t.features)
            grad = backward(model, tape_s, dlogits, lam * gx)
            grad.add_(backward(model, tape_t, dfeat=lam * gy))
        else:
            grad = backward(model, tape_s, dlogits)
        sgd_step(model, grad, opt)
        if evaluating and lam > 0:
            # diagnostic: full-dataset alignment, not the per-batch estimate
            fs = forward(model, source.features).features
            ft = forward(model, target.features).features
            mmd_value = mmd_rbf(fs, ft)
        return {"loss_total": ce + lam * mmd_value, "loss_ce": ce, "loss_mmd": mmd_value}

    run_id = f"uda-{source.domain_id}->{target.domain_id}-s{cfg.seed}"
    model.meta["epochs"] = str(cfg.iterations)
    return _drive(run_id, "uda", [model], np.array([1.0]), cfg, eval_set, step)


def _cosine_distances(feats: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    fn = feats / (np.linalg.norm(feats, axis=1, keepdims=True) + 1e-12)
    cn = centroids / (np.linalg.norm(centroids, axis=1, keepdims=True) + 1e-12)
    return 1.0 - fn @ cn.T


def _ensemble_pseudo_labels(models, weights, X) -> np.ndarray:
    """Two-round weighted nearest-centroid pseudo labels (SHOT style).

    Round 1 builds per-model class centroids as ensemble-probability-weighted
    feature means and assigns each sample to the class minimizing the
    weight-averaged cosine distance. Round 2 recomputes centroids from the
    hard assignments (empty classes keep their round-1 centroid) and
    reassigns.
    """
    active = [(i, w) for i, w in enumerate(weights) if w != 0.0]
    feats, member_probs = {}, {}
    for i, _ in active:
        tape = forward(models[i], X)
        feats[i], member_probs[i] = tape.features, tape.probs
    del tape  # keep features and probs only, not the full-dataset activations
    probs = mix_probs(weights, member_probs)
    k = probs.shape[1]

    centroids = {}
    for i, _ in active:
        col = probs.sum(axis=0)[:, None] + 1e-8
        centroids[i] = (probs.T @ feats[i]) / col

    def assign() -> np.ndarray:
        dist = np.zeros((X.shape[0], k))
        for i, w in active:
            dist += w * _cosine_distances(feats[i], centroids[i])
        return dist.argmin(axis=1)

    labels = assign()
    for i, _ in active:
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[i][c] = feats[i][mask].mean(axis=0)
    return assign()


def pseudo_labels(model: SourceModel, target: Dataset) -> np.ndarray:
    """Two-round centroid pseudo labels for a single model."""
    return _ensemble_pseudo_labels([model], [1.0], target.features)


def _adapt_loop(
    models,
    weights,
    target: Dataset,
    cfg: AdaptationConfig,
    eval_set: Dataset | None,
    visible_sources: list | None = None,
    mode: str | None = None,
    scenario: str = "sfda",
) -> TrainerOutput:
    weights = ensemble_weights(models, weights)
    active = [i for i, w in enumerate(weights) if w != 0.0]
    models = [m.clone() for m in models]
    opts = [init_optimizer(m, cfg.learning_rate, cfg.momentum) for m in models]
    stream = _stream(target.n, cfg, 17)
    vs_streams = (
        [_stream(vs.n, cfg, 41 + j) for j, vs in enumerate(visible_sources)]
        if visible_sources
        else []
    )
    lam = cfg.lambda_uda
    pl = None

    def step(it, evaluating):
        nonlocal pl
        if cfg.beta_pseudo > 0 and it % cfg.pseudo_refresh == 0:
            pl = _ensemble_pseudo_labels(models, weights, target.features)
        idx = stream.next()
        xb = target.features[idx]

        tapes = {i: forward(models[i], xb) for i in active}
        ens = mix_probs(weights, {i: t.probs for i, t in tapes.items()})

        im = im_loss(ens)
        dprobs = im_probs_grad(ens)
        ce_value = 0.0
        if cfg.beta_pseudo > 0:
            ce_value = cross_entropy(ens, pl[idx])
            dprobs = dprobs + cfg.beta_pseudo * cross_entropy_probs_grad(ens, pl[idx])

        vis_ce_value = 0.0
        mmd_value = 0.0
        vis_grads = []  # (model index, gradient) in the order they are added
        dfeat = dict.fromkeys(tapes)  # summed MMD gradient on each target tape's features
        if visible_sources:
            scale = 1.0 / len(visible_sources)
            for vs, vstream in zip(visible_sources, vs_streams):
                vidx = vstream.next()
                xs, ys = vs.features[vidx], vs.labels[vidx]
                tapes_s = {i: forward(models[i], xs) for i in active}
                ens_s = mix_probs(weights, {i: t.probs for i, t in tapes_s.items()})
                vis_ce_value += scale * cross_entropy(ens_s, ys)
                dprobs_s = scale * cross_entropy_probs_grad(ens_s, ys)
                for i, ts in tapes_s.items():
                    dlog = softmax_probs_to_logits_grad(ts.probs, weights[i] * dprobs_s)
                    if mode == "ce+mmd" and lam > 0:
                        mv, gs, gt = mmd_rbf_grad(ts.features, tapes[i].features)
                        mmd_value += scale * weights[i] * mv
                        c = lam * scale * weights[i]
                        dfeat[i] = c * gt if dfeat[i] is None else dfeat[i] + c * gt
                        vis_grads.append((i, backward(models[i], ts, dlog, c * gs)))
                    else:
                        vis_grads.append((i, backward(models[i], ts, dlog)))

        # one backward per target tape, carrying its IM/CE logits and MMD features
        grads = {
            i: backward(
                models[i], t, softmax_probs_to_logits_grad(t.probs, weights[i] * dprobs), dfeat[i]
            )
            for i, t in tapes.items()
        }
        for i, g in vis_grads:
            grads[i].add_(g)

        for i, g in grads.items():
            g.zero_classifier_()  # classifier stays the source hypothesis
            sgd_step(models[i], g, opts[i])
        return {
            "loss_total": im + cfg.beta_pseudo * ce_value + vis_ce_value + lam * mmd_value,
            "loss_ce": ce_value + vis_ce_value,
            "loss_mmd": mmd_value,
            "loss_im": im,
        }

    run_id = f"{scenario}->{target.domain_id}-s{cfg.seed}"
    return _drive(run_id, scenario, models, weights, cfg, eval_set, step)


def train_sfda(
    source_model: SourceModel,
    target: Dataset,
    cfg: AdaptationConfig,
    eval_set: Dataset | None = None,
) -> TrainerOutput:
    """Single-source source-free adaptation: IM loss plus pseudo-label CE.

    Starts from the source model; the classifier is frozen and only the
    extractor adapts. No source data is reachable from this signature.
    """
    if source_model.input_dim != target.d:
        raise ParameterError("model input dim does not match target dimension")
    return _adapt_loop([source_model], [1.0], target, cfg, eval_set, scenario="sfda")


def train_msfda(
    models: list,
    weights,
    target: Dataset,
    cfg: AdaptationConfig,
    eval_set: Dataset | None = None,
) -> TrainerOutput:
    """Weighted multi-source-free adaptation with fixed ensemble weights."""
    if not models:
        raise ParameterError("need at least one source model")
    return _adapt_loop(models, weights, target, cfg, eval_set, scenario="msfda")


def train_expanded_base(
    models: list,
    weights,
    target: Dataset,
    visible_sources: list,
    mode: str,
    cfg: AdaptationConfig,
    eval_set: Dataset | None = None,
) -> TrainerOutput:
    """MSFDA plus cross-entropy on visible source data (optionally plus MMD)."""
    if not visible_sources:
        raise ParameterError("expanded base requires at least one visible source")
    if mode not in EXPANDED_MODES:
        raise ParameterError(f"mode must be one of {EXPANDED_MODES}, got {mode!r}")
    for vs in visible_sources:
        if vs.labels is None:
            raise ParameterError(f"visible source {vs.domain_id!r} must be labeled")
        if vs.d != target.d:
            raise ParameterError("visible source and target dimensions differ")
    return _adapt_loop(
        models, weights, target, cfg, eval_set, visible_sources, mode, scenario="expanded"
    )
