"""Trainers: supervised source training, UDA, SFDA, and weighted MSFDA.

Source-freedom is enforced by signature: the SFDA/MSFDA trainers take no
source dataset argument at all. Evaluation labels are supplied by the
harness through `eval_set` and are used only for accuracy logging, never
for gradients. A float overflow, invalid value or division by zero raises.
Each trainer step draws its batches, calls one pure objective on them
(`_supervised_objective` or `_adapt_objective`, which return the row's loss
fields and the gradient of its `loss_total`) and takes one `sgd_step`;
tests/test_objective_grad.py checks each objective's gradient against finite
differences. Each trajectory row logs its step's batch losses; UDA's
evaluating rows also log `mmd_full`, the full-dataset MMD diagnostic, which
feeds no gradient.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import mea
from .datagen import Dataset
from .errors import ParameterError, WorkerError
from .nn import (
    SourceModel,
    Tape,
    add_gradient,
    backward,
    forward,
    init_model,
    init_optimizer,
    sgd_step,
    stack_models,
)
from .objectives import (
    _cross_entropy, _diversity, _entropy, ensemble_weights, mix_probs, mmd_full, mmd_rbf_grad
)
from .records import TrajectoryRow

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
        if self.iterations < 1 or self.batch_size < 1 or self.pseudo_refresh < 1:
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
    rows: list  # one TrajectoryRow per step

    @property
    def model(self) -> SourceModel:
        return self.models[0]


def _stream(n: int, cfg: AdaptationConfig, stream_id: int):
    """Seeded mini-batch indices: `min(batch_size, n)`-index slices of one
    permutation per epoch, the short tail of each epoch dropped."""
    rng = np.random.default_rng([cfg.seed, stream_id])
    size = min(cfg.batch_size, n)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - size + 1, size):
            yield order[start : start + size]


def _full_pass(net: SourceModel, X, workspace: dict | None) -> Tape:
    """`forward(net, X)`, written into the tape that a run's `workspace` keeps
    for X's shape once a first pass has made it; fresh without a workspace."""
    if workspace is None:
        return forward(net, X)
    tape = workspace.get(X.shape)
    workspace[X.shape] = tape = forward(net, X) if tape is None else forward(net, X, tape)
    return tape


def _ensemble_accuracy(net: SourceModel, weights, eval_set: Dataset, workspace: dict | None = None) -> float:
    """Accuracy on `eval_set` of the stack `net`, its members mixed by `weights`."""
    probs = mix_probs(weights, _full_pass(net, eval_set.features, workspace).probs)
    return float(np.mean(probs.argmax(axis=1) == eval_set.labels))


def _drive(net, weights, cfg, eval_set, step, workspace: dict) -> list:
    """Run `cfg.iterations` steps and return one trajectory row per step.

    `step(i, evaluating)` updates the stack `net` and returns the row's loss
    fields; `evaluating` marks the steps whose row also gets the accuracy on
    `eval_set` of net's members mixed by `weights`, a pass into the run's
    `workspace`. The batch tapes are locals of the step's objective, so they
    are freed before that full-dataset pass.
    """
    if eval_set is not None and eval_set.labels is None:
        raise ParameterError(f"eval set {eval_set.domain_id!r} has no labels to score accuracy on")
    rows = []
    clock = time.perf_counter
    t0 = clock()
    for i in range(cfg.iterations):
        evaluating = i % EVAL_INTERVAL == 0 or i == cfg.iterations - 1
        row = TrajectoryRow(iteration=i, **step(i, evaluating))
        if eval_set is not None and evaluating:
            row.acc_target = _ensemble_accuracy(net, weights, eval_set, workspace)
        row.ms = (clock() - t0) * 1e3
        rows.append(row)
    return rows


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _child_start(parent):
    """A forked child's start (a `bench` pool worker, UDA's helper): SIGINT is the
    parent's (a worker takes it inside a job, `bench._worker_call`); where Linux's
    prctl is found it dies with the parent, whose pipe or queue it would wait on."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:  # the parent died before the line above
            os._exit(1)


def _full_mmd(model, source, target) -> float:
    """The full-dataset MMD between the source and target features of `model`."""
    return mmd_full(forward(model, source.features).features, forward(model, target.features).features)


def _diagnose(parent, source, target, snapshots, results) -> None:
    """Helper process of trainer `parent` (started by `_child_start`): `_full_mmd`
    of each `(iteration, model)` snapshot until None, then send `{iteration: mmd}`,
    or the first exception, on `results`."""
    _child_start(parent)
    values = {}
    try:
        while (item := snapshots.recv()) is not None:
            values[item[0]] = _full_mmd(item[1], source, target)
    except Exception as exc:  # re-raised by the trainer
        values = exc
    results.send(values)


@contextmanager
def _diagnostics(source, target, values):
    """Yield `diagnose(iteration, model)`, which sets `values[iteration]` to
    `_full_mmd` of the snapshot by the end of the block: inline on one usable
    CPU, else in one forked helper process (`_diagnose`) while training goes on.

    A snapshot is pickled when it is sent, and a full pipe blocks the trainer
    until the helper takes one. The helper's error is re-raised here; a helper
    that dies raises `WorkerError`. On any error the helper is killed, and it
    is joined before this returns or raises.
    """
    if _usable_cpus() < 2:
        def diagnose(it, model):
            values[it] = _full_mmd(model, source, target)

        yield diagnose
        return
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    snapshots, to_helper = ctx.Pipe(duplex=False)
    from_helper, results = ctx.Pipe(duplex=False)
    helper = ctx.Process(target=_diagnose, args=(os.getpid(), source, target, snapshots, results))
    helper.start()
    snapshots.close()
    results.close()

    def receive():
        try:
            out = from_helper.recv()
        except EOFError:
            raise WorkerError("the MMD diagnostic's helper process ended abruptly") from None
        if isinstance(out, BaseException):
            raise out
        return out

    def send(item):
        try:
            to_helper.send(item)
        except BrokenPipeError:  # the helper has stopped reading
            receive()  # raises its error, or WorkerError

    try:
        yield lambda it, model: send((it, model))
        send(None)
        values.update(receive())
    except BaseException:
        helper.kill()
        raise
    finally:
        to_helper.close()
        from_helper.close()
        helper.join()


def _supervised_objective(model, xs, ys, xt, lam) -> tuple[dict, list]:
    """One supervised step's loss fields and gradient, pure: the cross-entropy of
    `model` on the source batch `(xs, ys)`, plus `lam` times the batch MMD
    between the source and target features when there is a target batch `xt`.

    `model` is left untouched, and the MMD's median-heuristic bandwidths are
    held constant in the gradient (`mmd_rbf_grad`).
    """
    tape_s = forward(model, xs)
    ce, dce = _cross_entropy(tape_s.probs, ys)
    if xt is None:
        return {"loss_total": ce, "loss_ce": ce}, backward(model, tape_s, dce)
    tape_t = forward(model, xt)
    mmd_value, gx, gy = mmd_rbf_grad(tape_s.features, tape_t.features)
    grad = backward(model, tape_s, dce, lam * gx)
    add_gradient(grad, backward(model, tape_t, dfeat=lam * gy))
    return {"loss_total": ce + lam * mmd_value, "loss_ce": ce, "loss_mmd": mmd_value}, grad


@np.errstate(over="raise", invalid="raise", divide="raise")  # as in cli.main
def _train_supervised(source, target, cfg, eval_set) -> TrainerOutput:
    """Source cross-entropy from a fresh seeded model, plus `lambda_uda` times
    the MMD between source and target batch features when there is a target.

    Without a target, or at `lambda_uda == 0`, every step is the same
    supervised step, so UDA at lambda 0 is source training bit for bit.
    With one, every row logs the batch MMD in `loss_mmd`, and each evaluating
    row also logs in `mmd_full` the full-dataset MMD of the model as that step
    left it (`_diagnostics`), a diagnostic that feeds no gradient.
    """
    if source.labels is None:
        raise ParameterError(f"source dataset {source.domain_id!r} must be labeled")
    model = init_model(source.d, num_classes=source.num_classes, seed=cfg.seed, domain_id=source.domain_id)
    net, (model,) = stack_models([model])  # the model is the one member of net, which _drive evaluates
    opt = init_optimizer(model, cfg.learning_rate, cfg.momentum)
    src_stream = _stream(source.n, cfg, 17)
    lam = 0.0 if target is None else cfg.lambda_uda
    tgt_stream = _stream(target.n, cfg, 29) if lam > 0 else None
    values = {}  # iteration -> full-dataset MMD

    def step(it, evaluating):
        idx = next(src_stream)
        xt = None if tgt_stream is None else target.features[next(tgt_stream)]
        fields, grad = _supervised_objective(model, source.features[idx], source.labels[idx], xt, lam)
        sgd_step(model, grad, opt)
        if evaluating and xt is not None:
            diagnose(it, model)
        return fields

    model.meta["epochs"] = str(cfg.iterations)
    weights = np.array([1.0])
    with _diagnostics(source, target, values) if lam > 0 else nullcontext() as diagnose:
        rows = _drive(net, weights, cfg, eval_set, step, {})
    for it, value in values.items():
        rows[it].mmd_full = value  # row i logs step i
    return TrainerOutput([model], weights, rows)


def train_source(ds: Dataset, cfg: AdaptationConfig, eval_set: Dataset | None = None) -> TrainerOutput:
    """Supervised cross-entropy training from a fresh seeded model: UDA without a target."""
    return _train_supervised(ds, None, cfg, eval_set)


def train_uda(
    source: Dataset,
    target: Dataset,
    cfg: AdaptationConfig,
    eval_set: Dataset | None = None,
) -> TrainerOutput:
    """Joint source cross-entropy plus MMD feature alignment to the target."""
    if source.d != target.d:
        raise ParameterError("source and target dimensions differ")
    return _train_supervised(source, target, cfg, eval_set)


def _cosine_distances(feats: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    fn = feats / (np.linalg.norm(feats, axis=-1, keepdims=True) + 1e-12)
    cn = centroids / (np.linalg.norm(centroids, axis=-1, keepdims=True) + 1e-12)
    return 1.0 - fn @ cn.swapaxes(-1, -2)


def _ensemble_pseudo_labels(net: SourceModel, weights, X, workspace: dict | None = None) -> np.ndarray:
    """Two-round weighted nearest-centroid pseudo labels (SHOT style).

    `net` stacks the members, `weights` holds their ensemble weights. Round 1
    builds per-member class centroids as ensemble-probability-weighted
    feature means and assigns each sample to the class minimizing the
    weight-averaged cosine distance. Round 2 recomputes centroids from the
    hard assignments (empty classes keep their round-1 centroid) and
    reassigns. The forward pass goes into `workspace` (see `_full_pass`).
    """
    tape = _full_pass(net, X, workspace)
    feats, probs = tape.features, mix_probs(weights, tape.probs)
    centroids = (probs.T @ feats) / (probs.sum(axis=0)[:, None] + 1e-8)

    def assign() -> np.ndarray:
        return mix_probs(weights, _cosine_distances(feats, centroids)).argmin(axis=1)

    labels = assign()
    for c in range(probs.shape[1]):
        mask = labels == c
        if mask.any():
            centroids[:, c] = feats[:, mask].mean(axis=1)
    return assign()


def _adapt_objective(net, wa, cfg, xb, pseudo, visible, mode) -> tuple[dict, list]:
    """One adaptation step's loss fields and gradient, pure, for the stack `net`
    whose members are mixed by the weights `wa`.

    On the target batch `xb`: the IM loss of the mixture, plus `cfg.beta_pseudo`
    times its cross-entropy against `pseudo`, the batch's pseudo-labels (None at
    `beta_pseudo == 0`). For each `(features, labels)` batch in `visible`, a
    visible source's: the mixture's cross-entropy and, in mode "ce+mmd",
    `cfg.lambda_uda` times the member-weighted MMD between its features and the
    target's, each term scaled by 1 / len(visible). The classifier, the last
    layer, gets no gradient (None) and stays the source hypothesis. `net` is
    left untouched, and the MMD's bandwidths are held constant in the gradient.
    """
    per_member = wa[:, None, None]  # each member's weight, broadcast over its batch
    lam = cfg.lambda_uda
    tape = forward(net, xb)
    ens = mix_probs(wa, tape.probs)

    (ent, d_ent), (div, d_div) = _entropy(ens), _diversity(ens)
    im, dprobs = ent + div, d_ent + d_div
    ce_value = 0.0
    if cfg.beta_pseudo > 0:
        ce_value, dce = _cross_entropy(ens, pseudo)
        dprobs = dprobs + cfg.beta_pseudo * dce

    vis_ce_value = 0.0
    mmd_value = 0.0
    vis_grads = []  # in the order they are added
    dfeat = None  # summed MMD gradient on the target tape's features
    if visible:
        scale = 1.0 / len(visible)
        for xs, ys in visible:
            tape_s = forward(net, xs)
            ens_s = mix_probs(wa, tape_s.probs)
            ce_s, dce_s = _cross_entropy(ens_s, ys)
            vis_ce_value += scale * ce_s
            gs = None
            if mode == "ce+mmd" and lam > 0:
                gs, gt = np.empty_like(tape_s.features), np.empty_like(tape.features)
                for k, c in enumerate(lam * scale * wa):
                    mv, gx, gy = mmd_rbf_grad(tape_s.features[k], tape.features[k])
                    mmd_value += scale * wa[k] * mv
                    gs[k], gt[k] = c * gx, c * gy
                dfeat = gt if dfeat is None else dfeat + gt
            vis_grads.append(backward(net, tape_s, per_member * (scale * dce_s), gs, classifier=False))

    # one backward through the target tape, carrying its IM/CE probs and MMD features
    grad = backward(net, tape, per_member * dprobs, dfeat, classifier=False)
    for g in vis_grads:
        add_gradient(grad, g)
    return {
        "loss_total": im + cfg.beta_pseudo * ce_value + vis_ce_value + lam * mmd_value,
        "loss_ce": ce_value + vis_ce_value,
        "loss_mmd": mmd_value,
        "loss_im": im,
    }, grad


@np.errstate(over="raise", invalid="raise", divide="raise")
def _adapt_loop(
    models,
    weights,
    target: Dataset,
    cfg: AdaptationConfig,
    eval_set: Dataset | None,
    visible_sources: list | None = None,
    mode: str | None = None,
) -> TrainerOutput:
    """Adapt the models with a non-zero weight as one stack, `net`, one forward and
    backward per batch; the zero-weight models stay out of it, untouched. This is
    the one place that resolves `weights`, in the forms `train_msfda` takes."""
    if not models:
        raise ParameterError("need at least one source model")
    if weights is None:
        weights = np.full(len(models), 1.0 / len(models))
    elif isinstance(weights, dict):
        weights = mea.estimate(models, weights, target, cfg.lambda_mea)[0].w_final
    weights = ensemble_weights(models, weights)
    active = weights != 0.0
    net, members = stack_models([m for m, a in zip(models, active) if a])
    members, wa = iter(members), weights[active]  # wa: the weights of net's members
    models = [next(members) if a else m.clone() for m, a in zip(models, active)]
    opt = init_optimizer(net, cfg.learning_rate, cfg.momentum)
    stream = _stream(target.n, cfg, 17)
    visible_sources = visible_sources or []
    vs_streams = [_stream(vs.n, cfg, 41 + j) for j, vs in enumerate(visible_sources)]
    pl = None
    workspace = {}  # the full-dataset passes' tapes, freed with this run

    def step(it, evaluating):
        nonlocal pl
        if cfg.beta_pseudo > 0 and it % cfg.pseudo_refresh == 0:
            pl = _ensemble_pseudo_labels(net, wa, target.features, workspace)
        idx = next(stream)
        vidx = [next(s) for s in vs_streams]
        visible = [(vs.features[v], vs.labels[v]) for vs, v in zip(visible_sources, vidx)]
        pseudo = None if pl is None else pl[idx]
        fields, grad = _adapt_objective(net, wa, cfg, target.features[idx], pseudo, visible, mode)
        sgd_step(net, grad, opt)
        return fields

    return TrainerOutput(models, weights, _drive(net, wa, cfg, eval_set, step, workspace))


def train_sfda(
    source_model: SourceModel,
    target: Dataset,
    cfg: AdaptationConfig,
    eval_set: Dataset | None = None,
) -> TrainerOutput:
    """Single-source source-free adaptation: IM loss plus pseudo-label CE.

    Starts from the source model; its last layer, the classifier, is frozen
    and only the tanh layers adapt. No source data is reachable from this
    signature.
    """
    if source_model.input_dim != target.d:
        raise ParameterError("model input dim does not match target dimension")
    return _adapt_loop([source_model], None, target, cfg, eval_set)


def train_msfda(
    models: list,
    weights,
    target: Dataset,
    cfg: AdaptationConfig,
    eval_set: Dataset | None = None,
) -> TrainerOutput:
    """Weighted multi-source-free adaptation with fixed ensemble weights: one per
    model, None for uniform, or a dict of shared labeled datasets that MEA scores
    the models on with `cfg.lambda_mea` (an empty dict is its confidence fallback)."""
    return _adapt_loop(models, weights, target, cfg, eval_set)


def train_expanded_base(
    models: list,
    weights,
    target: Dataset,
    visible_sources: list,
    mode: str,
    cfg: AdaptationConfig,
    eval_set: Dataset | None = None,
) -> TrainerOutput:
    """MSFDA plus cross-entropy on visible source data (optionally plus MMD);
    `weights` takes the forms `train_msfda` does."""
    if not visible_sources:
        raise ParameterError("expanded base requires at least one visible source")
    if mode not in EXPANDED_MODES:
        raise ParameterError(f"mode must be one of {EXPANDED_MODES}, got {mode!r}")
    for vs in visible_sources:
        if vs.labels is None:
            raise ParameterError(f"visible source {vs.domain_id!r} must be labeled")
        if vs.d != target.d:
            raise ParameterError("visible source and target dimensions differ")
        if any(m.num_classes != vs.num_classes for m in models):
            raise ParameterError(f"visible source {vs.domain_id!r} has {vs.num_classes} classes, "
                                 f"the models {models[0].num_classes}")
    return _adapt_loop(models, weights, target, cfg, eval_set, visible_sources, mode)
