"""Small MLP source models: forward/backward passes, SGD, and serialization.

A source model is one list of affine layers: tanh layers (the feature
extractor) followed by one linear classifier layer, the last. Everything is
plain numpy; gradients are exact analytic backprop. The parameters may carry
a leading member axis: `forward`, `backward` and `sgd_step` then run M
same-shaped models at once, and each member computes bit for bit what it
computes on its own.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .datagen import check_domain_id, parse_fields, read_ascii
from .errors import FormatError, NumericError, ParameterError

MODEL_MAGIC = "#shiftlab-model v1"
_FLOAT_FMT = ".17g"

DEFAULT_HIDDEN = 64
DEFAULT_DEPTH = 2


class Layer(NamedTuple):
    weight: np.ndarray  # (out, in), or (M, out, in) in a stack of M members
    bias: np.ndarray  # (out,), or (M, out)


@dataclass
class SourceModel:
    layers: list[Layer]  # tanh layers, then the linear classifier as layers[-1]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_domain_id(self.meta.get("domain_id", ""))
        if len(self.layers) < 2:
            raise ParameterError("model needs at least one tanh layer and a classifier")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weight.shape[-2] != b.weight.shape[-1]:
                raise ParameterError("adjacent layer dimensions do not compose")
        for layer in self.layers:
            if not (np.all(np.isfinite(layer.weight)) and np.all(np.isfinite(layer.bias))):
                raise ParameterError("model parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[-1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].weight.shape[-2]

    def clone(self) -> "SourceModel":
        return copy.deepcopy(self)


def zeros_gradient(model: SourceModel) -> list[Layer]:
    """A zero gradient. A gradient, like the optimizer's velocity, is a list
    of Layer pairs shaped like `model.layers`."""
    return [Layer(np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers]


def add_gradient(grad: list[Layer], other: list[Layer]) -> list[Layer]:
    """Adds `other` into `grad`, in place, and returns `grad`. A layer with no
    gradient (None) in `grad` has none in `other` either."""
    for mine, theirs in zip(grad, other):
        for a, b in zip(mine or (), theirs or ()):
            a += b
    return grad


@dataclass
class OptimizerState:
    learning_rate: float
    momentum: float
    velocity: list[Layer]


def init_optimizer(model: SourceModel, learning_rate: float, momentum: float) -> OptimizerState:
    if not (0.0 <= momentum < 1.0):
        raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
    return OptimizerState(learning_rate, momentum, zeros_gradient(model))


def init_model(
    d: int,
    h: int = DEFAULT_HIDDEN,
    num_classes: int = 2,
    depth: int = DEFAULT_DEPTH,
    seed: int = 0,
    domain_id: str = "",
) -> SourceModel:
    """Fresh model with fan-in-scaled uniform weights and zero biases."""
    if d < 1 or h < 1 or num_classes < 1 or depth < 1:
        raise ParameterError("all model dimensions must be positive")
    rng = np.random.default_rng(seed)
    dims = [d] + [h] * depth + [num_classes]
    layers = []
    for in_dim, out_dim in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(in_dim)
        layers.append(Layer(rng.uniform(-bound, bound, size=(out_dim, in_dim)), np.zeros(out_dim)))
    meta = {
        "domain_id": domain_id,
        "seed": str(seed),
        "epochs": "0",
        "architecture": f"mlp-d{d}-h{h}-K{num_classes}-depth{depth}",
    }
    return SourceModel(layers, meta)


def stack_models(models: list[SourceModel]) -> tuple[SourceModel, list[SourceModel]]:
    """A copy of same-shaped `models` as one stack, and its members: models
    whose arrays are views of the stack, so stepping the stack steps them."""
    if not models:
        raise ParameterError("need at least one model to stack")
    if len({tuple((w.shape, b.shape) for w, b in m.layers) for m in models}) != 1:
        raise ParameterError("stacked models must share one architecture")
    stacked = [
        Layer(np.stack([l.weight for l in ls]), np.stack([l.bias for l in ls]))
        for ls in zip(*(m.layers for m in models))
    ]
    members = [
        SourceModel([Layer(w[k], b[k]) for w, b in stacked], dict(m.meta))
        for k, m in enumerate(models)
    ]
    return SourceModel(stacked), members


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization, in place on `logits`."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


class Tape(NamedTuple):
    """One forward pass: the outputs plus what `backward` needs to reuse it."""

    features: np.ndarray
    probs: np.ndarray
    acts: list  # [X, a1, ..., features], one entry per tanh layer input/output


def forward(model: SourceModel, X: np.ndarray, out: Tape | None = None) -> Tape:
    """Runs a batch through the model; `tape[0:2]` is (features, probs).

    With `out`, an earlier tape of this model on a batch of X's shape, the
    pass writes into out's arrays by the same operations, so it allocates no
    activations and returns the values a fresh pass would, bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ParameterError(
            f"batch has {X.shape[-1] if X.ndim == 2 else '?'} columns, "
            f"model expects {model.input_dim}"
        )
    *hidden, head = model.layers
    acts = [X]
    for i, (w, b) in enumerate(hidden, 1):
        z = np.matmul(acts[-1], w.swapaxes(-1, -2), out=None if out is None else out.acts[i])
        z += b[..., None, :]
        acts.append(np.tanh(z, out=z))
    features = acts[-1]
    logits = np.matmul(features, head.weight.swapaxes(-1, -2), out=None if out is None else out.probs)
    logits += head.bias[..., None, :]
    return Tape(features, softmax(logits), acts)


def backward(
    model: SourceModel,
    tape: Tape,
    dprobs: np.ndarray | None = None,
    dfeat: np.ndarray | None = None,
    classifier: bool = True,
) -> list[Layer]:
    """Exact analytic gradients for upstream gradients on the probabilities
    and/or the features that `forward` returned, one pair per model layer;
    with `classifier` False, the classifier's entry is None, not computed.

    `tape` is `forward(model, X)` for the same parameters. Any reduction
    (e.g. the 1/batch of a mean loss) must already be folded into the
    upstream gradients.
    """
    acts, features, probs = tape.acts, tape.features, tape.probs
    head = model.layers[-1]
    grads: list[Layer] = [None] * len(model.layers)

    if dprobs is not None:
        dprobs = np.asarray(dprobs, dtype=np.float64)
        if dprobs.shape != probs.shape:
            raise ParameterError("dprobs shape mismatch")
        # through the softmax: d logits = p * (d probs - <d probs, p>), row by row
        dlogits = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        if classifier:
            grads[-1] = Layer(dlogits.swapaxes(-1, -2) @ features, dlogits.sum(axis=-2))
        g = dlogits @ head.weight
    else:
        if classifier:
            grads[-1] = Layer(np.zeros_like(head.weight), np.zeros_like(head.bias))
        g = np.zeros_like(features)

    if dfeat is not None:
        dfeat = np.asarray(dfeat, dtype=np.float64)
        if dfeat.shape != features.shape:
            raise ParameterError("dfeat shape mismatch")
        g = g + dfeat

    for i in range(len(model.layers) - 2, -1, -1):
        a_out, a_in = acts[i + 1], acts[i]
        dz = np.multiply(a_out, a_out)  # tanh' = 1 - a^2, built in this one buffer
        np.subtract(1.0, dz, out=dz)
        dz *= g
        grads[i] = Layer(dz.swapaxes(-1, -2) @ a_in, dz.sum(axis=-2))
        if i:  # the gradient on the input batch itself is never used
            g = dz @ model.layers[i].weight
    return grads


def sgd_step(model: SourceModel, grad: list[Layer], state: OptimizerState) -> None:
    """Momentum SGD update, in place on the arrays of `model` and `state`. A
    layer whose gradient is None keeps its parameters and velocity.

    Raises NumericError, touching nothing, if any gradient entry is non-finite.
    """
    if not all(np.isfinite(g).all() for pair in grad if pair is not None for g in pair):
        raise NumericError("non-finite gradient entry; aborting step")
    for (w, b), pair, (vw, vb) in zip(model.layers, grad, state.velocity):
        if pair is None:
            continue
        gw, gb = pair
        vw *= state.momentum
        vw += gw
        vb *= state.momentum
        vb += gb
        w -= state.learning_rate * vw
        b -= state.learning_rate * vb


def _activations(n_layers: int) -> list[str]:
    """The activation word of each layer in a model file, fixed by its position."""
    return ["tanh"] * (n_layers - 1) + ["linear"]


def save_model(model: SourceModel, path) -> None:
    lines = [MODEL_MAGIC]
    lines.append(" ".join(f"{k}={v}" for k, v in sorted(model.meta.items())))
    for (w, b), activation in zip(model.layers, _activations(len(model.layers))):
        rows, cols = w.shape
        lines.append(f"layer {rows} {cols} {activation}")
        lines.extend(format(v, _FLOAT_FMT) for v in w.ravel())
        lines.extend(format(v, _FLOAT_FMT) for v in b)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_model(path) -> SourceModel:
    lines = read_ascii(path).splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a shiftlab model file (version mismatch?)")
    if len(lines) < 2:
        raise FormatError(f"{path}: missing metadata line")
    meta = parse_fields(lines[1], f"{path}: metadata line")
    layers: list[Layer] = []
    words = []  # each layer's activation word
    i = 2
    while i < len(lines):
        if not lines[i].startswith("layer "):
            raise FormatError(f"{path}: expected layer block at line {i + 1}")
        try:
            _, rows, cols, activation = lines[i].split()
            rows, cols = int(rows), int(cols)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed layer header at line {i + 1}") from exc
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: layer dimensions must be >= 1 at line {i + 1}")
        need = rows * cols + rows
        vals = lines[i + 1 : i + 1 + need]
        if len(vals) != need:
            raise FormatError(f"{path}: truncated layer block at line {i + 1}")
        try:
            flat = np.array([float(v) for v in vals])
        except ValueError as exc:
            raise FormatError(f"{path}: layer block at line {i + 1}: {exc}") from None
        layers.append(Layer(flat[: rows * cols].reshape(rows, cols), flat[rows * cols :]))
        words.append(activation)
        i += 1 + need
    try:
        model = SourceModel(layers, meta)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    # forward() applies exactly these activations, whatever a file says
    if words != (want := _activations(len(layers))):
        raise FormatError(f"{path}: layer activations must be {want}, got {words}")
    return model
