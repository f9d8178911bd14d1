"""Small MLP source models: forward/backward passes, SGD, and serialization.

A source model is a stack of tanh affine layers (the feature extractor)
followed by one linear classifier layer. Everything is plain numpy; gradients
are exact analytic backprop.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, NumericError, ParameterError

MODEL_MAGIC = "#shiftlab-model v1"
_FLOAT_FMT = ".17g"

DEFAULT_HIDDEN = 64
DEFAULT_DEPTH = 2


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str  # "tanh" in the extractor, "linear" in the classifier


@dataclass
class SourceModel:
    extractor: list[Layer]
    classifier: Layer
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        dims = [layer.weight.shape for layer in self.extractor]
        for (o1, _), (_, i2) in zip(dims, dims[1:]):
            if o1 != i2:
                raise ParameterError("adjacent extractor layer dimensions do not compose")
        if self.extractor and self.classifier.weight.shape[1] != dims[-1][0]:
            raise ParameterError("classifier input dim must equal extractor output dim")
        # forward() applies exactly these activations, whatever a layer says
        if any(layer.activation != "tanh" for layer in self.extractor):
            raise ParameterError("extractor layers must use tanh activation")
        if self.classifier.activation != "linear":
            raise ParameterError("classifier layer must use linear activation")
        for layer in [*self.extractor, self.classifier]:
            if not (np.all(np.isfinite(layer.weight)) and np.all(np.isfinite(layer.bias))):
                raise ParameterError("model parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.extractor[0].weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.classifier.weight.shape[0]

    def clone(self) -> "SourceModel":
        return copy.deepcopy(self)


@dataclass
class Gradient:
    """Parameter gradients, shape-congruent with a SourceModel."""

    extractor: list[tuple[np.ndarray, np.ndarray]]
    classifier: tuple[np.ndarray, np.ndarray]

    def add_(self, other: "Gradient") -> "Gradient":
        for (w, b), (ow, ob) in zip(self.extractor, other.extractor):
            w += ow
            b += ob
        self.classifier[0][...] += other.classifier[0]
        self.classifier[1][...] += other.classifier[1]
        return self

    def zero_classifier_(self) -> "Gradient":
        self.classifier[0][...] = 0.0
        self.classifier[1][...] = 0.0
        return self


def zeros_gradient(model: SourceModel) -> Gradient:
    return Gradient(
        [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in model.extractor],
        (np.zeros_like(model.classifier.weight), np.zeros_like(model.classifier.bias)),
    )


@dataclass
class OptimizerState:
    learning_rate: float
    momentum: float
    velocity: Gradient


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

    def affine(out_dim: int, in_dim: int, activation: str) -> Layer:
        bound = 1.0 / np.sqrt(in_dim)
        w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        return Layer(w, np.zeros(out_dim), activation)

    extractor = [affine(h, d, "tanh")]
    for _ in range(depth - 1):
        extractor.append(affine(h, h, "tanh"))
    classifier = affine(num_classes, h, "linear")
    meta = {
        "domain_id": domain_id,
        "seed": str(seed),
        "epochs": "0",
        "architecture": f"mlp-d{d}-h{h}-K{num_classes}-depth{depth}",
    }
    return SourceModel(extractor, classifier, meta)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class Tape(NamedTuple):
    """One forward pass: the outputs plus what `backward` needs to reuse it."""

    features: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    acts: list  # [X, a1, ..., features], one entry per extractor layer input/output


def forward(model: SourceModel, X: np.ndarray) -> Tape:
    """Runs a batch through the model; `tape[0:3]` is (features, logits, probs)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ParameterError(
            f"batch has {X.shape[-1] if X.ndim == 2 else '?'} columns, "
            f"model expects {model.input_dim}"
        )
    acts = [X]
    for layer in model.extractor:
        acts.append(np.tanh(acts[-1] @ layer.weight.T + layer.bias))
    features = acts[-1]
    logits = features @ model.classifier.weight.T + model.classifier.bias
    return Tape(features, logits, softmax(logits), acts)


def backward(
    model: SourceModel,
    tape: Tape,
    dlogits: np.ndarray | None = None,
    dfeat: np.ndarray | None = None,
) -> Gradient:
    """Exact analytic gradients for upstream gradients on logits and/or features.

    `tape` is `forward(model, X)` for the same parameters. Any reduction
    (e.g. the 1/batch of a mean loss) must already be folded into the
    upstream gradients.
    """
    acts, features = tape.acts, tape.features

    if dlogits is not None:
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.shape != (features.shape[0], model.num_classes):
            raise ParameterError("dlogits shape mismatch")
        g_wc = dlogits.T @ features
        g_bc = dlogits.sum(axis=0)
        g = dlogits @ model.classifier.weight
    else:
        g_wc = np.zeros_like(model.classifier.weight)
        g_bc = np.zeros_like(model.classifier.bias)
        g = np.zeros_like(features)

    if dfeat is not None:
        dfeat = np.asarray(dfeat, dtype=np.float64)
        if dfeat.shape != features.shape:
            raise ParameterError("dfeat shape mismatch")
        g = g + dfeat

    ext_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.extractor)
    for i in range(len(model.extractor) - 1, -1, -1):
        a_out, a_in = acts[i + 1], acts[i]
        dz = g * (1.0 - a_out * a_out)  # tanh'
        ext_grads[i] = (dz.T @ a_in, dz.sum(axis=0))
        g = dz @ model.extractor[i].weight
    return Gradient(ext_grads, (g_wc, g_bc))


def sgd_step(model: SourceModel, grad: Gradient, state: OptimizerState) -> None:
    """Momentum SGD update, in place on `model` and `state`.

    Raises NumericError, touching nothing, if any gradient entry is non-finite.
    """
    grads = [*grad.extractor, grad.classifier]
    if not all(np.isfinite(g).all() for pair in grads for g in pair):
        raise NumericError("non-finite gradient entry; aborting step")
    layers = [*model.extractor, model.classifier]
    velocities = [*state.velocity.extractor, state.velocity.classifier]
    for layer, (gw, gb), (vw, vb) in zip(layers, grads, velocities):
        vw *= state.momentum
        vw += gw
        vb *= state.momentum
        vb += gb
        layer.weight -= state.learning_rate * vw
        layer.bias -= state.learning_rate * vb


def predict(model: SourceModel, X: np.ndarray) -> np.ndarray:
    return forward(model, X).probs.argmax(axis=1)


def accuracy(model: SourceModel, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(predict(model, X) == y))


def save_model(model: SourceModel, path) -> None:
    lines = [MODEL_MAGIC]
    lines.append(" ".join(f"{k}={v}" for k, v in sorted(model.meta.items())))
    for layer in [*model.extractor, model.classifier]:
        rows, cols = layer.weight.shape
        lines.append(f"layer {rows} {cols} {layer.activation}")
        lines.extend(format(v, _FLOAT_FMT) for v in layer.weight.ravel())
        lines.extend(format(v, _FLOAT_FMT) for v in layer.bias)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_model(path) -> SourceModel:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a shiftlab model file (version mismatch?)")
    if len(lines) < 2:
        raise FormatError(f"{path}: missing metadata line")
    meta = dict(part.split("=", 1) for part in lines[1].split() if "=" in part)
    layers: list[Layer] = []
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
        layers.append(Layer(flat[: rows * cols].reshape(rows, cols), flat[rows * cols :], activation))
        i += 1 + need
    if len(layers) < 2:
        raise FormatError(f"{path}: model needs at least one extractor layer and a classifier")
    try:
        return SourceModel(layers[:-1], layers[-1], meta)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc
