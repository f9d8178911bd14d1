"""Proxy-based source-model weight estimation.

Three steps: proxy-accuracy weights from the source domains whose labeled
data is shared (excluding each model's own training data), target-confidence
weights from average max-softmax scores, and their lambda-combination
normalized back onto the simplex. When some model has no proxy domain the
estimate falls back to confidence weights alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .errors import ExclusionError, FormatError, ParameterError
from .nn import SourceModel, forward, stack_models

PROVENANCE_MAGIC = "#shiftlab-provenance v1"
WEIGHTS_MAGIC = "#shiftlab-weights v1"
WEIGHTS_KEYS = ("models", "lambda", "fallback", "w_s", "w_t", "w_raw", "w_final")


@dataclass
class WeightEstimate:
    w_s: np.ndarray | None
    w_t: np.ndarray
    lam: float
    w_raw: np.ndarray
    w_final: np.ndarray
    fallback: bool = False

    def __post_init__(self) -> None:
        self.w_t = np.asarray(self.w_t, dtype=np.float64)
        self.w_raw = np.asarray(self.w_raw, dtype=np.float64)
        self.w_final = np.asarray(self.w_final, dtype=np.float64)
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ParameterError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.fallback != (self.w_s is None):
            raise ParameterError("fallback must be set exactly when w_s is absent")
        if self.w_s is not None:
            self.w_s = np.asarray(self.w_s, dtype=np.float64)
            _check_simplex(self.w_s, "w_s")
        _check_simplex(self.w_t, "w_t")
        others = (self.w_s, self.w_raw, self.w_final)
        if any(v is not None and v.shape != self.w_t.shape for v in others):
            raise ParameterError("w_s, w_t, w_raw and w_final must have the same length")
        _check_simplex(self.w_final, "w_final")
        expected = 1.0 if self.fallback else 1.0 + self.lam
        if not abs(self.w_raw.sum() - expected) <= 1e-9 * expected:
            raise ParameterError(f"w_raw must sum to {expected}, got {self.w_raw.sum()}")
        if int(np.argmax(self.w_final)) != int(np.argmax(self.w_raw)):
            raise ParameterError("normalization must preserve the argmax of w_raw")


def _check_simplex(v: np.ndarray, name: str) -> None:
    if not (np.all(v >= 0) and abs(v.sum() - 1.0) <= 1e-9):  # NaN fails too
        raise ParameterError(f"{name} must be non-negative and sum to 1, got {v.tolist()}")


def proxy_accuracy(
    model: SourceModel, proxies: list[Dataset], provenance: list | None = None
) -> float:
    """Macro-averaged accuracy of `model` over the proxy domains.

    The model's own training domain must not appear among the proxies.
    """
    if not proxies:
        raise ParameterError("proxy list is empty")
    own = model.meta.get("domain_id", "")
    accs = []
    for ds in proxies:
        if ds.labels is None:
            raise ParameterError(f"proxy domain {ds.domain_id!r} is unlabeled")
        if own and ds.domain_id == own:
            raise ExclusionError(
                f"model trained on {own!r} cannot be scored on its own training domain"
            )
        acc = float(np.mean(forward(model, ds.features).probs.argmax(axis=1) == ds.labels))
        accs.append(acc)
        if provenance is not None:
            provenance.append(
                {"kind": "proxy", "model": own, "proxy": ds.domain_id, "accuracy": acc}
            )
    return float(np.mean(accs))


def proxy_weights(
    models: list[SourceModel], datasets: dict, provenance: list | None = None
) -> np.ndarray | None:
    """Eq.-style proxy-accuracy weights, or None when any model lacks proxies.

    `datasets` maps each domain whose labeled data is shared to its Dataset,
    in scoring order; a domain that shares only its model is absent.
    """
    per_model_proxies = []
    for model in models:
        own = model.meta.get("domain_id", "")
        proxies = [ds for d, ds in datasets.items() if d != own]
        if not proxies:
            return None  # single-source fallback
        per_model_proxies.append(proxies)
    acc = np.array(
        [proxy_accuracy(m, p, provenance) for m, p in zip(models, per_model_proxies)]
    )
    total = acc.sum()
    if total <= 0:
        return np.full(len(models), 1.0 / len(models))
    return acc / total


def confidence_weights(
    models: list[SourceModel], target: Dataset, provenance: list | None = None
) -> np.ndarray:
    """Average max-softmax confidence per model on the target, normalized."""
    if target.n < 1:
        raise ParameterError("target dataset is empty")
    conf = forward(stack_models(models)[0], target.features).probs.max(axis=-1).mean(axis=-1)
    if provenance is not None:
        provenance.extend(
            {"kind": "confidence", "model": m.meta.get("domain_id", ""), "confidence": float(c)}
            for m, c in zip(models, conf)
        )
    return conf / conf.sum()


def combine_weights(w_t, w_s, lam: float) -> WeightEstimate:
    """w_raw = w_t + lam * w_s, renormalized by (1 + lam) onto the simplex."""
    w_t = np.asarray(w_t, dtype=np.float64)
    if w_s is None:
        return WeightEstimate(None, w_t, lam, w_t.copy(), w_t.copy(), fallback=True)
    w_s = np.asarray(w_s, dtype=np.float64)
    if w_s.shape != w_t.shape:
        raise ParameterError("w_s and w_t must have the same length")
    w_raw = w_t + lam * w_s
    return WeightEstimate(w_s, w_t, lam, w_raw, w_raw / (1.0 + lam))


def estimate(
    models: list[SourceModel], datasets: dict, target: Dataset, lam: float = 1.0
) -> tuple[WeightEstimate, list]:
    """Full three-step estimation; returns the estimate and its provenance log.

    `datasets` holds the shared labeled domains, as for `proxy_weights`.
    """
    if not models:
        raise ParameterError("need at least one model")
    provenance: list = []
    w_s = proxy_weights(models, datasets, provenance) if len(models) > 1 else None
    w_t = confidence_weights(models, target, provenance)
    est = combine_weights(w_t, w_s, lam)
    return est, provenance


def _fmt_vec(v: np.ndarray | None) -> str:
    if v is None:
        return "absent"
    return " ".join(format(x, ".17g") for x in v)


def _estimate_lines(est: WeightEstimate) -> list:
    """The lambda/fallback/vector tail shared by weights files and provenance logs."""
    return [
        f"lambda {format(est.lam, '.17g')}",
        f"fallback {str(est.fallback).lower()}",
        "w_s " + _fmt_vec(est.w_s),
        "w_t " + _fmt_vec(est.w_t),
        "w_raw " + _fmt_vec(est.w_raw),
        "w_final " + _fmt_vec(est.w_final),
    ]


def format_provenance(est: WeightEstimate, provenance: list, model_ids: list) -> str:
    """Render the provenance log in its documented text schema."""
    lines = [PROVENANCE_MAGIC]
    lines.append("models " + ",".join(model_ids))
    for rec in provenance:
        if rec["kind"] == "proxy":
            lines.append(
                f"proxy model={rec['model']} proxy={rec['proxy']} "
                f"accuracy={format(rec['accuracy'], '.17g')}"
            )
        else:
            lines.append(
                f"confidence model={rec['model']} "
                f"confidence={format(rec['confidence'], '.17g')}"
            )
    return "\n".join(lines + _estimate_lines(est)) + "\n"


def format_weights(est: WeightEstimate, model_ids: list) -> str:
    lines = [WEIGHTS_MAGIC]
    lines.append("models " + ",".join(model_ids))
    return "\n".join(lines + _estimate_lines(est)) + "\n"


def parse_weights(text: str) -> tuple[WeightEstimate, list]:
    """Read a weights file into its estimate and its model ids, in file order.

    Any malformed content raises FormatError.
    """
    lines = text.splitlines()
    if not lines or lines[0] != WEIGHTS_MAGIC:
        raise FormatError("not a shiftlab weights file")
    fields = {}
    for ln in lines[1:]:
        if ln.strip():
            key, _, rest = ln.partition(" ")
            if key not in WEIGHTS_KEYS:
                raise FormatError(f"weights file has an unknown {key!r} line")
            if key in fields:
                raise FormatError(f"weights file repeats its {key} line")
            fields[key] = rest
    missing = [k for k in WEIGHTS_KEYS if k not in fields]
    if missing:
        raise FormatError(f"weights file has no {missing[0]} line")
    if fields["fallback"] not in ("true", "false"):
        raise FormatError(f"weights file: fallback must be true or false, got {fields['fallback']!r}")

    def vec(key):
        return np.array([float(x) for x in fields[key].split()])

    try:
        model_ids = fields["models"].split(",")
        est = WeightEstimate(
            None if fields["w_s"] == "absent" else vec("w_s"),
            vec("w_t"),
            float(fields["lambda"]),
            vec("w_raw"),
            vec("w_final"),
            fallback=fields["fallback"] == "true",
        )
    except ValueError as exc:  # a non-number, or weights that break an invariant
        raise FormatError(f"weights file: {exc}") from None
    if len(model_ids) != len(est.w_final):
        raise FormatError(
            f"weights file lists {len(model_ids)} models for {len(est.w_final)} weights"
        )
    return est, model_ids
