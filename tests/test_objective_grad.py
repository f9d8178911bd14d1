"""Each trainer step's objective against central finite differences.

A trainer step draws its batches, calls one pure objective
(`adapt._supervised_objective` or `adapt._adapt_objective`) and steps. Each
case here runs a real trainer for one step and keeps the objective's inputs
as that step saw them: the parameters, the resolved ensemble weights, the
batches and the pseudo-labels. The gradient the objective returns must then
be the gradient of the `loss_total` it returns, with the pseudo-labels and
the MMD's median-heuristic bandwidths held fixed, as the trainers hold them.
"""

import numpy as np
import pytest

from shiftlab import adapt, objectives
from shiftlab.adapt import (
    AdaptationConfig,
    train_expanded_base,
    train_msfda,
    train_sfda,
    train_source,
    train_uda,
)
from shiftlab.datagen import gen_two_moons

CFG = AdaptationConfig(iterations=1, batch_size=32, seed=3)
ENTRIES = 8  # sampled entries per parameter array
EPS = 1e-5
RTOL = 1e-4
OBJECTIVES = (adapt._adapt_objective, adapt._supervised_objective)
CASES = ["sfda", "msfda-uniform", "msfda-fixed", "msfda-mea",
         "expanded-ce-only", "expanded-ce+mmd", "uda", "source"]
WITH_MMD = {"expanded-ce+mmd", "uda"}


def moons(rotation, seed, domain_id):
    return gen_two_moons(200, 0.1, rotation, seed=seed, domain_id=domain_id)


@pytest.fixture(scope="module")
def domains():
    a, b, t = moons(0.0, 0, "a"), moons(15.0, 1, "b"), moons(35.0, 2, "t")
    models = [train_source(ds, AdaptationConfig(iterations=30, seed=j)).model for j, ds in enumerate((a, b))]
    return a, b, t, models


def run_case(monkeypatch, domains, case):
    """Run the case's trainer for one step; return the objective it called and
    that call's arguments, copied before the step moved anything."""
    a, b, t, models = domains
    target = t.unlabeled()
    calls = {
        "sfda": lambda: train_sfda(models[0], target, CFG),
        "msfda-uniform": lambda: train_msfda(models, None, target, CFG),
        "msfda-fixed": lambda: train_msfda(models, [0.7, 0.3], target, CFG),
        "msfda-mea": lambda: train_msfda(models, {"a": a, "b": b}, target, CFG),
        "expanded-ce-only": lambda: train_expanded_base(models, [0.7, 0.3], target, [a, b], "ce-only", CFG),
        "expanded-ce+mmd": lambda: train_expanded_base(models, [0.7, 0.3], target, [a, b], "ce+mmd", CFG),
        "uda": lambda: train_uda(a, t, CFG),
        "source": lambda: train_source(a, CFG),
    }
    captured = []
    with monkeypatch.context() as m:
        for objective in OBJECTIVES:
            def spy(model, *args, objective=objective):
                captured.append((objective, model.clone(), [copy(x) for x in args]))
                return objective(model, *args)

            m.setattr(adapt, objective.__name__, spy)
        calls[case]()
    (call,) = captured
    return call


def copy(x):
    """A copy of an objective's argument: an array, a list of (features, labels) batches, or as is."""
    if isinstance(x, np.ndarray):
        return x.copy()
    if isinstance(x, list):
        return [(xs.copy(), ys.copy()) for xs, ys in x]
    return x


def sampled_entries(grad, rng):
    """(layer, 0 weight | 1 bias, index) of ENTRIES random entries per array with a gradient."""
    for i, pair in enumerate(grad):
        for j, g in enumerate(pair or ()):
            for flat in rng.choice(g.size, size=min(ENTRIES, g.size), replace=False):
                yield i, j, np.unravel_index(flat, g.shape)


@pytest.mark.parametrize("case", CASES)
def test_gradient_matches_central_differences(monkeypatch, domains, case):
    objective, model, args = run_case(monkeypatch, domains, case)
    recorded = []  # the base call's bandwidths, one array per MMD, in call order
    median_bandwidths = objectives.median_bandwidths
    monkeypatch.setattr(objectives, "median_bandwidths",
                        lambda sq: recorded.append(median_bandwidths(sq)) or recorded[-1])
    _, grad = objective(model, *args)
    assert bool(recorded) == (case in WITH_MMD)

    def loss_total():
        replay = iter(recorded)
        monkeypatch.setattr(objectives, "median_bandwidths", lambda sq: next(replay))
        value = objective(model, *args)[0]["loss_total"]
        assert next(replay, None) is None
        return value

    supervised = objective is adapt._supervised_objective
    assert (grad[-1] is not None) == supervised  # the adapting trainers freeze the head
    assert all(pair is not None for pair in grad[:-1])
    worst = 0.0
    for i, j, idx in sampled_entries(grad, np.random.default_rng(0)):
        param = model.layers[i][j]
        was = param[idx]
        param[idx] = was + EPS
        plus = loss_total()
        param[idx] = was - EPS
        minus = loss_total()
        param[idx] = was
        fd = (plus - minus) / (2 * EPS)
        worst = max(worst, abs(grad[i][j][idx] - fd) / max(abs(fd), 1e-6))
    assert worst < RTOL, f"{case}: worst relative error {worst:.3g}"


@pytest.mark.parametrize("case", CASES)
def test_objective_is_pure(monkeypatch, domains, case):
    objective, model, args = run_case(monkeypatch, domains, case)
    before = model.clone()
    fields, grad = objective(model, *args)
    again, grad_again = objective(model, *args)
    assert fields == again
    for pair, pair_again in zip(grad, grad_again, strict=True):
        assert (pair is None) == (pair_again is None)
        for g, h in zip(pair or (), pair_again or (), strict=True):
            assert np.array_equal(g, h)
    for layer, was in zip(model.layers, before.layers, strict=True):
        assert np.array_equal(layer.weight, was.weight) and np.array_equal(layer.bias, was.bias)
