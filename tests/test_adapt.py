import inspect

import numpy as np
import pytest

from shiftlab import adapt, objectives
from shiftlab.adapt import (
    EVAL_INTERVAL,
    AdaptationConfig,
    pseudo_labels,
    train_expanded_base,
    train_msfda,
    train_sfda,
    train_source,
    train_uda,
)
from shiftlab.datagen import gen_gaussian_blobs, gen_two_moons
from shiftlab.errors import ParameterError
from shiftlab.nn import accuracy, backward, forward, init_model


def moons(rotation=0.0, n=200, seed=0, domain_id="src"):
    return gen_two_moons(n, 0.1, rotation, seed=seed, domain_id=domain_id)


def params_equal(a, b):
    for la, lb in zip([*a.extractor, a.classifier], [*b.extractor, b.classifier]):
        if not (np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)):
            return False
    return True


TRAINERS = {
    "source": lambda src, tgt, models, cfg, ev: train_source(src, cfg, ev),
    "uda": lambda src, tgt, models, cfg, ev: train_uda(src, tgt, cfg, ev),
    "sfda": lambda src, tgt, models, cfg, ev: train_sfda(models[0], tgt, cfg, ev),
    "msfda": lambda src, tgt, models, cfg, ev: train_msfda(models, [0.5, 0.5], tgt, cfg, ev),
    "expanded": lambda src, tgt, models, cfg, ev: train_expanded_base(
        models, [0.5, 0.5], tgt, [src], "ce+mmd", cfg, ev
    ),
}


class ReferenceBatchStream:
    """The earlier stateful batch stream, kept as the reference for `adapt._stream`."""

    def __init__(self, n, batch_size, rng):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next(self):
        if self._pos + self.batch_size > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return idx


class TestBatchStream:
    # n < batch, n divisible by the batch, and n with a short tail
    @pytest.mark.parametrize("n", [10, 128, 130])
    def test_matches_reference_over_epochs(self, n):
        cfg = AdaptationConfig(batch_size=64, seed=3)
        ref = ReferenceBatchStream(n, 64, np.random.default_rng([cfg.seed, 17]))
        stream = adapt._stream(n, cfg, 17)
        per_epoch = max(n // 64, 1)
        for _ in range(4 * per_epoch):  # four epochs
            assert np.array_equal(next(stream), ref.next())


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError, match="must be positive"):
            AdaptationConfig(iterations=0)
        with pytest.raises(ParameterError):
            AdaptationConfig(batch_size=0)
        with pytest.raises(ParameterError):
            AdaptationConfig(learning_rate=-0.1)
        with pytest.raises(ParameterError):
            AdaptationConfig(pseudo_refresh=0)
        with pytest.raises(ParameterError):
            AdaptationConfig(lambda_uda=float("nan"))


class TestTrainSource:
    def test_learns_training_domain(self):
        ds = moons(seed=3)
        out = train_source(ds, AdaptationConfig(iterations=300, seed=3))
        assert accuracy(out.model, ds.features, ds.labels) >= 0.95

    def test_deterministic(self):
        ds = moons(seed=1)
        cfg = AdaptationConfig(iterations=60, seed=9)
        a = train_source(ds, cfg).model
        b = train_source(ds, cfg).model
        assert params_equal(a, b)

    def test_loss_decreases(self):
        ds = moons(seed=2)
        rows = train_source(ds, AdaptationConfig(iterations=200, seed=2)).rows
        first = np.mean([r.loss_total for r in rows[:10]])
        last = np.mean([r.loss_total for r in rows[-10:]])
        assert last < first

    def test_rejects_unlabeled(self):
        with pytest.raises(ParameterError):
            train_source(moons().unlabeled(), AdaptationConfig(iterations=1))

    # every trainer logs its rows through the same driver
    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_trajectory_shape_and_eval_interval(self, trainer):
        src = moons(seed=4)
        tgt = moons(rotation=20.0, seed=5, domain_id="tgt")
        models = [init_model(2, 8, 2, seed=i, domain_id=f"s{i}") for i in range(2)]
        cfg = AdaptationConfig(iterations=35, seed=0)
        for eval_set, expected in [
            (tgt, [i for i in range(35) if i % EVAL_INTERVAL == 0 or i == 34]),
            (None, []),
        ]:
            rows = TRAINERS[trainer](src, tgt.unlabeled(), models, cfg, eval_set).rows
            assert [r.iteration for r in rows] == list(range(35))
            logged = [r.iteration for r in rows if r.acc_target is not None]
            assert logged == expected

    # accuracy needs labels: an unlabeled eval set is refused before any step
    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_rejects_unlabeled_eval_set(self, trainer):
        src = moons(seed=4)
        tgt = moons(rotation=20.0, seed=5, domain_id="tgt").unlabeled()
        models = [init_model(2, 8, 2, seed=i, domain_id=f"s{i}") for i in range(2)]
        with pytest.raises(ParameterError, match="eval set 'tgt' has no labels"):
            TRAINERS[trainer](src, tgt, models, AdaptationConfig(iterations=3), tgt)


class TestTrainUda:
    def test_lambda_zero_is_bitwise_train_source(self):
        src = moons(seed=5)
        tgt = moons(rotation=30.0, seed=6, domain_id="tgt").unlabeled()
        cfg = AdaptationConfig(iterations=80, seed=5, lambda_uda=0.0)
        uda = train_uda(src, tgt, cfg).model
        plain = train_source(src, cfg).model
        assert params_equal(uda, plain)

    def test_reduces_feature_mmd(self):
        from shiftlab.nn import forward
        from shiftlab.objectives import mmd_rbf

        src = moons(seed=7)
        tgt = moons(rotation=30.0, seed=8, domain_id="tgt").unlabeled()
        cfg = AdaptationConfig(iterations=200, seed=7, lambda_uda=1.0)
        out = train_uda(src, tgt, cfg)
        baseline = train_source(src, cfg).model
        def feat_mmd(m):
            return mmd_rbf(forward(m, src.features)[0], forward(m, tgt.features)[0])
        assert feat_mmd(out.model) < feat_mmd(baseline)

    def test_deterministic(self):
        src = moons(seed=1)
        tgt = moons(rotation=20.0, seed=2, domain_id="tgt").unlabeled()
        cfg = AdaptationConfig(iterations=50, seed=3)
        assert params_equal(train_uda(src, tgt, cfg).model, train_uda(src, tgt, cfg).model)

    def test_rejects_unlabeled_source(self):
        with pytest.raises(ParameterError):
            train_uda(moons().unlabeled(), moons().unlabeled(), AdaptationConfig(iterations=1))

    def test_rejects_dim_mismatch(self):
        src = moons()
        blob = gen_gaussian_blobs(20, 2, 3, 4.0, [0.5, 0.5], seed=0)
        with pytest.raises(ParameterError):
            train_uda(src, blob.unlabeled(), AdaptationConfig(iterations=1))


class TestPseudoLabels:
    def test_well_separated_blobs_recovered(self):
        ds = gen_gaussian_blobs(200, 2, 2, 8.0, [0.5, 0.5], seed=11)
        model = train_source(ds, AdaptationConfig(iterations=300, seed=11)).model
        labels = pseudo_labels(model, ds.unlabeled())
        assert np.mean(labels == ds.labels) >= 0.95

    def test_deterministic(self):
        ds = moons(seed=12)
        model = train_source(ds, AdaptationConfig(iterations=100, seed=12)).model
        a = pseudo_labels(model, ds.unlabeled())
        b = pseudo_labels(model, ds.unlabeled())
        assert np.array_equal(a, b)


class TestTrainSfda:
    def _source_and_target(self, seed=0):
        src = moons(n=400, seed=seed * 1000 + 1)
        tgt = moons(rotation=30.0, n=400, seed=seed * 1000 + 997, domain_id="target")
        model = train_source(src, AdaptationConfig(iterations=300, seed=seed)).model
        return model, tgt

    def test_improves_over_source_model_on_shifted_target(self):
        wins = 0
        for seed in range(3):
            model, tgt = self._source_and_target(seed)
            before = accuracy(model, tgt.features, tgt.labels)
            out = train_sfda(model, tgt.unlabeled(),
                             AdaptationConfig(seed=seed, learning_rate=0.01))
            after = accuracy(out.model, tgt.features, tgt.labels)
            wins += after > before
        assert wins >= 2

    def test_classifier_frozen(self):
        model, tgt = self._source_and_target(1)
        out = train_sfda(model, tgt.unlabeled(), AdaptationConfig(iterations=60, seed=1))
        assert np.array_equal(out.model.classifier.weight, model.classifier.weight)
        assert np.array_equal(out.model.classifier.bias, model.classifier.bias)
        # the extractor did move
        assert not np.array_equal(out.model.extractor[0].weight, model.extractor[0].weight)

    def test_input_model_not_mutated(self):
        model, tgt = self._source_and_target(2)
        snapshot = model.clone()
        train_sfda(model, tgt.unlabeled(), AdaptationConfig(iterations=30, seed=2))
        assert params_equal(model, snapshot)

    def test_signature_admits_no_source_data(self):
        names = list(inspect.signature(train_sfda).parameters)
        assert names == ["source_model", "target", "cfg", "eval_set"]
        assert list(inspect.signature(train_msfda).parameters) == [
            "models", "weights", "target", "cfg", "eval_set"
        ]


class TestTrainMsfda:
    def _models_and_target(self):
        srcs = [moons(rotation=r, seed=10 + i, domain_id=f"s{i}")
                for i, r in enumerate((0.0, 10.0))]
        models = [train_source(s, AdaptationConfig(iterations=200, seed=20 + i)).model
                  for i, s in enumerate(srcs)]
        tgt = moons(rotation=30.0, seed=30, domain_id="target")
        return models, tgt

    def test_degenerates_to_sfda_bitwise(self):
        models, tgt = self._models_and_target()
        cfg = AdaptationConfig(iterations=60, seed=4)
        ens = train_msfda(models, [1.0, 0.0], tgt.unlabeled(), cfg)
        solo = train_sfda(models[0], tgt.unlabeled(), cfg)
        assert params_equal(ens.models[0], solo.models[0])

    def test_zero_weight_model_untouched(self):
        models, tgt = self._models_and_target()
        out = train_msfda(models, [1.0, 0.0], tgt.unlabeled(),
                          AdaptationConfig(iterations=40, seed=4))
        assert params_equal(out.models[1], models[1])

    def test_rejects_non_simplex_weights(self):
        models, tgt = self._models_and_target()
        with pytest.raises(ParameterError):
            train_msfda(models, [0.6, 0.6], tgt.unlabeled(), AdaptationConfig(iterations=1))
        with pytest.raises(ParameterError):  # refused before the first step
            train_msfda(models, [np.nan, np.nan], tgt.unlabeled(), AdaptationConfig(iterations=1))

    def test_deterministic(self):
        models, tgt = self._models_and_target()
        cfg = AdaptationConfig(iterations=40, seed=5)
        a = train_msfda(models, [0.5, 0.5], tgt.unlabeled(), cfg)
        b = train_msfda(models, [0.5, 0.5], tgt.unlabeled(), cfg)
        assert all(params_equal(x, y) for x, y in zip(a.models, b.models))


class TestExpandedBase:
    def test_requires_labeled_visible_source(self):
        model = init_model(2, 8, 2, seed=0)
        tgt = moons(domain_id="t").unlabeled()
        with pytest.raises(ParameterError):
            train_expanded_base([model], [1.0], tgt, [tgt], "ce-only",
                                AdaptationConfig(iterations=1))

    def test_rejects_unknown_mode(self):
        model = init_model(2, 8, 2, seed=0)
        tgt = moons(domain_id="t")
        with pytest.raises(ParameterError):
            train_expanded_base([model], [1.0], tgt.unlabeled(), [tgt], "ce+dann",
                                AdaptationConfig(iterations=1))

    def test_requires_some_visible_source(self):
        model = init_model(2, 8, 2, seed=0)
        tgt = moons(domain_id="t")
        with pytest.raises(ParameterError):
            train_expanded_base([model], [1.0], tgt.unlabeled(), [], "ce-only",
                                AdaptationConfig(iterations=1))

    @pytest.mark.parametrize("mode", ["ce-only", "ce+mmd"])
    def test_both_modes_run_and_log_ce(self, mode):
        src = moons(seed=40, domain_id="vis")
        model = train_source(src, AdaptationConfig(iterations=100, seed=40)).model
        tgt = moons(rotation=20.0, seed=41, domain_id="t")
        out = train_expanded_base([model], [1.0], tgt.unlabeled(), [src], mode,
                                  AdaptationConfig(iterations=30, seed=6), eval_set=tgt)
        assert len(out.rows) == 30
        assert all(r.loss_ce > 0 or r.iteration == 0 for r in out.rows)
        if mode == "ce+mmd":
            assert any(r.loss_mmd != 0.0 for r in out.rows)

    def _count_stacked_calls(self, monkeypatch, name, iterations):
        """Train ce+mmd with weights [0.5, 0.5, 0.0]; return the models and the
        (stack, first-layer weights at call time) of each call to `adapt.<name>`."""
        models = [init_model(2, 8, 2, seed=i, domain_id=f"s{i}") for i in range(3)]
        visible = [moons(seed=50 + j, domain_id=f"v{j}") for j in range(2)]
        tgt = moons(rotation=20.0, seed=52, domain_id="t").unlabeled()
        calls, original = [], getattr(adapt, name)

        def counting(model, *args, **kwargs):
            calls.append((model, model.extractor[0].weight.copy()))
            return original(model, *args, **kwargs)

        monkeypatch.setattr(adapt, name, counting)
        # beta_pseudo=0 and no eval_set leave out the full-dataset passes
        train_expanded_base(models, [0.5, 0.5, 0.0], tgt, visible, "ce+mmd",
                            AdaptationConfig(iterations=iterations, beta_pseudo=0.0))
        return models, visible, calls

    def _assert_one_call_per_batch_on_the_active_stack(self, monkeypatch, name):
        iterations = 3
        models, visible, calls = self._count_stacked_calls(monkeypatch, name, iterations)
        assert len(calls) == iterations * (1 + len(visible))
        assert len({id(net) for net, _ in calls}) == 1
        net, first = calls[0]
        assert net.extractor[0].weight.shape[0] == 2
        assert np.array_equal(first, np.stack([m.extractor[0].weight for m in models[:2]]))

    def test_one_forward_per_active_model_and_batch(self, monkeypatch):
        # per step, the target batch and each visible batch go through one
        # forward of one stack that holds exactly the active models; ce+mmd
        # reuses each tape for the CE, IM and MMD terms and for backward
        self._assert_one_call_per_batch_on_the_active_stack(monkeypatch, "forward")

    def test_one_backward_per_tape(self, monkeypatch):
        # each tape takes its CE/IM probability and summed MMD feature gradients in
        # one backward through the stack of exactly the active models
        self._assert_one_call_per_batch_on_the_active_stack(monkeypatch, "backward")


class TestProbabilityChecks:
    """Each loss call checks its probability rows once, so a step makes one check
    per loss: the source CE for source and uda; IM and the pseudo-label CE for
    sfda and msfda; and for expanded those plus one CE per visible source."""

    @pytest.mark.parametrize("trainer, visible, per_step", [
        ("source", 0, 1), ("uda", 0, 1), ("sfda", 0, 2), ("msfda", 0, 2),
        ("expanded", 1, 3), ("expanded", 2, 4),
    ])
    def test_checks_per_step(self, monkeypatch, trainer, visible, per_step):
        calls = []
        check = objectives._check_probs
        monkeypatch.setattr(objectives, "_check_probs", lambda p: calls.append(1) or check(p))
        src = moons(seed=4)
        tgt = moons(rotation=20.0, seed=5, domain_id="tgt").unlabeled()
        models = [init_model(2, 8, 2, seed=i, domain_id=f"s{i}") for i in range(2)]
        cfg = AdaptationConfig(iterations=4, pseudo_refresh=2)
        assert cfg.beta_pseudo > 0
        if trainer == "expanded":
            sources = [moons(seed=60 + j, domain_id=f"v{j}") for j in range(visible)]
            train_expanded_base(models, [0.5, 0.5], tgt, sources, "ce+mmd", cfg)
        else:
            TRAINERS[trainer](src, tgt, models, cfg, None)
        assert len(calls) == per_step * cfg.iterations
