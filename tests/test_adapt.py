import inspect
import multiprocessing
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from shiftlab import adapt, cli, mea, objectives
from shiftlab.adapt import (
    EVAL_INTERVAL,
    AdaptationConfig,
    train_expanded_base,
    train_msfda,
    train_sfda,
    train_source,
    train_uda,
)
from shiftlab.datagen import gen_gaussian_blobs, gen_two_moons, save_dataset
from shiftlab.errors import NumericError, ParameterError, WorkerError
from shiftlab.nn import (
    add_gradient,
    backward,
    forward,
    init_model,
    init_optimizer,
    sgd_step,
    stack_models,
)
from shiftlab.objectives import cross_entropy, mmd_rbf, mmd_rbf_grad
from shiftlab.records import TrajectoryRow
from test_bench import _dying_in_a_worker, _usable_cpus, log_line, read_lines


def moons(rotation=0.0, n=200, seed=0, domain_id="src"):
    return gen_two_moons(n, 0.1, rotation, seed=seed, domain_id=domain_id)


def params_equal(a, b):
    for la, lb in zip(a.layers, b.layers, strict=True):
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
        assert adapt._ensemble_accuracy(stack_models([out.model])[0], [1.0], ds) >= 0.95

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


def reference_train_uda(source, target, cfg, eval_set=None):
    """The earlier UDA trainer, which computed its full-dataset MMD diagnostic
    inline on the training thread; the reference for the helper process."""
    model = init_model(source.d, num_classes=source.num_classes, seed=cfg.seed, domain_id=source.domain_id)
    net, (model,) = stack_models([model])
    opt = init_optimizer(model, cfg.learning_rate, cfg.momentum)
    src_stream, tgt_stream = adapt._stream(source.n, cfg, 17), adapt._stream(target.n, cfg, 29)
    lam = cfg.lambda_uda
    rows = []
    for i in range(cfg.iterations):
        evaluating = i % EVAL_INTERVAL == 0 or i == cfg.iterations - 1
        idx = next(src_stream)
        tape_s = forward(model, source.features[idx])
        ce, dce = cross_entropy(tape_s.probs, source.labels[idx])
        tape_t = forward(model, target.features[next(tgt_stream)])
        mmd_value, gx, gy = mmd_rbf_grad(tape_s.features, tape_t.features)
        grad = backward(model, tape_s, dce, lam * gx)
        add_gradient(grad, backward(model, tape_t, dfeat=lam * gy))
        sgd_step(model, grad, opt)
        if evaluating:
            fs = forward(model, source.features).features
            ft = forward(model, target.features).features
            mmd_value = mmd_rbf(fs, ft)
        row = TrajectoryRow(i, ce + lam * mmd_value, ce, mmd_value)
        if eval_set is not None and evaluating:
            row.acc_target = adapt._ensemble_accuracy(net, np.array([1.0]), eval_set)
        rows.append(row)
    return model, rows


def uda_domains():
    src = moons(seed=9)
    tgt_eval = moons(rotation=25.0, seed=10, domain_id="tgt")
    return src, tgt_eval.unlabeled(), tgt_eval


def _log_helper_pids(monkeypatch, log):
    """Log the pid of each diagnostic helper process to `log`."""
    diagnose = adapt._diagnose

    def logging(*args):
        log_line(log, os.getpid())
        return diagnose(*args)

    monkeypatch.setattr(adapt, "_diagnose", logging)


def _exited(pid, timeout=30.0):
    """Whether process `pid` is gone, or a zombie left for its reaper, within `timeout`."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.02)
    return False


class TestUdaDiagnosticThread:
    """UDA's full-dataset MMD runs off the training path, in one forked helper
    process per run (inline on one usable CPU); rows and parameters stay
    those of the inline diagnostic, and no process outlives the run."""

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    @pytest.mark.parametrize("iterations", [1, 10, 25, 31])
    def test_rows_and_parameters_equal_the_inline_diagnostic(self, iterations, lam):
        src, tgt, tgt_eval = uda_domains()
        cfg = AdaptationConfig(iterations=iterations, seed=4, lambda_uda=lam)
        out = train_uda(src, tgt, cfg, tgt_eval)
        ref_model, ref_rows = reference_train_uda(src, tgt, cfg, tgt_eval)
        assert params_equal(out.model, ref_model)
        assert len(out.rows) == len(ref_rows) == iterations
        for row, ref in zip(out.rows, ref_rows):
            row.ms = ref.ms = 0.0
            assert row == ref

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rows_and_parameters_do_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path, cpus):
        pids = tmp_path / "pids.log"
        _log_helper_pids(monkeypatch, pids)
        _usable_cpus(monkeypatch, cpus)
        src, tgt, tgt_eval = uda_domains()
        cfg = AdaptationConfig(iterations=31, seed=4)
        out = train_uda(src, tgt, cfg, tgt_eval)
        ref_model, ref_rows = reference_train_uda(src, tgt, cfg, tgt_eval)
        assert params_equal(out.model, ref_model)
        for row, ref in zip(out.rows, ref_rows, strict=True):
            row.ms = ref.ms = 0.0
            assert row == ref
        helpers = read_lines(pids)
        assert len(helpers) == cpus - 1 and os.getpid() not in helpers  # inline on one CPU
        assert multiprocessing.active_children() == []

    def test_diagnostic_exception_propagates_and_no_thread_survives(self, monkeypatch):
        def failing(X, Y):
            raise RuntimeError("diagnostic failed")

        monkeypatch.setattr(adapt, "mmd_rbf", failing)
        _usable_cpus(monkeypatch, 2)
        src, tgt, _ = uda_domains()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^diagnostic failed$") as exc:
            train_uda(src, tgt, AdaptationConfig(iterations=31))
        assert exc.type is RuntimeError
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("k", [1, 11, 25])
    def test_training_exception_propagates_and_no_thread_survives(self, monkeypatch, k):
        calls = []

        def failing_at_k(*args):
            calls.append(1)
            if len(calls) == k:
                raise RuntimeError(f"step {k} failed")
            return sgd_step(*args)

        monkeypatch.setattr(adapt, "sgd_step", failing_at_k)
        _usable_cpus(monkeypatch, 2)
        src, tgt, _ = uda_domains()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"step {k} failed"):
            train_uda(src, tgt, AdaptationConfig(iterations=31))
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    def test_queue_never_holds_more_than_its_bound(self, monkeypatch, tmp_path):
        # the pipe to the helper holds about one snapshot (a pickled model is
        # about 36 KB, a Linux pipe 64 KiB), so a helper that stalls on its
        # first diagnostic stalls the trainer long before its last step
        release, steps = tmp_path / "release", []

        def stalled_mmd(X, Y):
            deadline = time.monotonic() + 30
            while not release.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return mmd_rbf(X, Y)

        def counting(*args):
            steps.append(1)
            return sgd_step(*args)

        monkeypatch.setattr(adapt, "mmd_rbf", stalled_mmd)
        monkeypatch.setattr(adapt, "sgd_step", counting)
        _usable_cpus(monkeypatch, 2)
        seen = []

        def release_after_a_second():
            time.sleep(1.0)
            seen.append(len(steps))
            release.touch()

        timer = threading.Thread(target=release_after_a_second)
        timer.start()
        src, tgt, tgt_eval = uda_domains()
        cfg = AdaptationConfig(iterations=101, seed=4)
        try:
            out = train_uda(src, tgt, cfg, tgt_eval)
        finally:
            timer.join(timeout=60)
        assert not timer.is_alive()
        assert seen[0] < cfg.iterations / 2 and len(steps) == cfg.iterations
        monkeypatch.setattr(adapt, "sgd_step", sgd_step)
        ref_model, ref_rows = reference_train_uda(src, tgt, cfg, tgt_eval)
        assert params_equal(out.model, ref_model)
        assert [r.loss_mmd for r in out.rows] == [r.loss_mmd for r in ref_rows]

    def test_helper_runs_in_the_callers_errstate(self, monkeypatch, tmp_path):
        states = tmp_path / "states.log"

        def recording_mmd(X, Y):
            log_line(states, (os.getpid(), np.geterr()))
            return mmd_rbf(X, Y)

        monkeypatch.setattr(adapt, "mmd_rbf", recording_mmd)
        _usable_cpus(monkeypatch, 2)
        src, tgt, _ = uda_domains()
        with np.errstate(all="raise"):  # "under" is the caller's alone: no trainer sets it
            expected = np.geterr()
            train_uda(src, tgt, AdaptationConfig(iterations=11))
        assert expected != np.geterr()
        assert [err for _, err in read_lines(states)] == [expected] * 2
        assert os.getpid() not in {pid for pid, _ in read_lines(states)}

    @pytest.mark.parametrize("trainer", ["source", "uda-lambda-0"])
    def test_no_diagnostic_no_thread(self, monkeypatch, trainer):
        started = []
        start = multiprocessing.process.BaseProcess.start
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda p: started.append(p) or start(p))
        _usable_cpus(monkeypatch, 2)
        src, tgt, _ = uda_domains()
        cfg = AdaptationConfig(iterations=11, lambda_uda=0.0)
        if trainer == "source":
            train_source(src, cfg)
        else:
            train_uda(src, tgt, cfg)
        assert started == []
        train_uda(src, tgt, replace(cfg, lambda_uda=1.0))
        assert len(started) == 1

    def test_a_dead_helper_raises_worker_error(self, monkeypatch):
        monkeypatch.setattr(adapt, "_diagnose", _dying_in_a_worker())
        _usable_cpus(monkeypatch, 2)
        src, tgt, _ = uda_domains()
        with pytest.raises(WorkerError, match="^the MMD diagnostic's helper process ended abruptly$"):
            train_uda(src, tgt, AdaptationConfig(iterations=31))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("interrupt", [False, True], ids=["dead-helper", "interrupt"])
    def test_the_cli_prints_one_error_line(self, monkeypatch, tmp_path, capfd, interrupt):
        # a dead helper exits 4; a KeyboardInterrupt in the trainer exits 130
        pids = tmp_path / "pids.log"
        if interrupt:
            _log_helper_pids(monkeypatch, pids)

            def interrupted(*args):
                raise KeyboardInterrupt

            monkeypatch.setattr(adapt, "sgd_step", interrupted)
        else:
            monkeypatch.setattr(adapt, "_diagnose", _dying_in_a_worker())
        _usable_cpus(monkeypatch, 2)
        src, _, tgt_eval = uda_domains()
        for name, ds in (("src.csv", src), ("tgt.csv", tgt_eval)):
            save_dataset(ds, tmp_path / name)
        code = cli.main(["adapt", "--paradigm", "uda", "--source-data", str(tmp_path / "src.csv"),
                         "--target", str(tmp_path / "tgt.csv"), "--iterations", "31"])
        out, err = capfd.readouterr()
        if interrupt:
            assert (code, out, err) == (130, "", "error: interrupted\n")
            assert len(read_lines(pids)) == 1
        else:
            assert (code, out) == (4, "")
            assert err == "error: the MMD diagnostic's helper process ended abruptly\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_a_killed_trainer_leaves_no_helper(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids.log"
        _log_helper_pids(monkeypatch, pids)
        calls = []

        def dying_at_15(*args):
            calls.append(1)
            if len(calls) == 15:
                os._exit(3)
            return sgd_step(*args)

        monkeypatch.setattr(adapt, "sgd_step", dying_at_15)
        _usable_cpus(monkeypatch, 2)
        src, tgt, _ = uda_domains()
        trainer = multiprocessing.get_context("fork").Process(
            target=train_uda, args=(src, tgt, AdaptationConfig(iterations=31)))
        trainer.start()
        trainer.join(timeout=60)
        assert trainer.exitcode == 3
        (helper,) = read_lines(pids)
        assert helper not in (os.getpid(), trainer.pid)
        assert _exited(helper)
        assert multiprocessing.active_children() == []


class TestPseudoLabels:
    def test_well_separated_blobs_recovered(self):
        ds = gen_gaussian_blobs(200, 2, 2, 8.0, [0.5, 0.5], seed=11)
        model = train_source(ds, AdaptationConfig(iterations=300, seed=11)).model
        labels = adapt._ensemble_pseudo_labels(stack_models([model])[0], [1.0], ds.features)
        assert np.mean(labels == ds.labels) >= 0.95

    def test_deterministic(self):
        ds = moons(seed=12)
        model = train_source(ds, AdaptationConfig(iterations=100, seed=12)).model
        net = stack_models([model])[0]
        a = adapt._ensemble_pseudo_labels(net, [1.0], ds.features)
        b = adapt._ensemble_pseudo_labels(net, [1.0], ds.features)
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
            before = adapt._ensemble_accuracy(stack_models([model])[0], [1.0], tgt)
            out = train_sfda(model, tgt.unlabeled(),
                             AdaptationConfig(seed=seed, learning_rate=0.01))
            after = adapt._ensemble_accuracy(stack_models([out.model])[0], [1.0], tgt)
            wins += after > before
        assert wins >= 2

    def test_classifier_frozen(self):
        model, tgt = self._source_and_target(1)
        out = train_sfda(model, tgt.unlabeled(), AdaptationConfig(iterations=60, seed=1))
        assert np.array_equal(out.model.layers[-1].weight, model.layers[-1].weight)
        assert np.array_equal(out.model.layers[-1].bias, model.layers[-1].bias)
        # the tanh layers did move
        assert not np.array_equal(out.model.layers[0].weight, model.layers[0].weight)

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


def same_run(a, b) -> bool:
    """Two trainer outputs have equal rows (`ms` aside), weights and parameters."""
    for row in (*a.rows, *b.rows):
        row.ms = 0.0
    return (a.rows == b.rows and np.array_equal(a.weights, b.weights)
            and len(a.models) == len(b.models)
            and all(params_equal(x, y) for x, y in zip(a.models, b.models)))


class TestTrainMsfda:
    def _sources(self):
        return {f"s{i}": moons(rotation=r, seed=10 + i, domain_id=f"s{i}")
                for i, r in enumerate((0.0, 10.0))}

    def _models_and_target(self):
        models = [train_source(s, AdaptationConfig(iterations=200, seed=20 + i)).model
                  for i, s in enumerate(self._sources().values())]
        tgt = moons(rotation=30.0, seed=30, domain_id="target")
        return models, tgt

    def test_none_weights_are_uniform(self):
        models, tgt = self._models_and_target()
        cfg = AdaptationConfig(iterations=25, seed=6)
        out = train_msfda(models, None, tgt.unlabeled(), cfg, tgt)
        assert same_run(out, train_msfda(models, np.full(2, 0.5), tgt.unlabeled(), cfg, tgt))
        assert out.weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("shared", [("s0", "s1"), ("s1",), ()])
    def test_dict_weights_are_the_mea_estimate(self, shared):
        models, tgt = self._models_and_target()
        cfg = AdaptationConfig(iterations=25, seed=6, lambda_mea=0.5)
        datasets = {d: ds for d, ds in self._sources().items() if d in shared}
        est, _ = mea.estimate(models, datasets, tgt.unlabeled(), cfg.lambda_mea)
        assert est.fallback == (len(shared) < 2)  # s1 alone is no proxy for its own model
        assert not np.array_equal(est.w_final, [0.5, 0.5])  # {} is MEA too, not uniform
        out = train_msfda(models, datasets, tgt.unlabeled(), cfg, tgt)
        assert same_run(out, train_msfda(models, est.w_final, tgt.unlabeled(), cfg, tgt))

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
            calls.append((model, model.layers[0].weight.copy()))
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
        assert net.layers[0].weight.shape[0] == 2
        assert np.array_equal(first, np.stack([m.layers[0].weight for m in models[:2]]))

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
    """The trainers call the unchecked loss terms on the softmax rows they just
    built, so a step makes no probability check and `per_step` loss calls: the
    source CE for source and uda; IM and the pseudo-label CE for sfda and
    msfda; and for expanded those plus one CE per visible source."""

    @pytest.mark.parametrize("trainer, visible, per_step", [
        ("source", 0, 1), ("uda", 0, 1), ("sfda", 0, 2), ("msfda", 0, 2),
        ("expanded", 1, 3), ("expanded", 2, 4),
    ])
    def test_checks_per_step(self, monkeypatch, trainer, visible, per_step):
        calls, losses = [], []
        check = objectives._check_probs
        monkeypatch.setattr(objectives, "_check_probs", lambda p: calls.append(1) or check(p))
        for name in ("_cross_entropy", "_entropy"):  # IM calls _entropy once
            term = getattr(adapt, name)
            monkeypatch.setattr(adapt, name, lambda *a, term=term: losses.append(1) or term(*a))
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
        assert calls == []
        assert len(losses) == per_step * cfg.iterations

    @pytest.mark.parametrize("trainer", ["source", "uda", "sfda", "msfda", "expanded"])
    def test_a_nan_batch_ends_in_numeric_error(self, monkeypatch, trainer):
        def poisoned(model, X):
            tape = forward(model, X)
            tape.probs[..., 0, :] = np.nan  # the first row of each member
            return tape

        monkeypatch.setattr(adapt, "forward", poisoned)
        src = moons(seed=4)
        tgt = moons(rotation=20.0, seed=5, domain_id="tgt").unlabeled()
        models = [init_model(2, 8, 2, seed=i, domain_id=f"s{i}") for i in range(2)]
        with pytest.raises(NumericError, match="non-finite gradient"):
            TRAINERS[trainer](src, tgt, models, AdaptationConfig(iterations=2), None)

    def test_an_overflow_raises_whatever_the_callers_errstate(self):
        cfg = AdaptationConfig(iterations=5, learning_rate=1e308)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="overflow"):
            train_source(moons(seed=4), cfg)
        assert np.geterr()["over"] == "warn"  # the caller's state is back
