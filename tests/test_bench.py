import ast
import multiprocessing
import os
import threading

import numpy as np
import pytest

from shiftlab import adapt, bench, cli, mea
from shiftlab.adapt import AdaptationConfig
from shiftlab.bench import (
    MoonsRecipe,
    ScenarioSpec,
    emit_report,
    iterations_to_convergence,
    overfitting_suite,
    run_scenario,
)
from shiftlab.errors import ParameterError, WorkerError
from shiftlab.records import CSV_HEADER, ExperimentRecord, TrajectoryRow, final_accuracy


def log_line(path, value):
    """Append `repr(value)` as one line: a spy in a forked worker reaches a file."""
    with open(path, "a", encoding="ascii") as fh:
        fh.write(repr(value) + "\n")


def read_lines(path):
    lines = path.read_text().splitlines() if path.exists() else []
    return [ast.literal_eval(line) for line in lines]


def make_rows(accs, every=10):
    return [TrajectoryRow(iteration=j * every, loss_total=0.5, acc_target=a)
            for j, a in enumerate(accs)]


class TestConvergenceDetector:
    def test_constant_trajectory_converges_immediately(self):
        rows = make_rows([0.8] * 100)
        assert iterations_to_convergence(rows) == 0

    def test_step_trajectory_converges_at_the_step(self):
        accs = [0.5] * 37 + [0.9] * 80
        rows = make_rows(accs)
        assert iterations_to_convergence(rows) == 37 * 10

    def test_oscillating_trajectory_never_converges(self):
        accs = [0.9 if j % 2 else 0.5 for j in range(120)]
        rows = make_rows(accs)
        assert iterations_to_convergence(rows) is None

    def test_short_trajectory_falls_back_to_end_stability(self):
        # fewer evaluations than the window: stability to the end suffices
        rows = make_rows([0.2, 0.8, 0.8, 0.8])
        assert iterations_to_convergence(rows, window=50) == 10

    def test_window_counts_logged_evaluations(self):
        # a dip at eval 60 poisons every full 100-eval window but is invisible
        # to a 5-eval window starting at 0
        accs = [0.8] * 60 + [0.2] + [0.8] * 60
        rows = make_rows(accs)
        assert iterations_to_convergence(rows, window=100) is None
        assert iterations_to_convergence(rows, window=5) == 0
        # an early dip inside the window delays convergence past it
        early = make_rows([0.8, 0.2] + [0.8] * 60)
        assert iterations_to_convergence(early, window=5) == 20

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(0)
        accs = list(0.8 + 0.003 * rng.standard_normal(80))
        rows = make_rows(accs)
        loose = iterations_to_convergence(rows, tolerance=0.05)
        tight = iterations_to_convergence(rows, tolerance=0.002)
        assert loose is not None
        if tight is not None:
            assert loose <= tight

    def test_rejects_bad_window_and_empty_record(self):
        with pytest.raises(ParameterError):
            iterations_to_convergence(make_rows([0.5] * 10), window=0)
        with pytest.raises(ParameterError):
            iterations_to_convergence([TrajectoryRow(iteration=0, loss_total=1.0)])


class TestScenarioSpec:
    def test_rejects_unknown_paradigm(self):
        with pytest.raises(ParameterError):
            ScenarioSpec("x", "dann", MoonsRecipe())

    def test_expanded_requires_visible_domains(self):
        with pytest.raises(ParameterError):
            ScenarioSpec("x", "expanded-base", MoonsRecipe())

    def test_adversarial_recipe_flips_two_moons_labels(self):
        plain = MoonsRecipe(n=50).build(3, "d")
        adv = MoonsRecipe(n=50, adversarial=True).build(3, "d")
        assert np.array_equal(adv.labels, 1 - plain.labels)
        assert adv.domain_id == "d"


TINY = AdaptationConfig(iterations=5, learning_rate=0.01)


class TestRunScenario:
    def test_source_only_smoke_and_record_fields(self):
        spec = ScenarioSpec("tiny", "source-only", MoonsRecipe(n=80, rotation=20.0))
        (records,) = run_scenario({"a": MoonsRecipe(n=80)}, [spec], [0, 1])
        assert len(records) == 2
        for rec, seed in zip(records, [0, 1]):
            assert rec.run_id == f"tiny-source-only-s{seed}"
            assert (rec.paradigm, rec.scenario) == ("source-only", "tiny")
            assert [r.iteration for r in rec.rows] == [0]
            assert iterations_to_convergence(rec.rows) == 0
            assert 0.0 <= final_accuracy(rec.rows) <= 1.0

    def test_records_are_named_once_and_carry_their_weights(self, monkeypatch, tmp_path):
        log = tmp_path / "estimates.log"
        estimate = mea.estimate

        def spying(*args, **kwargs):
            result = estimate(*args, **kwargs)
            log_line(log, result[0].w_final.tolist())
            return result

        monkeypatch.setattr(mea, "estimate", spying)
        target = MoonsRecipe(n=60, rotation=20.0)
        specs = [
            ScenarioSpec("tiny", paradigm, target, TINY, expanded_visible=["b"])
            for paradigm in bench.PARADIGMS
        ]
        runs = run_scenario(SOURCES, specs, [2])
        estimates = read_lines(log)
        (mea_weights,) = estimates
        assert mea_weights != [0.5, 0.5]
        weights = {"uda": [1.0], "sfda": [1.0], "msfda-mea": mea_weights}
        for spec, (rec,) in zip(specs, runs):
            assert rec.run_id == f"tiny-{spec.paradigm}-s2"
            assert (rec.paradigm, rec.scenario) == (spec.paradigm, "tiny")
            assert rec.weights.tolist() == weights.get(spec.paradigm, [0.5, 0.5])

    def test_seeds_run_in_order_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setenv("SHIFTLAB_THREADS", "5")  # once selected a thread pool
        _usable_cpus(monkeypatch, 1)  # on more CPUs the sources train in workers
        calls = []
        train_source = bench.train_source

        def counting(ds, cfg, *args, **kwargs):
            calls.append((threading.get_ident(), cfg.seed))
            return train_source(ds, cfg, *args, **kwargs)

        monkeypatch.setattr(bench, "train_source", counting)
        spec = ScenarioSpec("tiny", "source-only", MoonsRecipe(n=60))
        (records,) = run_scenario({"a": MoonsRecipe(n=60)}, [spec], [3, 1])
        assert calls == [(threading.get_ident(), 300), (threading.get_ident(), 100)]
        assert [r.run_id for r in records] == ["tiny-source-only-s3", "tiny-source-only-s1"]

    def test_deterministic_across_calls(self):
        spec = ScenarioSpec("tiny", "sfda", MoonsRecipe(n=80, rotation=20.0))
        sources = {"a": MoonsRecipe(n=80)}
        a = run_scenario(sources, [spec], [0])[0][0]
        b = run_scenario(sources, [spec], [0])[0][0]
        assert [r.loss_total for r in a.rows] == [r.loss_total for r in b.rows]
        assert final_accuracy(a.rows) == final_accuracy(b.rows)

    def test_rejects_empty_seeds(self):
        spec = ScenarioSpec("x", "sfda", MoonsRecipe())
        with pytest.raises(ParameterError, match="need at least one seed"):
            run_scenario({"a": MoonsRecipe()}, [spec], [])

    def test_errors_name_the_scenario_and_seed(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ParameterError("boom")

        monkeypatch.setattr(bench, "train_sfda", failing)
        spec = ScenarioSpec("tiny", "sfda", MoonsRecipe(n=60))
        with pytest.raises(ParameterError, match=r"^scenario 'tiny' \(paradigm sfda, seed 4\): boom$"):
            run_scenario({"a": MoonsRecipe(n=60)}, [spec], [4])

    def test_a_run_fails_before_a_later_seeds_source_training(self, monkeypatch):
        train_source, train_sfda = bench.train_source, bench.train_sfda

        def failing_at_seed_1(ds, cfg, *args, **kwargs):
            if cfg.seed == 100:
                raise ParameterError("source boom")
            return train_source(ds, cfg, *args, **kwargs)

        def failing(model, target, cfg, **kwargs):
            raise ParameterError(f"boom {cfg.seed}")

        monkeypatch.setattr(bench, "train_source", failing_at_seed_1)
        monkeypatch.setattr(bench, "train_sfda", failing)
        sources, spec = {"a": MoonsRecipe(n=60)}, ScenarioSpec("tiny", "sfda", MoonsRecipe(n=60))
        message = r"^scenario 'tiny' \(paradigm sfda, seed 0\): boom 0$"  # seed 0's run
        with pytest.raises(ParameterError, match=message):
            run_scenario(sources, [spec], [0, 1])
        monkeypatch.setattr(bench, "train_sfda", train_sfda)
        message = r"^scenario 'tiny' \(paradigm sfda, seed 1\): source boom$"
        with pytest.raises(ParameterError, match=message):
            run_scenario(sources, [spec], [0, 1])


def _deterministic_part(record):
    rows = [row.csv().rsplit(",", 1)[0] for row in record.rows]
    return rows, record.run_id, record.paradigm, record.scenario, record.weights.tolist()


SOURCES = {"a": MoonsRecipe(n=60, rotation=5.0), "b": MoonsRecipe(n=60, rotation=15.0)}


class TestSourceModels:
    def test_each_source_is_trained_once_per_seed(self, monkeypatch, tmp_path):
        log = tmp_path / "sources.log"
        train_source = bench.train_source

        def counting(ds, cfg, *args, **kwargs):
            log_line(log, (ds.domain_id, cfg.seed))
            return train_source(ds, cfg, *args, **kwargs)

        monkeypatch.setattr(bench, "train_source", counting)
        target = MoonsRecipe(n=60, rotation=20.0)
        specs = [
            ScenarioSpec("tiny", paradigm, target, TINY)
            for paradigm in ("source-only", "uda", "msfda-uniform")
        ]
        run_scenario(SOURCES, specs, [0, 1])
        assert sorted(read_lines(log)) == [("a", 0), ("a", 100), ("b", 1), ("b", 101)]

    def test_specs_share_models_and_match_runs_alone(self):
        # the adapting spec runs first: had it adapted the shared models in
        # place, source-only would then score the adapted ones
        target = MoonsRecipe(n=60, rotation=20.0)
        specs = [
            ScenarioSpec("tiny", "msfda-uniform", target, TINY),
            ScenarioSpec("tiny", "source-only", target, TINY),
        ]
        together = run_scenario(SOURCES, specs, [0, 1])
        for spec, runs in zip(specs, together):
            (alone,) = run_scenario(SOURCES, [spec], [0, 1])
            assert [_deterministic_part(r) for r in runs] == [
                _deterministic_part(r) for r in alone
            ]

    def test_uda_trains_no_source_model(self, monkeypatch):
        monkeypatch.setattr(bench, "train_source", None)  # any call would fail
        spec = ScenarioSpec("tiny", "uda", MoonsRecipe(n=60, rotation=20.0), TINY)
        (records,) = run_scenario({"a": MoonsRecipe(n=60)}, [spec], [0])
        assert records[0].paradigm == "uda"


class TestSharedData:
    def test_mea_scores_on_the_shared_sources_only(self, monkeypatch, tmp_path):
        # the runs may call estimate in either order: each logs to its spec's file
        run = {}  # in the process running a spec: that spec's index
        estimate, run_spec = mea.estimate, bench._run_spec

        def tagging(spec, *args):
            run["index"] = specs.index(spec)
            return run_spec(spec, *args)

        def counting(models, datasets, *args, **kwargs):
            call = [(d, ds.domain_id) for d, ds in datasets.items()]
            log_line(tmp_path / f"{run['index']}.log", call)
            return estimate(models, datasets, *args, **kwargs)

        monkeypatch.setattr(bench, "_run_spec", tagging)
        monkeypatch.setattr(mea, "estimate", counting)
        target = MoonsRecipe(n=60, rotation=20.0)
        specs = [
            ScenarioSpec("tiny", "msfda-mea", target, TINY, shared=shared)
            for shared in (("a",), None)
        ]
        run_scenario(SOURCES, specs, [0])
        received = [call for i in range(len(specs)) for call in read_lines(tmp_path / f"{i}.log")]
        assert received == [[("a", "a")], [("a", "a"), ("b", "b")]]


def _usable_cpus(monkeypatch, cpus):
    """Make `run_scenario` and the UDA trainer see `cpus` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _dying_in_a_worker():
    """A job that ends its worker process abruptly; in the caller it only raises."""
    caller = os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() == caller:
            raise AssertionError("the job ran in the calling process")
        os._exit(1)

    return dying


class TestWorkers:
    def test_records_do_not_depend_on_the_worker_count(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids.log"
        run_spec = bench._run_spec

        def recording(*args):
            log_line(pids, os.getpid())
            return run_spec(*args)

        monkeypatch.setattr(bench, "_run_spec", recording)
        target = MoonsRecipe(n=60, rotation=20.0)
        specs = [
            ScenarioSpec("tiny", paradigm, target, TINY, expanded_visible=["b"])
            for paradigm in bench.PARADIGMS
        ]
        _usable_cpus(monkeypatch, 2)
        forked = run_scenario(SOURCES, specs, [0, 1])
        assert len(read_lines(pids)) == 12 and os.getpid() not in read_lines(pids)
        _usable_cpus(monkeypatch, 1)
        inline = run_scenario(SOURCES, specs, [0, 1])
        assert read_lines(pids)[12:] == [os.getpid()] * 12
        assert [[_deterministic_part(r) for r in runs] for runs in forked] == [
            [_deterministic_part(r) for r in runs] for runs in inline
        ]

    def test_no_worker_outlives_a_return_or_an_error(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        threads = set(threading.enumerate())
        sources = {"a": MoonsRecipe(n=60)}
        spec = ScenarioSpec("tiny", "sfda", MoonsRecipe(n=60, rotation=20.0), TINY)
        run_scenario(sources, [spec], [0, 1, 2])
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == threads

        def failing(model, target, cfg, **kwargs):
            raise ParameterError(f"boom {cfg.seed}")

        monkeypatch.setattr(bench, "train_sfda", failing)
        message = r"^scenario 'tiny' \(paradigm sfda, seed 0\): boom 0$"  # the first run's
        with pytest.raises(ParameterError, match=message):
            run_scenario(sources, [spec], [0, 1, 2])
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == threads

    def test_runs_keep_the_callers_error_state(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        cfg = AdaptationConfig(iterations=5, learning_rate=1e308)  # the next matmul overflows
        spec = ScenarioSpec("tiny", "sfda", MoonsRecipe(n=60, rotation=20.0), cfg)
        message = r"^scenario 'tiny' \(paradigm sfda, seed 0\): overflow"
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match=message):
            run_scenario(SOURCES, [spec], [0, 1])


    def test_jobs_start_in_the_callers_error_state(self, monkeypatch, tmp_path):
        states = tmp_path / "states.log"
        run_spec = bench._run_spec

        def recording(*args):
            log_line(states, (os.getpid(), np.geterr()))
            return run_spec(*args)

        monkeypatch.setattr(bench, "_run_spec", recording)
        _usable_cpus(monkeypatch, 2)
        spec = ScenarioSpec("tiny", "source-only", MoonsRecipe(n=60, rotation=20.0), TINY)
        with np.errstate(under="raise", divide="ignore"):  # no trainer sets either
            expected = np.geterr()
            run_scenario(SOURCES, [spec], [0, 1])
        assert [state for _, state in read_lines(states)] == [expected] * 2
        assert os.getpid() not in {pid for pid, _ in read_lines(states)}

    def test_a_source_training_fails_in_a_worker(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids.log"
        train_source = bench.train_source

        def failing_at_seed_1(ds, cfg, *args, **kwargs):
            log_line(pids, os.getpid())
            if cfg.seed == 101:
                raise ParameterError("source boom")
            return train_source(ds, cfg, *args, **kwargs)

        monkeypatch.setattr(bench, "train_source", failing_at_seed_1)
        _usable_cpus(monkeypatch, 2)
        specs = [ScenarioSpec("tiny", paradigm, MoonsRecipe(n=60, rotation=20.0), TINY)
                 for paradigm in ("uda", "msfda-uniform", "sfda")]
        message = r"^scenario 'tiny' \(paradigm msfda-uniform, seed 1\): source boom$"
        with pytest.raises(ParameterError, match=message):
            run_scenario(SOURCES, specs, [0, 1])
        assert os.getpid() not in read_lines(pids)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("job", ["source training", "run"])
    def test_a_dead_worker_raises_one_error_naming_its_job(self, monkeypatch, job):
        dying = _dying_in_a_worker()

        monkeypatch.setattr(bench, "train_source" if job == "source training" else "_run_spec", dying)
        _usable_cpus(monkeypatch, 2)
        spec = ScenarioSpec("tiny", "sfda", MoonsRecipe(n=60, rotation=20.0), TINY)
        message = (r"^scenario 'tiny' \(paradigm sfda, seed 0\): "
                   rf"a worker process ended abruptly before its {job} finished$")
        with pytest.raises(WorkerError, match=message):
            run_scenario({"a": MoonsRecipe(n=60)}, [spec], [0])
        assert multiprocessing.active_children() == []

    def test_a_dead_diagnostic_helper_raises_worker_error_naming_its_run(self, monkeypatch):
        monkeypatch.setattr(adapt, "_diagnose", _dying_in_a_worker())
        _usable_cpus(monkeypatch, 2)
        spec = ScenarioSpec("tiny", "uda", MoonsRecipe(n=60, rotation=20.0), TINY)
        message = (r"^scenario 'tiny' \(paradigm uda, seed 1\): "
                   r"the MMD diagnostic's helper process ended abruptly$")
        with pytest.raises(WorkerError, match=message):
            run_scenario({"a": MoonsRecipe(n=60)}, [spec], [1, 2])
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_exits_4_with_one_error_line(self, monkeypatch, tmp_path, capfd):
        monkeypatch.setattr(bench, "_overfit_seed", _dying_in_a_worker())
        _usable_cpus(monkeypatch, 2)
        code = cli.main(["bench", "overfitting", "--seed-list", "0,1", "--out", str(tmp_path)])
        out, err = capfd.readouterr()
        assert (code, out) == (4, "")
        assert err == "error: seed 0: a worker process ended abruptly before its run finished\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_interrupted_job_exits_130_with_one_error_line(self, monkeypatch, tmp_path, capfd,
                                                              cpus):
        def interrupted(seed):
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "_overfit_seed", interrupted)
        _usable_cpus(monkeypatch, cpus)
        code = cli.main(["bench", "overfitting", "--seed-list", "0,1", "--out", str(tmp_path)])
        assert (code, *capfd.readouterr()) == (130, "", "error: interrupted\n")
        assert multiprocessing.active_children() == []

    def test_overfitting_does_not_depend_on_the_worker_count(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids.log"
        overfit_seed = bench._overfit_seed

        def recording(seed):
            log_line(pids, os.getpid())
            return overfit_seed(seed)

        monkeypatch.setattr(bench, "_overfit_seed", recording)
        reports = {}
        for cpus in (2, 1):
            _usable_cpus(monkeypatch, cpus)
            reports[cpus] = overfitting_suite([0, 1], tmp_path / str(cpus))
        assert os.getpid() not in read_lines(pids)[:2]
        assert read_lines(pids)[2:] == [os.getpid()] * 2
        assert reports[1] == reports[2] and [p["seed"] for p in reports[1]["per_seed"]] == [0, 1]
        for name in ("summary.report", "summary.txt", "run_sfda-_target-s0.csv", "run_sfda-_target-s1.csv"):
            forked, inline = ((tmp_path / d / name).read_text().splitlines() for d in ("2", "1"))
            assert [ln.rsplit(",", 1)[0] for ln in forked] == [ln.rsplit(",", 1)[0] for ln in inline]
        assert multiprocessing.active_children() == []


class TestSuiteGuards:
    def test_overfitting_rejects_empty_seeds(self):
        with pytest.raises(ParameterError, match="need at least one seed"):
            overfitting_suite([])

    def test_overfitting_names_its_runs_sfda(self, tmp_path):
        overfitting_suite([0], tmp_path)
        assert (tmp_path / "run_sfda-_target-s0.csv").exists()
        lines = (tmp_path / "summary.report").read_text().splitlines()
        cells = [l for l in lines if l.startswith("cell ")]
        assert len(cells) == 1
        assert cells[0].startswith("cell paradigm=sfda scenario=sfda accuracy=")


class TestEmitReport:
    def _records(self, ms_offset=0.0):
        w = np.array([1.0])
        r1 = ExperimentRecord("a-s0", "sc1", "sc1", make_rows([0.5, 0.7, 0.8]), w)
        r2 = ExperimentRecord("b-s0", "other", "sc1", make_rows([0.6, 0.6, 0.9]), w)
        for rec in (r1, r2):
            for row in rec.rows:
                row.ms += ms_offset
        return [r1, r2]

    def test_writes_expected_files(self, tmp_path):
        paths = emit_report(self._records(), tmp_path)
        names = {p.name for p in paths}
        assert {"run_a-s0.csv", "run_b-s0.csv", "summary.txt", "summary.report"} <= names
        csv = (tmp_path / "run_a-s0.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 4

    def test_summary_bytes_independent_of_wall_clock(self, tmp_path):
        emit_report(self._records(ms_offset=0.0), tmp_path / "x")
        emit_report(self._records(ms_offset=123.456), tmp_path / "y")
        for name in ("summary.txt", "summary.report"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_machine_summary_schema(self, tmp_path):
        emit_report(self._records(), tmp_path, suite_summary={"suite": "demo", "passed": True})
        lines = (tmp_path / "summary.report").read_text().splitlines()
        assert lines[0] == "#shiftlab-report v1"
        assert any(l.startswith("cell paradigm=") and "accuracy=" in l for l in lines)
        assert "suite demo passed=true" in lines

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_report([], tmp_path)
