import ast
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import shiftlab
from shiftlab import adapt, bench, cli, mea
from shiftlab.adapt import AdaptationConfig, TrainerOutput, _ensemble_accuracy
from shiftlab.bench import (
    MoonsRecipe,
    ScenarioSpec,
    emit_report,
    iterations_to_convergence,
    overfitting_suite,
    run_scenario,
)
from shiftlab.errors import ParameterError, WorkerError
from shiftlab.nn import stack_models
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
            ScenarioSpec("tiny", paradigm, target, TINY,
                         visible=["b"] if paradigm == "expanded-base" else None)
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

    def test_rejects_a_repeated_seed(self):
        spec = ScenarioSpec("x", "sfda", MoonsRecipe())
        with pytest.raises(ParameterError, match=r"distinct, got \[3, 1, 3\]$"):
            run_scenario({"a": MoonsRecipe()}, [spec], [3, 1, 3])

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
            ScenarioSpec("tiny", "msfda-mea", target, TINY, visible=visible)
            for visible in (("a",), None)
        ]
        run_scenario(SOURCES, specs, [0])
        received = [call for i in range(len(specs)) for call in read_lines(tmp_path / f"{i}.log")]
        assert received == [[("a", "a")], [("a", "a"), ("b", "b")]]


def _fake_data_trainers(monkeypatch, log):
    """Replace the trainers that can read source data with fakes that log, by
    paradigm, the domain ids of the datasets a run passes them, and return one row."""
    def logged(paradigm, datasets):
        log_line(log, (paradigm, None if datasets is None else [ds.domain_id for ds in datasets]))
        return TrainerOutput([], np.array([1.0]), [TrajectoryRow(0, 0.0, acc_target=0.5)])

    def uda(source, target, cfg, eval_set=None):
        return logged("uda", [source])

    def msfda(models, weights, target, cfg, eval_set=None):
        if weights is None:
            return logged("msfda-uniform", None)
        assert all(d == ds.domain_id for d, ds in weights.items())
        return logged("msfda-mea", list(weights.values()))

    def expanded(models, weights, target, visible, mode, cfg, eval_set=None):
        return logged("expanded-base", visible)

    monkeypatch.setattr(bench, "train_uda", uda)
    monkeypatch.setattr(bench, "train_msfda", msfda)
    monkeypatch.setattr(bench, "train_expanded_base", expanded)


# suite -> paradigm -> the source domains each of its runs at one seed reads (None: none)
SUITE_DATA = {
    "fusion": {"msfda-uniform": [None] * 3, "msfda-mea": [["srcA", "srcB"]] * 3},
    "negative-transfer": {"msfda-uniform": [None], "msfda-mea": [["srcA", "srcB", "srcC"]],
                          "expanded-base": [["srcC"]]},
    "convergence": {"uda": [["src"]]},
}


class TestSuiteScenarios:
    @pytest.mark.parametrize("suite", SUITE_DATA)
    def test_each_run_reads_the_sources_its_scenario_shares(self, monkeypatch, tmp_path, suite):
        log = tmp_path / "received.log"
        _fake_data_trainers(monkeypatch, log)
        bench.SUITES[suite]([0])
        received = {}
        for paradigm, domains in read_lines(log):
            received.setdefault(paradigm, []).append(domains)
        assert received == SUITE_DATA[suite]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overfitting_acc_train_is_its_records_final_accuracy(self, monkeypatch, seed):
        # the last row scores the train split after the last step: the same
        # accuracy as the adapted ensemble scored afresh
        outputs, train_sfda = [], bench.train_sfda

        def keeping(model, target, cfg, eval_set=None):
            outputs.append((train_sfda(model, target, cfg, eval_set=eval_set), eval_set))
            return outputs[-1][0]

        monkeypatch.setattr(bench, "train_sfda", keeping)
        record, entry = bench._overfit_seed(seed)
        ((out, train_split),) = outputs
        rescored = _ensemble_accuracy(stack_models(out.models)[0], out.weights, train_split)
        assert entry["acc_train"] == final_accuracy(record.rows) == rescored


def _usable_cpus(monkeypatch, cpus):
    """Make `run_scenario` and the UDA trainer see `cpus` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


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


def _session(sid):
    """The pids of the processes in session `sid`."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text(encoding="ascii").rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue  # it ended while we looked
        if int(fields[3]) == sid:
            pids.append(int(stat.parent.name))
    return pids


def _dying_in_a_worker():
    """A job that ends its worker process abruptly; in the caller it only raises."""
    caller = os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() == caller:
            raise AssertionError("the job ran in the calling process")
        os._exit(1)

    return dying


# `shiftlab bench convergence --seed-list 0` on two workers, with marks for
# the test: "sfda" when its sfda run is back, "uda" when its UDA run starts,
# "uda-interrupted" when a KeyboardInterrupt ends it. Each UDA step sleeps
# 10 ms, so that run holds its worker for 20 s or more.
INTERRUPTED_BENCH = """
import os
import sys
import time
from pathlib import Path

from shiftlab import adapt, bench, cli

os.sched_getaffinity = lambda pid: {{0, 1}}
marks, run_spec, mmd_rbf_grad = Path({marks!r}), bench._run_spec, adapt.mmd_rbf_grad


def marking(spec, *args):
    if spec.paradigm == "uda":
        (marks / "uda").touch()
    try:
        record = run_spec(spec, *args)
    except KeyboardInterrupt:
        (marks / (spec.paradigm + "-interrupted")).touch()
        raise
    (marks / spec.paradigm).touch()
    return record


def slow_grad(*args):
    time.sleep(0.01)
    return mmd_rbf_grad(*args)


bench._run_spec, adapt.mmd_rbf_grad = marking, slow_grad
sys.exit(cli.main(["bench", "convergence", "--seed-list", "0", "--out", {out!r}]))
"""


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
            ScenarioSpec("tiny", paradigm, target, TINY,
                         visible=["b"] if paradigm == "expanded-base" else None)
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

    def test_each_job_builds_the_source_data_it_reads(self, monkeypatch, tmp_path):
        log = tmp_path / "builds.log"
        run = {"paradigm": None}  # in the process running a spec: its paradigm
        original, run_spec = MoonsRecipe.build, bench._run_spec

        def tagging(spec, *args):
            run["paradigm"] = spec.paradigm
            try:
                return run_spec(spec, *args)
            finally:
                run["paradigm"] = None

        def build(recipe, seed, domain_id):  # a bound method pickles by its function's name
            if domain_id != "target":
                log_line(log, (os.getpid(), run["paradigm"], domain_id))
            return original(recipe, seed, domain_id)

        monkeypatch.setattr(bench, "_run_spec", tagging)
        monkeypatch.setattr(MoonsRecipe, "build", build)
        target = MoonsRecipe(n=60, rotation=20.0)
        specs = [
            ScenarioSpec("tiny", paradigm, target, TINY,
                         visible=["b"] if paradigm == "expanded-base" else None)
            for paradigm in bench.PARADIGMS
        ]
        # per seed, None being a source training: source-only, sfda and msfda-uniform build none
        builds = [(None, "a"), (None, "b"), ("uda", "a"), ("msfda-mea", "a"),
                  ("msfda-mea", "b"), ("expanded-base", "b")] * 2
        for cpus in (2, 1):
            log.unlink(missing_ok=True)
            _usable_cpus(monkeypatch, cpus)
            run_scenario(SOURCES, specs, [0, 1])
            pids, *logged = zip(*read_lines(log))
            assert sorted(zip(*logged), key=repr) == sorted(builds, key=repr)
            if cpus == 1:
                assert set(pids) == {os.getpid()}
            else:
                assert os.getpid() not in pids

    def test_a_forking_caller_loads_no_random_generator(self):
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from shiftlab.adapt import AdaptationConfig\n"
            "from shiftlab.bench import MoonsRecipe, ScenarioSpec, run_scenario\n"
            "cfg = AdaptationConfig(iterations=5, learning_rate=0.01)\n"
            "specs = [ScenarioSpec('tiny', p, MoonsRecipe(n=60, rotation=20.0), cfg)\n"
            "         for p in ('uda', 'msfda-mea')]\n"
            "run_scenario({'a': MoonsRecipe(n=60)}, specs, [0, 1])\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = str(Path(shiftlab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_source_that_cannot_build_fails_the_first_run_reading_it(self, monkeypatch,
                                                                        cpus):
        _usable_cpus(monkeypatch, cpus)
        sources = {"a": MoonsRecipe(n=60), "bad": MoonsRecipe(n=1)}
        target = MoonsRecipe(n=60, rotation=20.0)
        # uda reads only its first source, so the sfda run is the first to read "bad"
        specs = [ScenarioSpec("tiny", paradigm, target, TINY) for paradigm in ("uda", "sfda")]
        message = r"^scenario 'tiny' \(paradigm sfda, seed 3\): need n >= 2, got 1$"
        with pytest.raises(ParameterError, match=message):
            run_scenario(sources, specs, [3, 4])
        spec = ScenarioSpec("tiny", "uda", target, TINY, visible=("bad",))
        message = r"^scenario 'tiny' \(paradigm uda, seed 3\): need n >= 2, got 1$"
        with pytest.raises(ParameterError, match=message):
            run_scenario(sources, [spec], [3, 4])
        assert multiprocessing.active_children() == []

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_ctrl_c_prints_one_line_and_leaves_no_process(self, tmp_path):
        # a real SIGINT to the process group of `shiftlab bench convergence`, once
        # its sfda run is back (that worker is idle) and its UDA run, slowed down,
        # holds the other worker and its diagnostic helper
        marks = tmp_path / "marks"
        marks.mkdir()
        script = INTERRUPTED_BENCH.format(marks=str(marks), out=str(tmp_path / "out"))
        env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not {"uda", "sfda"} <= {p.name for p in marks.iterdir()}:
                assert time.monotonic() < deadline and proc.poll() is None, proc.communicate()
                time.sleep(0.02)
            time.sleep(0.3)  # the sfda run's worker is back in its queue
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        assert (marks / "uda-interrupted").exists()  # the UDA job took the SIGINT
        assert all(_exited(pid, timeout=10.0) for pid in _session(proc.pid))

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_workers_end_with_a_killed_caller(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids.log"

        def sleeping(seed):
            log_line(pids, os.getpid())
            time.sleep(60)

        monkeypatch.setattr(bench, "_overfit_seed", sleeping)
        _usable_cpus(monkeypatch, 2)
        caller = multiprocessing.get_context("fork").Process(target=overfitting_suite, args=([0, 1],))
        caller.start()
        deadline = time.monotonic() + 30
        while len(read_lines(pids)) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        workers = read_lines(pids)
        try:
            os.kill(caller.pid, signal.SIGKILL)
            caller.join(timeout=30)
            assert caller.exitcode == -signal.SIGKILL
            assert len(workers) == 2 and caller.pid not in workers
            assert all(_exited(pid, timeout=10.0) for pid in workers)
        finally:
            for pid in workers:
                if not _exited(pid, timeout=0.1):
                    os.kill(pid, signal.SIGKILL)
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

    def test_overfitting_rejects_a_repeated_seed(self):
        with pytest.raises(ParameterError, match=r"distinct, got \[3, 3, 3\]$"):
            overfitting_suite([3, 3, 3])

    def test_overfitting_names_its_runs_sfda(self, tmp_path):
        overfitting_suite([0], tmp_path)
        assert (tmp_path / "run_sfda-_target-s0.csv").exists()
        lines = (tmp_path / "summary.report").read_text().splitlines()
        cells = [l for l in lines if l.startswith("cell ")]
        assert len(cells) == 1
        assert cells[0].startswith("cell paradigm=sfda scenario=sfda accuracy=")


def frozen_csv(row):
    """`TrajectoryRow.csv` as it was written out field by field, before the
    columns came from the row's fields, with the `mmd_full` column added."""
    acc = "" if row.acc_target is None else format(row.acc_target, ".17g")
    mmd_full = "" if row.mmd_full is None else format(row.mmd_full, ".17g")
    return ",".join(
        [
            str(row.iteration),
            format(row.loss_total, ".17g"),
            format(row.loss_ce, ".17g"),
            format(row.loss_mmd, ".17g"),
            format(row.loss_im, ".17g"),
            acc,
            mmd_full,
            format(row.ms, ".3f"),
        ]
    )


class TestTrajectoryCsv:
    def test_header_is_pinned(self):
        assert CSV_HEADER == "iteration,loss_total,loss_ce,loss_mmd,loss_im,acc_target,mmd_full,ms"

    @pytest.mark.parametrize("row", [
        TrajectoryRow(0, 0.0),
        TrajectoryRow(7, 3.0, 2.0, 1.0, 0.0, 1.0, 4.0, 0.0),
        TrajectoryRow(12, -0.0, -0.0, 1e-300, 5e-324, 0.5, -0.0, 1.0005),
        TrajectoryRow(299, 0.1 + 0.2, 1 / 3, 1e300, 2.0 ** 60, 0.123456789, 1e-300, 123.4565),
        TrajectoryRow(1999, np.float64(0.7), np.float64(-1e-300), np.float64(2.0), 0.0,
                      np.float64(0.25), np.float64(5e-324), 2.0 / 3.0),
        TrajectoryRow(20, 1.5, 0.5, 1.0, 0.0, None, 0.1 + 0.2, 0.0005),
    ], ids=["defaults", "integer-valued", "signed-zero-and-tiny", "wide", "numpy", "mmd-only"])
    def test_rows_match_the_frozen_format(self, row):
        assert row.csv() == frozen_csv(row)

    def test_a_row_reads_as_pinned(self):
        row = TrajectoryRow(3, 1.0, -0.0, 1e-300, 2.0, None, None, 1.23456)
        assert row.csv() == "3,1,-0,1e-300,2,,,1.235"
        row.acc_target, row.mmd_full = 0.5, 0.25
        assert row.csv() == "3,1,-0,1e-300,2,0.5,0.25,1.235"


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
