import threading

import numpy as np
import pytest

from shiftlab import bench
from shiftlab.adapt import AdaptationConfig
from shiftlab.bench import (
    MoonsRecipe,
    ScenarioSpec,
    emit_report,
    iterations_to_convergence,
    overfitting_suite,
    run_scenario,
)
from shiftlab.errors import ParameterError
from shiftlab.records import CSV_HEADER, ExperimentRecord, TrajectoryRow


def make_record(accs, every=10, run_id="r", scenario="s"):
    rec = ExperimentRecord(run_id=run_id, scenario=scenario)
    for j, a in enumerate(accs):
        rec.rows.append(TrajectoryRow(iteration=j * every, loss_total=0.5, acc_target=a))
    rec.summary = {"final_accuracy": rec.final_accuracy(), "paradigm": scenario}
    return rec


class TestConvergenceDetector:
    def test_constant_trajectory_converges_immediately(self):
        rec = make_record([0.8] * 100)
        assert iterations_to_convergence(rec) == 0

    def test_step_trajectory_converges_at_the_step(self):
        accs = [0.5] * 37 + [0.9] * 80
        rec = make_record(accs)
        assert iterations_to_convergence(rec) == 37 * 10

    def test_oscillating_trajectory_never_converges(self):
        accs = [0.9 if j % 2 else 0.5 for j in range(120)]
        rec = make_record(accs)
        assert iterations_to_convergence(rec) is None

    def test_short_trajectory_falls_back_to_end_stability(self):
        # fewer evaluations than the window: stability to the end suffices
        rec = make_record([0.2, 0.8, 0.8, 0.8])
        assert iterations_to_convergence(rec, window=50) == 10

    def test_window_counts_logged_evaluations(self):
        # a dip at eval 60 poisons every full 100-eval window but is invisible
        # to a 5-eval window starting at 0
        accs = [0.8] * 60 + [0.2] + [0.8] * 60
        rec = make_record(accs)
        assert iterations_to_convergence(rec, window=100) is None
        assert iterations_to_convergence(rec, window=5) == 0
        # an early dip inside the window delays convergence past it
        early = make_record([0.8, 0.2] + [0.8] * 60)
        assert iterations_to_convergence(early, window=5) == 20

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(0)
        accs = list(0.8 + 0.003 * rng.standard_normal(80))
        rec = make_record(accs)
        loose = iterations_to_convergence(rec, tolerance=0.05)
        tight = iterations_to_convergence(rec, tolerance=0.002)
        assert loose is not None
        if tight is not None:
            assert loose <= tight

    def test_rejects_bad_window_and_empty_record(self):
        rec = make_record([0.5] * 10)
        with pytest.raises(ParameterError):
            iterations_to_convergence(rec, window=0)
        empty = ExperimentRecord(run_id="x", scenario="s")
        empty.rows.append(TrajectoryRow(iteration=0, loss_total=1.0))
        with pytest.raises(ParameterError):
            iterations_to_convergence(empty)


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
    def test_source_only_smoke_and_summary_fields(self):
        spec = ScenarioSpec("tiny", "source-only", MoonsRecipe(n=80, rotation=20.0))
        (records,) = run_scenario({"a": MoonsRecipe(n=80)}, [spec], [0, 1])
        assert len(records) == 2
        for rec, seed in zip(records, [0, 1]):
            assert rec.run_id == f"tiny-source-only-s{seed}"
            assert rec.scenario == "tiny"
            assert rec.summary["paradigm"] == "source-only"
            assert rec.summary["seed"] == seed
            assert "iterations_to_convergence" in rec.summary
            assert 0.0 <= rec.final_accuracy() <= 1.0

    def test_seeds_run_in_order_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setenv("SHIFTLAB_THREADS", "5")  # once selected a thread pool
        calls = []
        train_source = bench.train_source

        def counting(ds, cfg, *args, **kwargs):
            calls.append((threading.get_ident(), cfg.seed))
            return train_source(ds, cfg, *args, **kwargs)

        monkeypatch.setattr(bench, "train_source", counting)
        spec = ScenarioSpec("tiny", "source-only", MoonsRecipe(n=60))
        (records,) = run_scenario({"a": MoonsRecipe(n=60)}, [spec], [3, 1])
        assert calls == [(threading.get_ident(), 300), (threading.get_ident(), 100)]
        assert [r.summary["seed"] for r in records] == [3, 1]

    def test_deterministic_across_calls(self):
        spec = ScenarioSpec("tiny", "sfda", MoonsRecipe(n=80, rotation=20.0))
        sources = {"a": MoonsRecipe(n=80)}
        a = run_scenario(sources, [spec], [0])[0][0]
        b = run_scenario(sources, [spec], [0])[0][0]
        assert [r.loss_total for r in a.rows] == [r.loss_total for r in b.rows]
        assert a.final_accuracy() == b.final_accuracy()

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


def _deterministic_part(record):
    return [row.csv().rsplit(",", 1)[0] for row in record.rows], record.run_id, record.summary


SOURCES = {"a": MoonsRecipe(n=60, rotation=5.0), "b": MoonsRecipe(n=60, rotation=15.0)}


class TestSourceModels:
    def test_each_source_is_trained_once_per_seed(self, monkeypatch):
        calls = []
        train_source = bench.train_source

        def counting(ds, cfg, *args, **kwargs):
            calls.append((ds.domain_id, cfg.seed))
            return train_source(ds, cfg, *args, **kwargs)

        monkeypatch.setattr(bench, "train_source", counting)
        target = MoonsRecipe(n=60, rotation=20.0)
        specs = [
            ScenarioSpec("tiny", paradigm, target, TINY)
            for paradigm in ("source-only", "uda", "msfda-uniform")
        ]
        run_scenario(SOURCES, specs, [0, 1])
        assert calls == [("a", 0), ("b", 1), ("a", 100), ("b", 101)]

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
        assert records[0].summary["paradigm"] == "uda"


class TestSharedData:
    def test_mea_scores_on_the_shared_sources_only(self, monkeypatch):
        received = []
        estimate = bench.mea.estimate

        def counting(models, datasets, *args, **kwargs):
            received.append([(d, ds.domain_id) for d, ds in datasets.items()])
            return estimate(models, datasets, *args, **kwargs)

        monkeypatch.setattr(bench.mea, "estimate", counting)
        target = MoonsRecipe(n=60, rotation=20.0)
        specs = [
            ScenarioSpec("tiny", "msfda-mea", target, TINY, shared=shared)
            for shared in (("a",), None)
        ]
        run_scenario(SOURCES, specs, [0])
        assert received == [[("a", "a")], [("a", "a"), ("b", "b")]]


class TestSuiteGuards:
    def test_overfitting_rejects_empty_seeds(self):
        with pytest.raises(ParameterError, match="need at least one seed"):
            overfitting_suite([])


class TestEmitReport:
    def _records(self, ms_offset=0.0):
        r1 = make_record([0.5, 0.7, 0.8], run_id="a-s0", scenario="sc1")
        r2 = make_record([0.6, 0.6, 0.9], run_id="b-s0", scenario="sc1")
        r2.summary["paradigm"] = "other"
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
