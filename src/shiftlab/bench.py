"""Experiment harness: convergence, negative-transfer, overfitting and
data-model fusion suites over synthetic two-moons domains, plus report files.

Every suite is a pure function of (spec, seeds); wall-clock milliseconds are
measured but segregated into a dedicated CSV column and never gated on.
Iteration counts are mini-batch steps.
"""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import mea
from .adapt import (
    AdaptationConfig,
    _ensemble_accuracy,
    train_expanded_base,
    train_msfda,
    train_sfda,
    train_source,
    train_uda,
)
from .datagen import Dataset, gen_two_moons, make_adversarial_source, split
from .errors import ParameterError
from .records import ExperimentRecord, TrajectoryRow, write_trajectory

REPORT_MAGIC = "#shiftlab-report v1"

PARADIGMS = ("source-only", "uda", "sfda", "msfda-uniform", "msfda-mea", "expanded-base")

DEFAULT_WINDOW = 50  # logged evaluations
DEFAULT_TOLERANCE = 0.01
MIN_TARGET_N = 20

# Supervised source training tolerates a hotter step size than the
# unsupervised adaptation objectives, which destabilise above ~0.01.
SOURCE_CONFIG = AdaptationConfig(learning_rate=0.05)
ADAPT_CONFIG = AdaptationConfig(learning_rate=0.01)


@dataclass(frozen=True)
class MoonsRecipe:
    """Generator recipe for one two-moons domain."""

    n: int = 400
    noise: float = 0.1
    rotation: float = 0.0
    adversarial: bool = False

    def build(self, seed: int, domain_id: str) -> Dataset:
        ds = gen_two_moons(self.n, self.noise, self.rotation, seed=seed, domain_id=domain_id)
        if self.adversarial:
            ds = make_adversarial_source(ds, seed=seed)
        return ds


@dataclass
class ScenarioSpec:
    name: str
    paradigm: str
    sources: dict  # domain_id -> MoonsRecipe
    target: MoonsRecipe
    seeds: list
    config: AdaptationConfig = field(default_factory=AdaptationConfig)
    shared: tuple | None = None  # sources whose data MEA scores models on; None: all
    expanded_visible: list | None = None  # domain ids injected as visible data

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ParameterError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")
        if not self.seeds:
            raise ParameterError("need at least one seed")
        if self.paradigm == "expanded-base" and not self.expanded_visible:
            raise ParameterError("expanded-base requires expanded_visible domains")


def _data_seed(seed: int, j: int) -> int:
    """Generator seed of the j-th source domain of a scenario run."""
    return seed * 1000 + j + 1


def _build_domains(spec: ScenarioSpec, seed: int):
    datasets = {}
    for j, (domain_id, recipe) in enumerate(spec.sources.items()):
        datasets[domain_id] = recipe.build(_data_seed(seed, j), domain_id)
    target_eval = spec.target.build(seed * 1000 + 997, "target")
    return datasets, target_eval


def _train_source_models(spec: ScenarioSpec, datasets, seed: int, memo: dict):
    """Source model per domain, taken from `memo` or trained and added to it.

    A source model is a pure function of the key below, so specs that share
    a memo train each distinct source once.
    """
    models = {}
    for j, domain_id in enumerate(datasets):
        cfg = replace(SOURCE_CONFIG, seed=seed * 100 + j)
        key = (domain_id, spec.sources[domain_id], _data_seed(seed, j), astuple(cfg))
        if key not in memo:
            memo[key] = train_source(datasets[domain_id], cfg).model
        models[domain_id] = memo[key]
    return models


def _evaluation_record(run_id, scenario, models, weights, eval_set) -> ExperimentRecord:
    acc = _ensemble_accuracy(models, weights, eval_set)
    rec = ExperimentRecord(run_id=run_id, scenario=scenario)
    rec.rows.append(TrajectoryRow(iteration=0, loss_total=0.0, acc_target=acc))
    rec.summary = {"final_accuracy": acc, "iterations": 0}
    return rec


def run_scenario(spec: ScenarioSpec, source_models: dict | None = None) -> list:
    """One ExperimentRecord per seed, deterministic per seed.

    Seeds run one after another on the calling thread. `source_models` is
    an optional memo of trained source models, shared by the specs of one
    suite call so that each distinct source is trained once. The models in
    it are shared, never modified: trainers adapt clones. The records are
    the same with or without it.
    """
    memo = {} if source_models is None else source_models
    records = []
    for seed in spec.seeds:
        try:
            datasets, target_eval = _build_domains(spec, seed)
            target = target_eval.unlabeled()
            # uda trains its own model from the first source's data
            models = (
                {} if spec.paradigm == "uda"
                else _train_source_models(spec, datasets, seed, memo)
            )
            model_list = list(models.values())
            cfg = replace(spec.config, seed=seed)
            run_id = f"{spec.name}-{spec.paradigm}-s{seed}"

            if spec.paradigm == "source-only":
                weights = np.full(len(model_list), 1.0 / len(model_list))
                record = _evaluation_record(run_id, spec.name, model_list, weights, target_eval)
            elif spec.paradigm == "uda":
                first = next(iter(datasets.values()))
                record = train_uda(first, target, cfg, eval_set=target_eval).record
            elif spec.paradigm == "sfda":
                record = train_sfda(model_list[0], target, cfg, eval_set=target_eval).record
            elif spec.paradigm == "msfda-uniform":
                weights = np.full(len(model_list), 1.0 / len(model_list))
                record = train_msfda(model_list, weights, target, cfg, eval_set=target_eval).record
            elif spec.paradigm == "msfda-mea":
                shared = {d: datasets[d] for d in spec.shared or datasets}
                est, prov = mea.estimate(model_list, shared, target, spec.config.lambda_mea)
                record = train_msfda(
                    model_list, est.w_final, target, cfg, eval_set=target_eval
                ).record
                record.summary["weights"] = est.w_final.tolist()
                record.summary["provenance"] = prov
            else:  # expanded-base
                weights = np.full(len(model_list), 1.0 / len(model_list))
                visible = [datasets[d] for d in spec.expanded_visible]
                record = train_expanded_base(
                    model_list, weights, target, visible, "ce-only", cfg,
                    eval_set=target_eval,
                ).record
            record.run_id = run_id
            record.scenario = spec.name
            record.summary["paradigm"] = spec.paradigm
            record.summary["seed"] = seed
            conv = iterations_to_convergence(record)
            record.summary["iterations_to_convergence"] = conv
            record.summary["converged"] = conv is not None
            records.append(record)
        except Exception as exc:
            context = f"scenario {spec.name!r} (paradigm {spec.paradigm}, seed {seed})"
            exc.args = (f"{context}: {exc}",) + exc.args[1:] if exc.args else (context,)
            raise
    return records


def iterations_to_convergence(
    record: ExperimentRecord, window: int = DEFAULT_WINDOW, tolerance: float = DEFAULT_TOLERANCE
):
    """Smallest logged iteration after which accuracy stays near its final value.

    `window` counts logged evaluations. When fewer than `window` evaluations
    remain after a candidate point, stability is required through the end of
    the trajectory instead.
    """
    if window < 1:
        raise ParameterError("window must be >= 1")
    accs = record.accuracies()
    if not accs:
        raise ParameterError("record has no logged accuracies")
    final = accs[-1][1]
    total = len(accs)
    for idx, (iteration, _) in enumerate(accs):
        end = idx + window
        if end > total and total > window:
            break  # full window no longer fits; remaining points cannot qualify
        segment = accs[idx : min(end, total)]
        if all(abs(a - final) <= tolerance for _, a in segment):
            return iteration
    return None


def _majority(flags) -> bool:
    flags = list(flags)
    return sum(bool(f) for f in flags) > len(flags) / 2


# ---------------------------------------------------------------------------
# Suites

# Two sources near the target and one with permuted labels (srcC), shared by
# the negative-transfer and fusion suites.
_MIXED_SOURCES = {
    "srcA": MoonsRecipe(rotation=5.0),
    "srcB": MoonsRecipe(rotation=15.0),
    "srcC": MoonsRecipe(rotation=10.0, adversarial=True),
}


def convergence_suite(seeds, out_dir=None) -> dict:
    """SFDA vs UDA iterations-to-convergence on 30-degree rotated moons."""
    source = {"src": MoonsRecipe(rotation=0.0)}
    target = MoonsRecipe(rotation=30.0)
    sfda_spec = ScenarioSpec(
        "moons30", "sfda", source, target, list(seeds),
        config=replace(ADAPT_CONFIG, iterations=300),
    )
    uda_spec = ScenarioSpec(
        "moons30", "uda", source, target, list(seeds),
        config=replace(ADAPT_CONFIG, iterations=2000),
    )
    source_models = {}
    sfda_records = run_scenario(sfda_spec, source_models)
    uda_records = run_scenario(uda_spec, source_models)

    per_seed = []
    for s, rs, ru in zip(seeds, sfda_records, uda_records):
        sfda_conv = rs.summary["iterations_to_convergence"]
        uda_conv = ru.summary["iterations_to_convergence"]
        uda_eff = uda_conv if uda_conv is not None else ru.summary["iterations"]
        ok = sfda_conv is not None and sfda_conv <= uda_eff / 2
        per_seed.append(
            {
                "seed": s,
                "sfda_conv": sfda_conv,
                "uda_conv": uda_conv,
                "sfda_final": rs.final_accuracy(),
                "uda_final": ru.final_accuracy(),
                "pass": ok,
            }
        )
    report = {
        "suite": "convergence",
        "per_seed": per_seed,
        "sfda_median_conv": float(np.median([p["sfda_conv"] for p in per_seed])),
        "uda_median_conv": float(np.median(
            [p["uda_conv"] if p["uda_conv"] is not None else 2000 for p in per_seed]
        )),
        "passed": _majority(p["pass"] for p in per_seed),
    }
    if out_dir is not None:
        emit_report(sfda_records + uda_records, out_dir, suite_summary=report)
    return report


def negative_transfer_suite(seeds, out_dir=None) -> dict:
    """Adversarial-source suite: uniform MSFDA vs MEA vs expanded base."""
    common = dict(
        sources=_MIXED_SOURCES, target=MoonsRecipe(rotation=30.0), seeds=list(seeds),
        config=ADAPT_CONFIG,
    )
    source_models = {}
    uniform = run_scenario(ScenarioSpec("negxfer", "msfda-uniform", **common), source_models)
    mea_runs = run_scenario(ScenarioSpec("negxfer", "msfda-mea", **common), source_models)
    expanded = run_scenario(
        ScenarioSpec("negxfer", "expanded-base", expanded_visible=["srcC"], **common),
        source_models,
    )
    adv_index = 2  # srcC is the third model

    per_seed = []
    for s, ru, rm, re_ in zip(seeds, uniform, mea_runs, expanded):
        w = rm.summary["weights"]
        per_seed.append(
            {
                "seed": s,
                "acc_uniform": ru.final_accuracy(),
                "acc_mea": rm.final_accuracy(),
                "acc_expanded": re_.final_accuracy(),
                "weights": w,
                "adv_is_min_weight": int(np.argmin(w)) == adv_index,
                "expanded_drop_ok": re_.final_accuracy() <= ru.final_accuracy() - 0.05,
                "mea_ge_uniform": rm.final_accuracy() >= ru.final_accuracy(),
            }
        )
    report = {
        "suite": "negative-transfer",
        "per_seed": per_seed,
        "expanded_drop_majority": _majority(p["expanded_drop_ok"] for p in per_seed),
        "mea_ge_uniform_majority": _majority(p["mea_ge_uniform"] for p in per_seed),
        "adv_min_weight_all": all(p["adv_is_min_weight"] for p in per_seed),
    }
    report["passed"] = (
        report["expanded_drop_majority"]
        and report["mea_ge_uniform_majority"]
        and report["adv_min_weight_all"]
    )
    if out_dir is not None:
        emit_report(uniform + mea_runs + expanded, out_dir, suite_summary=report)
    return report


def overfitting_suite(seeds, out_dir=None, target_n: int = 600) -> dict:
    """Adapt on 90% of the target, compare train/test accuracy gap."""
    if not seeds:
        raise ParameterError("need at least one seed")
    if target_n < MIN_TARGET_N:
        raise ParameterError(f"target too small for a 9:1 split audit: n={target_n} < {MIN_TARGET_N}")
    source = MoonsRecipe(rotation=0.0)
    target = MoonsRecipe(rotation=30.0, n=target_n)

    per_seed, records = [], []
    for seed in seeds:
        src = source.build(seed * 1000 + 1, "src")
        tgt = target.build(seed * 1000 + 997, "target")
        tr, te = split(tgt, 0.9, seed=seed)
        # isolation audit: portions are disjoint and cover the target exactly
        merged = np.vstack([tr.features, te.features])
        isolation_ok = bool(
            np.array_equal(
                np.sort(merged.view([("", merged.dtype)] * merged.shape[1]), axis=0),
                np.sort(tgt.features.view([("", tgt.features.dtype)] * tgt.features.shape[1]), axis=0),
            )
        ) and tr.n + te.n == tgt.n
        cfg = replace(ADAPT_CONFIG, seed=seed)
        src_model = train_source(src, replace(SOURCE_CONFIG, seed=seed)).model
        out = train_sfda(src_model, tr.unlabeled(), cfg, eval_set=tr)
        acc_train = _ensemble_accuracy(out.models, out.weights, tr)
        acc_test = _ensemble_accuracy(out.models, out.weights, te)
        gap = abs(acc_train - acc_test)
        records.append(out.record)
        per_seed.append(
            {
                "seed": seed,
                "acc_train": acc_train,
                "acc_test": acc_test,
                "gap": gap,
                "gap_ok": gap <= 0.03,
                "isolation_ok": isolation_ok,
            }
        )

    report = {
        "suite": "overfitting",
        "per_seed": per_seed,
        "gap_majority": _majority(p["gap_ok"] for p in per_seed),
        "isolation_all": all(p["isolation_ok"] for p in per_seed),
    }
    report["passed"] = report["gap_majority"] and report["isolation_all"]
    if out_dir is not None:
        emit_report(records, out_dir, suite_summary=report)
    return report


def fusion_suite(seeds, out_dir=None) -> dict:
    """Table-style data-model fusion report over several target rotations."""
    rotations = (20.0, 30.0, 45.0)
    paradigms = ("source-only", "msfda-uniform", "msfda-mea")
    records = []
    accs = {}  # (paradigm, scenario) -> list over seeds
    source_models = {}
    for rot in rotations:
        name = f"moons{int(rot)}"
        for paradigm in paradigms:
            spec = ScenarioSpec(
                name, paradigm, _MIXED_SOURCES, MoonsRecipe(rotation=rot), list(seeds),
                config=ADAPT_CONFIG, shared=("srcA", "srcB"),  # srcC shares its model only
            )
            runs = run_scenario(spec, source_models)
            records.extend(runs)
            accs[(paradigm, name)] = [r.final_accuracy() for r in runs]

    per_seed = []
    for i, s in enumerate(seeds):
        avg_uniform = float(np.mean([accs[("msfda-uniform", f"moons{int(r)}")][i] for r in rotations]))
        avg_mea = float(np.mean([accs[("msfda-mea", f"moons{int(r)}")][i] for r in rotations]))
        per_seed.append(
            {
                "seed": s,
                "avg_uniform": avg_uniform,
                "avg_mea": avg_mea,
                "mea_ge_uniform": avg_mea >= avg_uniform,
            }
        )
    report = {
        "suite": "fusion",
        "per_seed": per_seed,
        "table": {f"{p}|{sc}": float(np.mean(v)) for (p, sc), v in accs.items()},
        "passed": _majority(p["mea_ge_uniform"] for p in per_seed),
    }
    if out_dir is not None:
        emit_report(records, out_dir, suite_summary=report)
    return report


SUITES = {
    "convergence": convergence_suite,
    "negative-transfer": negative_transfer_suite,
    "overfitting": overfitting_suite,
    "fusion": fusion_suite,
}


# ---------------------------------------------------------------------------
# Reports


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def emit_report(records: list, out_dir, suite_summary: dict | None = None) -> list:
    """Write per-run trajectory CSVs plus a summary table and machine file.

    Output bytes are a pure function of the records (wall-clock values live
    only in the per-run `ms` CSV column). Returns the written paths.
    """
    if not records:
        raise ParameterError("no records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for rec in records:
        path = out / f"run_{_safe_name(rec.run_id)}.csv"
        write_trajectory(rec, path)
        written.append(path)

    # summary matrix: paradigm rows x scenario columns (mean over seeds) + average
    cells = {}
    for rec in records:
        key = (rec.summary.get("paradigm", rec.scenario), rec.scenario)
        cells.setdefault(key, []).append(rec.final_accuracy())
    paradigms = sorted({p for p, _ in cells})
    scenarios = sorted({s for _, s in cells})
    matrix = {
        p: {s: float(np.mean(cells[(p, s)])) for s in scenarios if (p, s) in cells}
        for p in paradigms
    }

    table_lines = ["paradigm" + "".join(f"  {s:>12}" for s in scenarios) + f"  {'Avg':>12}"]
    for p in paradigms:
        row = [f"{p:<14}"]
        vals = []
        for s in scenarios:
            v = matrix[p].get(s)
            row.append(f"  {v:>12.4f}" if v is not None else f"  {'-':>12}")
            if v is not None:
                vals.append(v)
        row.append(f"  {np.mean(vals):>12.4f}")
        table_lines.append("".join(row))
    summary_txt = out / "summary.txt"
    summary_txt.write_text("\n".join(table_lines) + "\n", encoding="ascii")
    written.append(summary_txt)

    machine = [REPORT_MAGIC, "# iterations unit: mini-batch steps"]
    for p in paradigms:
        vals = []
        for s in scenarios:
            v = matrix[p].get(s)
            if v is None:
                continue
            machine.append(f"cell paradigm={p} scenario={s} accuracy={format(v, '.17g')}")
            vals.append(v)
        machine.append(f"avg paradigm={p} accuracy={format(float(np.mean(vals)), '.17g')}")
    if suite_summary is not None:
        machine.append(f"suite {suite_summary['suite']} passed={str(suite_summary['passed']).lower()}")
    summary_report = out / "summary.report"
    summary_report.write_text("\n".join(machine) + "\n", encoding="ascii")
    written.append(summary_report)
    return written
