"""Experiment harness: convergence, negative-transfer, overfitting and
data-model fusion suites over synthetic two-moons domains, plus report files.

Every suite is a pure function of (spec, seeds); wall-clock milliseconds are
measured but segregated into a dedicated CSV column and never gated on.
Iteration counts are mini-batch steps.
"""

from __future__ import annotations

import functools
import pickle
import re
import signal
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .adapt import (
    AdaptationConfig,
    TrainerOutput,
    _ensemble_accuracy,
    _fork,
    _usable_cpus,
    train_expanded_base,
    train_msfda,
    train_sfda,
    train_source,
    train_uda,
)
from .datagen import Dataset, gen_two_moons, make_adversarial_source, split
from .errors import ParameterError, WorkerError
from .nn import stack_models
from .records import ExperimentRecord, TrajectoryRow, accuracies, final_accuracy, write_trajectory

REPORT_MAGIC = "#shiftlab-report v1"

PARADIGMS = ("source-only", "uda", "sfda", "msfda-uniform", "msfda-mea", "expanded-base")

DEFAULT_WINDOW = 50  # logged evaluations
DEFAULT_TOLERANCE = 0.01

# Supervised source training tolerates a hotter step size than the
# unsupervised adaptation objectives, which destabilise above ~0.01.
SOURCE_CONFIG = AdaptationConfig(learning_rate=0.05)
ADAPT_CONFIG = AdaptationConfig(learning_rate=0.01)

MOONS_NOISE = 0.1


@dataclass(frozen=True)
class MoonsRecipe:
    """Generator recipe for one two-moons domain."""

    n: int = 400
    rotation: float = 0.0
    adversarial: bool = False

    def build(self, seed: int, domain_id: str) -> Dataset:
        ds = gen_two_moons(self.n, MOONS_NOISE, self.rotation, seed=seed, domain_id=domain_id)
        if self.adversarial:
            ds = make_adversarial_source(ds, seed=seed)
        return ds


@dataclass
class ScenarioSpec:
    """One adaptation scenario over a suite's sources (see `run_scenario`)."""

    name: str
    paradigm: str
    target: MoonsRecipe
    config: AdaptationConfig = field(default_factory=AdaptationConfig)
    visible: tuple | None = None  # sources whose labeled data the run may read; None: all

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ParameterError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")
        if self.paradigm == "expanded-base" and not self.visible:
            raise ParameterError("expanded-base requires explicit visible domains")


def _check_seeds(seeds) -> None:
    """The one rule for a suite's seeds: at least one, each non-negative and distinct."""
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ParameterError(f"need at least one seed, each non-negative and distinct, "
                             f"got {list(seeds)}")


def _data_seeds(seed: int, n_sources: int):
    """Generator seeds of one suite seed: one per source domain, and the target's."""
    return [seed * 1000 + j + 1 for j in range(n_sources)], seed * 1000 + 997


def run_scenario(sources: dict, specs: list, seeds) -> list:
    """Run a suite's scenarios on its sources (domain_id -> MoonsRecipe) at every seed.

    Every job goes to one pool of forked worker processes, one per usable CPU
    (inline on one, in seed order), as `overfitting_suite`'s seeds go to
    theirs. A job gets a builder per source domain, not its data, and builds
    the datasets it reads. Each seed's source models train once, one job per
    source; each (seed, spec) run starts when its seed's models are back (uda,
    which trains its own, at once), builds its own target and adapts clones of
    them. As a job reads only its inputs, the records do not depend on the
    worker count. Returns one list of records per spec, one per seed in seed
    order, each named `<scenario>-<paradigm>-s<seed>`. The error raised is the
    first failing run's in (seed, spec) order; a failed source training (or
    build) fails the first run that uses its models.
    """
    _check_seeds(seeds)
    need_models = any(spec.paradigm != "uda" for spec in specs)
    with _pool(len(seeds) * (len(specs) + len(sources) * need_models)) as submit:
        jobs = []  # per (seed, spec): its context, and its started run or its inputs
        for seed in seeds:
            source_seeds, target_seed = _data_seeds(seed, len(sources))
            builds = {d: functools.partial(r.build, s, d)
                      for (d, r), s in zip(sources.items(), source_seeds)}
            models = [submit("_train_source", build, replace(SOURCE_CONFIG, seed=seed * 100 + j))
                      for j, build in enumerate(builds.values()) if need_models]
            for spec in specs:
                context = f"scenario {spec.name!r} (paradigm {spec.paradigm}, seed {seed})"
                if spec.paradigm == "uda":  # trains its own model, so it starts at once
                    jobs.append((context, submit("_run_spec", spec, seed, builds, [], target_seed)))
                else:
                    jobs.append((context, [spec, seed, builds, models, target_seed]))
        runs = []
        for context, job in jobs:
            try:
                if isinstance(job, list):  # starts once its seed's models are back
                    job[3] = _wait(context, lambda: [model() for model in job[3]])
                    job = submit("_run_spec", *job)
            except Exception:
                for run in runs:
                    _wait(*run)  # an earlier run's error comes first
                raise
            runs.append((context, job))
        records = [_wait(*run) for run in runs]
    return [records[i :: len(specs)] for i in range(len(specs))]


def _wait(context, result):
    """`result()`, an error it raises prefixed with `context`."""
    try:
        return result()
    except Exception as exc:
        exc.args = (f"{context}: {exc}",) + exc.args[1:] if exc.args else (context,)
        raise


def _train_source(build, cfg):
    """A source training job: builds its one dataset and trains on it; returns
    the model only, the one thing a run reads of it."""
    return train_source(build(), cfg).model


def _run_spec(spec, seed, builds, models, target_seed) -> ExperimentRecord:
    """One run of `spec` at `seed` on that seed's source models and dataset
    builders (domain_id -> builder). uda builds the first dataset of
    `spec.visible`, msfda-mea and expanded-base build all of them; the other
    paradigms build none."""
    target_eval = spec.target.build(target_seed, "target")
    target = target_eval.unlabeled()
    cfg = replace(spec.config, seed=seed)
    visible = list(spec.visible or builds)
    if spec.paradigm == "uda":  # trains its own model from the first visible source's data
        out = train_uda(builds[visible[0]](), target, cfg, eval_set=target_eval)
    elif spec.paradigm == "source-only":  # adapts nothing: the uniform ensemble
        weights = np.full(len(models), 1.0 / len(models))
        acc = _ensemble_accuracy(stack_models(models)[0], weights, target_eval)
        row = TrajectoryRow(iteration=0, loss_total=0.0, acc_target=acc)
        out = TrainerOutput(models, weights, [row])
    elif spec.paradigm == "sfda":
        out = train_sfda(models[0], target, cfg, eval_set=target_eval)
    elif spec.paradigm == "msfda-uniform":
        out = train_msfda(models, None, target, cfg, eval_set=target_eval)
    elif spec.paradigm == "msfda-mea":
        datasets = {d: builds[d]() for d in visible}
        out = train_msfda(models, datasets, target, cfg, eval_set=target_eval)
    elif spec.paradigm == "expanded-base":
        datasets = [builds[d]() for d in visible]
        out = train_expanded_base(models, None, target, datasets, "ce-only", cfg, eval_set=target_eval)
    run_id = f"{spec.name}-{spec.paradigm}-s{seed}"
    return ExperimentRecord(run_id, spec.paradigm, spec.name, out.rows, out.weights)


def _call(name, *args):
    """Module function `name` (pickled by name) on `args`."""
    return globals()[name](*args)


def _serve(jobs, results):
    """A pool worker (started by `_fork`): `_call` of each job on `jobs` until
    None, each outcome sent on `results` as `(True, result)` or `(False,
    exception)`. SIGINT raises KeyboardInterrupt inside a job only. A job is
    unpickled inside the `try`, so one that cannot be unpickled here fails as
    its own error."""
    while True:
        data = jobs.recv_bytes()
        try:
            if (job := pickle.loads(data)) is None:
                return
            signal.signal(signal.SIGINT, signal.default_int_handler)
            try:
                outcome = True, _call(*job)
            finally:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
        except BaseException as exc:  # a KeyboardInterrupt too: the caller re-raises it
            outcome = False, exc
        results.send(outcome)


@contextmanager
def _pool(n_jobs):
    """Yield `submit(name, *args)`, which queues `_call` of a job for one of
    min(n_jobs, usable CPUs) forked workers (below two: runs it inline, when its
    result is first asked for) and returns a callable waiting for its result.

    Each worker (`_serve`) is started by `_fork` with a job pipe and a result
    pipe, and takes the caller's numpy error state by fork. The caller starts no
    thread: an idle worker gets the next queued job whenever the caller submits
    or waits, and it waits on the busy workers' result pipes. A job that a dead
    worker leaves unfinished, or that is still queued, raises `WorkerError`. On
    leaving, queued jobs are dropped, running ones finish, and every worker is
    sent None and joined."""
    cpus = _usable_cpus()
    if min(n_jobs, cpus) < 2:
        yield lambda *job: functools.cache(functools.partial(_call, *job))
        return
    from multiprocessing.connection import wait

    workers = [_fork(_serve) for _ in range(min(n_jobs, cpus))]
    queued, busy = deque(), {}  # busy: result pipe -> (job pipe, outcome)
    broken = False  # a worker died
    idle = [(to_worker, from_worker) for _, to_worker, from_worker in workers]

    def dispatch():
        while queued and idle and not broken:
            job, outcome = queued.popleft()
            try:
                data = pickle.dumps(job)
            except Exception as exc:  # the job does not pickle
                outcome[:] = False, exc
                continue
            to_worker, from_worker = idle.pop()
            with suppress(OSError):  # a dead worker's result pipe reads EOF
                to_worker.send_bytes(data)
            busy[from_worker] = to_worker, outcome

    def collect():
        nonlocal broken
        for conn in wait(list(busy)):
            to_worker, outcome = busy.pop(conn)
            try:
                outcome[:] = conn.recv()
            except EOFError:
                broken = True
            idle.append((to_worker, conn))
        dispatch()

    def submit(*job):
        outcome = []
        queued.append((job, outcome))
        dispatch()

        def result():
            while not (outcome or broken):
                collect()
            if not outcome:
                what = "source training" if job[0] == "_train_source" else "run"
                raise WorkerError(f"a worker process ended abruptly before its {what} finished")
            ok, value = outcome
            if not ok:
                raise value
            return value
        return result

    try:
        yield submit
    finally:
        queued.clear()
        while busy:
            collect()
        for process, to_worker, from_worker in workers:
            with suppress(OSError):  # a dead worker reads nothing more
                to_worker.send(None)
            to_worker.close()
            from_worker.close()
            process.join()


def iterations_to_convergence(
    rows, window: int = DEFAULT_WINDOW, tolerance: float = DEFAULT_TOLERANCE
):
    """Smallest logged iteration after which accuracy stays near its final value.

    `window` counts logged evaluations. When fewer than `window` evaluations
    remain after a candidate point, stability is required through the end of
    the trajectory instead.
    """
    if window < 1:
        raise ParameterError("window must be >= 1")
    accs = accuracies(rows)
    if not accs:
        raise ParameterError("trajectory has no logged accuracies")
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

# Two sources near the target and one with permuted labels, the adversary,
# shared by the negative-transfer and fusion suites.
_MIXED_SOURCES = {
    "srcA": MoonsRecipe(rotation=5.0),
    "srcB": MoonsRecipe(rotation=15.0),
    "srcC": MoonsRecipe(rotation=10.0, adversarial=True),
}


def convergence_suite(seeds, out_dir=None) -> dict:
    """SFDA vs UDA iterations-to-convergence on 30-degree rotated moons."""
    target = MoonsRecipe(rotation=30.0)
    sfda_records, uda_records = run_scenario(
        {"src": MoonsRecipe(rotation=0.0)},
        [
            ScenarioSpec("moons30", "sfda", target, replace(ADAPT_CONFIG, iterations=300)),
            ScenarioSpec("moons30", "uda", target, replace(ADAPT_CONFIG, iterations=2000)),
        ],
        seeds,
    )

    per_seed, uda_effs = [], []  # uda_effs: each UDA run's steps to converge, or all it ran
    for s, rs, ru in zip(seeds, sfda_records, uda_records):
        sfda_conv = iterations_to_convergence(rs.rows)
        uda_conv = iterations_to_convergence(ru.rows)
        uda_effs.append(uda_conv if uda_conv is not None else len(ru.rows))
        ok = sfda_conv is not None and sfda_conv <= uda_effs[-1] / 2
        per_seed.append(
            {
                "seed": s,
                "sfda_conv": sfda_conv,
                "uda_conv": uda_conv,
                "sfda_final": final_accuracy(rs.rows),
                "uda_final": final_accuracy(ru.rows),
                "pass": ok,
            }
        )
    report = {
        "suite": "convergence",
        "per_seed": per_seed,
        "sfda_median_conv": float(np.median([p["sfda_conv"] for p in per_seed])),
        "uda_median_conv": float(np.median(uda_effs)),
        "passed": _majority(p["pass"] for p in per_seed),
    }
    if out_dir is not None:
        emit_report(sfda_records + uda_records, out_dir, suite_summary=report)
    return report


def negative_transfer_suite(seeds, out_dir=None) -> dict:
    """Adversarial-source suite: uniform MSFDA vs MEA vs expanded base."""
    target = MoonsRecipe(rotation=30.0)
    adversary = next(d for d, recipe in _MIXED_SOURCES.items() if recipe.adversarial)
    adv_index = list(_MIXED_SOURCES).index(adversary)  # its model's position
    uniform, mea_runs, expanded = run_scenario(
        _MIXED_SOURCES,
        [
            ScenarioSpec("negxfer", "msfda-uniform", target, ADAPT_CONFIG),
            ScenarioSpec("negxfer", "msfda-mea", target, ADAPT_CONFIG),
            ScenarioSpec("negxfer", "expanded-base", target, ADAPT_CONFIG, visible=(adversary,)),
        ],
        seeds,
    )

    per_seed = []
    for s, ru, rm, re_ in zip(seeds, uniform, mea_runs, expanded):
        acc_uniform, acc_mea, acc_expanded = (final_accuracy(r.rows) for r in (ru, rm, re_))
        per_seed.append(
            {
                "seed": s,
                "acc_uniform": acc_uniform,
                "acc_mea": acc_mea,
                "acc_expanded": acc_expanded,
                "weights": rm.weights.tolist(),
                "adv_is_min_weight": int(np.argmin(rm.weights)) == adv_index,
                "expanded_drop_ok": acc_expanded <= acc_uniform - 0.05,
                "mea_ge_uniform": acc_mea >= acc_uniform,
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


def overfitting_suite(seeds, out_dir=None) -> dict:
    """Adapt on 90% of a 600-point target, compare train/test accuracy gap."""
    _check_seeds(seeds)
    with _pool(len(seeds)) as submit:
        runs = [(f"seed {seed}", submit("_overfit_seed", seed)) for seed in seeds]
        records, per_seed = zip(*(_wait(*run) for run in runs))
    report = {
        "suite": "overfitting",
        "per_seed": list(per_seed),
        "gap_majority": _majority(p["gap_ok"] for p in per_seed),
        "isolation_all": all(p["isolation_ok"] for p in per_seed),
    }
    report["passed"] = report["gap_majority"] and report["isolation_all"]
    if out_dir is not None:
        emit_report(list(records), out_dir, suite_summary=report)
    return report


def _overfit_seed(seed):
    """One overfitting seed: its SFDA record and its per-seed report entry."""
    (src_seed,), tgt_seed = _data_seeds(seed, 1)
    src = MoonsRecipe(rotation=0.0).build(src_seed, "src")
    tgt = MoonsRecipe(rotation=30.0, n=600).build(tgt_seed, "target")
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
    acc_train = final_accuracy(out.rows)  # the last row scores the train split after the last step
    acc_test = _ensemble_accuracy(stack_models(out.models)[0], out.weights, te)
    gap = abs(acc_train - acc_test)
    record = ExperimentRecord(f"sfda->target-s{seed}", "sfda", "sfda", out.rows, out.weights)
    return record, dict(seed=seed, acc_train=acc_train, acc_test=acc_test, gap=gap,
                        gap_ok=gap <= 0.03, isolation_ok=isolation_ok)


def fusion_suite(seeds, out_dir=None) -> dict:
    """Table-style data-model fusion report over several target rotations."""
    rotations = (20.0, 30.0, 45.0)
    paradigms = ("source-only", "msfda-uniform", "msfda-mea")
    specs = [
        ScenarioSpec(
            f"moons{int(rot)}", paradigm, MoonsRecipe(rotation=rot), ADAPT_CONFIG,
            visible=("srcA", "srcB"),  # the adversary shares its model only
        )
        for rot in rotations
        for paradigm in paradigms
    ]
    records, accs = [], {}  # accs: (paradigm, scenario) -> list over seeds
    for spec, runs in zip(specs, run_scenario(_MIXED_SOURCES, specs, seeds)):
        records.extend(runs)
        accs[(spec.paradigm, spec.name)] = [final_accuracy(r.rows) for r in runs]

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
        write_trajectory(rec.rows, path)
        written.append(path)

    # summary matrix: paradigm rows x scenario columns (mean over seeds) + average
    cells = {}
    for rec in records:
        cells.setdefault((rec.paradigm, rec.scenario), []).append(final_accuracy(rec.rows))
    scenarios = sorted({s for _, s in cells})
    table = ["paradigm" + "".join(f"  {s:>12}" for s in scenarios) + f"  {'Avg':>12}"]
    machine = [REPORT_MAGIC, "# iterations unit: mini-batch steps"]
    for p in sorted({p for p, _ in cells}):
        row, vals = f"{p:<14}", []
        for s in scenarios:
            if (p, s) not in cells:
                row += f"  {'-':>12}"
                continue
            v = float(np.mean(cells[(p, s)]))
            row += f"  {v:>12.4f}"
            machine.append(f"cell paradigm={p} scenario={s} accuracy={format(v, '.17g')}")
            vals.append(v)
        avg = float(np.mean(vals))
        table.append(row + f"  {avg:>12.4f}")
        machine.append(f"avg paradigm={p} accuracy={format(avg, '.17g')}")
    if suite_summary is not None:
        machine.append(f"suite {suite_summary['suite']} passed={str(suite_summary['passed']).lower()}")
    for name, lines in (("summary.txt", table), ("summary.report", machine)):
        path = out / name
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        written.append(path)
    return written
