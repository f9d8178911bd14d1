"""One workload run on one program seed, in a fresh process.

    python3 perfbench/workloads.py --workload NAME --program-seed N \
        --workdir DIR --result FILE [--trace] [--spans FILE]
    python3 perfbench/workloads.py --setup-only --result FILE

`run.py` starts this script once per repetition. It imports shiftlab from
`src/` of the checkout it sits in, runs the workload in DIR, times it from
the first call into the workload to its return, checks the outputs and
writes a JSON result. With --trace it also wraps the layer functions (see
tracer.py) and adds per-layer figures.

Workloads (built and tuned with workload seeds 0-29, i.e. program seeds
0-89; check later claims on workload seeds from 30 up):

- convergence: `bench.convergence_suite` as shipped. MMD in `objectives`
  dominates (64x64 gradient every UDA step, 400x400 diagnostic every 10th),
  so kernel and median-heuristic changes show here.
- fusion: `bench.fusion_suite`. No MMD at all; `nn` forward/backward/sgd and
  27 `train_source` calls for 3 distinct models per seed, so tape changes
  and source memoization show here and MMD changes must not.
- cli-pipeline: the `shiftlab` commands a user runs, in one process. The
  only workload that writes and reads every file format, goes through `cli`
  argument handling and runs the `ce+mmd` branch; each source is trained
  once and `bench` is never entered.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Clock:
    """Times a workload from its start until the program's last call returns."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.wall_s = None

    def stop(self):
        if self.wall_s is None:
            self.wall_s = time.perf_counter() - self.t0


@dataclass
class Outcome:
    ops: list  # [{"op": str, "ok": bool, "why": str}]
    files: dict  # relative path -> bytes with the ms column stripped
    target_accs: list  # final target accuracy of each adapted run
    inputs: list  # what the program was given


def strip_ms(shiftlab, data: bytes) -> bytes:
    """Drop the wall-clock `ms` column from a trajectory CSV; other files pass through."""
    lines = data.decode("ascii").split("\n")
    columns = shiftlab.records.CSV_HEADER.split(",")
    if lines[0] != shiftlab.records.CSV_HEADER:
        return data
    ms = columns.index("ms")
    return "\n".join(
        ",".join(f for i, f in enumerate(ln.split(",")) if i != ms) if ln else ln for ln in lines
    ).encode("ascii")


def read_trajectory(shiftlab, data: bytes):
    """(all losses finite, final accuracy or None) of an ms-stripped trajectory CSV."""
    lines = data.decode("ascii").splitlines()
    columns = lines[0].split(",")
    losses = [i for i, c in enumerate(columns) if c.startswith("loss_")]
    acc = columns.index("acc_target")
    finite, final = True, None
    for ln in lines[1:]:
        fields = ln.split(",")
        finite = finite and all(math.isfinite(float(fields[i])) for i in losses)
        if fields[acc]:
            final = float(fields[acc])
    return finite, final


def collect_files(shiftlab, workdir: Path) -> dict:
    return {
        str(p.relative_to(workdir)): strip_ms(shiftlab, p.read_bytes())
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }


def report_digest(files: dict, extra: list = ()) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    for item in extra:
        h.update(item.encode() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads. Each takes the program seed, an empty work directory and a
# running Clock. It stops the clock as soon as the program's last call
# returns, then checks the outputs and returns an Outcome; an exception
# escaping a suite fails all of its records.


def _suite(shiftlab, suite, seed: int, workdir: Path, clock: Clock, records: int) -> Outcome:
    inputs = [f"{suite.__name__}(seeds=[{seed}])"]
    why = ""
    try:
        suite([seed], out_dir=workdir / "report")
    except Exception:
        why = traceback.format_exc(limit=3)
    clock.stop()
    files = collect_files(shiftlab, workdir)
    if why:
        ops = [{"op": f"record{i}", "ok": False, "why": why} for i in range(records)]
        return Outcome(ops, files, [], inputs)
    ops, accs = [], []
    runs = [name for name in files if name.startswith("report/run_")]
    for name in runs:
        finite, final = read_trajectory(shiftlab, files[name])
        ok = finite and final is not None and 0.0 <= final <= 1.0
        ops.append({"op": name, "ok": ok, "why": "" if ok else "non-finite loss or no accuracy"})
        if "-source-only-" not in name and final is not None:
            accs.append(final)
    for i in range(len(runs), records):
        ops.append({"op": f"missing{i}", "ok": False, "why": "record not written"})
    return Outcome(ops, files, accs, inputs)


def convergence(shiftlab, seed: int, workdir: Path, clock: Clock) -> Outcome:
    """Per seed: 1 source model, 300 SFDA steps and 2000 UDA steps (2 records)."""
    return _suite(shiftlab, shiftlab.bench.convergence_suite, seed, workdir, clock, records=2)


def fusion(shiftlab, seed: int, workdir: Path, clock: Clock) -> Outcome:
    """Per seed: 3 target rotations x 3 paradigms (9 records)."""
    return _suite(shiftlab, shiftlab.bench.fusion_suite, seed, workdir, clock, records=9)


def cli_commands(seed: int) -> list:
    """The command lines of one cli-pipeline run; every seed comes from `seed`."""
    sources = {"srcA": 5, "srcB": 15, "srcC": 10}
    models = [f"--model={d}.model" for d in sources]
    adapt = ["--target", "target.csv", "--eval-data", "target.csv",
             "--learning-rate", "0.01", "--seed", str(seed), *models]
    cmds = []
    for j, (domain, rot) in enumerate(sources.items(), 1):
        cmds.append(["gen", "two-moons", "--rotation", str(rot), "--seed", str(seed * 1000 + j),
                     "--domain", domain, "--out", f"{domain}.csv"])
    cmds.append(["gen", "two-moons", "--rotation", "30", "--seed", str(seed * 1000 + 997),
                 "--domain", "target", "--out", "target.csv"])
    for j, domain in enumerate(sources):
        cmds.append(["train-source", "--data", f"{domain}.csv", "--out", f"{domain}.model",
                     "--trajectory", f"traj_{domain}.csv", "--seed", str(seed * 100 + j)])
    cmds.append(["estimate", *models, "--visible", "srcA=srcA.csv", "--visible", "srcB=srcB.csv",
                 "--target", "target.csv", "--out", "weights.txt", "--log", "provenance.txt"])
    cmds.append(["adapt", "--paradigm", "msfda", "--weights", "weights.txt", *adapt,
                 "--out", "msfda.model", "--trajectory", "traj_msfda.csv"])
    cmds.append(["adapt", "--paradigm", "expanded", "--mode", "ce+mmd", "--source-data", "srcA.csv",
                 *adapt, "--out", "expanded.model", "--trajectory", "traj_expanded.csv"])
    cmds.append(["verify", "dataset", "target.csv"])
    cmds.append(["verify", "model", "srcA.model"])
    cmds.append(["verify", "weights", "weights.txt"])
    return cmds


def cli_pipeline(shiftlab, seed: int, workdir: Path, clock: Clock) -> Outcome:
    """gen x4, train-source x3, estimate, adapt msfda, adapt expanded ce+mmd, verify x3."""
    cmds = cli_commands(seed)
    ops, outputs = [], []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in cmds:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = shiftlab.cli.main(argv)
                why = "" if code == 0 else f"exit {code}: {err.getvalue().strip()}"
            except (Exception, SystemExit) as exc:  # argparse exits on bad usage
                why = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            ops.append({"op": " ".join(argv[:2]), "ok": not why, "why": why})
            outputs.append(out)
        clock.stop()
    finally:
        os.chdir(cwd)
    files = collect_files(shiftlab, workdir)
    files["transcript.txt"] = "".join(
        f"$ {' '.join(argv)}\n{out.getvalue()}" for argv, out in zip(cmds, outputs)
    ).encode()
    accs = []
    for i, argv in enumerate(cmds):
        trajectories = [argv[k + 1] for k, a in enumerate(argv) if a == "--trajectory"]
        for name in trajectories:
            if name not in files:
                continue  # the command failed and is already counted
            finite, final = read_trajectory(shiftlab, files[name])
            if not finite:
                ops[i].update(ok=False, why=f"non-finite loss in {name}")
            if argv[0] == "adapt" and final is not None:
                accs.append(final)
    return Outcome(ops, files, accs, [" ".join(c) for c in cmds])


WORKLOADS = {"convergence": convergence, "fusion": fusion, "cli-pipeline": cli_pipeline}


# ---------------------------------------------------------------------------
# Tracing: span probes and the per-layer metrics derived from the spans.

TRAINERS = ("train_source", "train_uda", "train_sfda", "train_msfda", "train_expanded_base")
LOSSES = (
    "cross_entropy", "cross_entropy_probs_grad", "entropy_loss", "entropy_probs_grad",
    "diversity_loss", "diversity_probs_grad", "im_loss", "im_probs_grad",
    "softmax_probs_to_logits_grad", "msfda_loss",
)
COUNTED = (
    "nn.forward", "nn.backward", "nn.sgd_step", "objectives.KernelSpec.resolve",
    "objectives.mmd_rbf", "objectives.mmd_rbf_grad", "mea.estimate",
    "datagen.gen_two_moons", "cli.main",
)
SELF_TIMED = COUNTED + (
    "mea.parse_weights", "datagen.save_dataset", "datagen.load_dataset",
    "nn.save_model", "nn.load_model", "bench.emit_report",
)


def span_probes(shiftlab) -> dict:
    """Tags for trainer spans: iterations, and for train_source a key of its inputs."""
    config_type = shiftlab.adapt.AdaptationConfig
    dataset_type = shiftlab.datagen.Dataset

    def find(args, kwargs, kind):
        return next((a for a in (*args, *kwargs.values()) if isinstance(a, kind)), None)

    def iterations(args, kwargs):
        cfg = find(args, kwargs, config_type)
        return {"iterations": cfg.iterations if cfg else 0}

    def source_key(args, kwargs):
        ds, cfg = find(args, kwargs, dataset_type), find(args, kwargs, config_type)
        h = hashlib.sha256()
        if ds is not None:
            h.update(ds.features.tobytes())
            h.update(b"" if ds.labels is None else ds.labels.tobytes())
        h.update(repr(cfg and sorted(asdict(cfg).items())).encode())
        return {"iterations": cfg.iterations if cfg else 0, "key": h.hexdigest()}

    probes = {f"adapt.{t}": iterations for t in TRAINERS}
    probes["adapt.train_source"] = source_key
    return probes


def layer_metrics(tracer, wall_s: float) -> dict:
    """The per-layer metrics (see BENCHMARK.json) from a finished trace."""
    table = tracer.layer_table()

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "tags": []})

    m = {}
    for name in COUNTED:
        m[f"{name}.calls"] = row(name)["calls"]
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = row(name)["self_s"]
    steps = row("nn.sgd_step")["calls"]
    m["nn.forward.per_step"] = row("nn.forward")["calls"] / steps if steps else 0.0

    # A loss call is one the trainers make: its caller is not itself a loss.
    losses = {f"objectives.{n}" for n in LOSSES}
    spans = tracer.spans
    m["objectives.loss.calls"] = sum(
        1 for name, _, _, parent, _ in spans
        if name in losses and (parent < 0 or spans[parent][0] not in losses)
    )
    m["objectives.loss.self_s"] = sum(row(n)["self_s"] for n in losses)

    src = row("adapt.train_source")
    m["adapt.train_source.calls"] = src["calls"]
    m["adapt.train_source.total_s"] = src["total_s"]
    keys = {tag["key"] for tag in src["tags"]}
    m["adapt.train_source.distinct_frac"] = len(keys) / src["calls"] if src["calls"] else 0.0
    for t in TRAINERS:
        r = row(f"adapt.{t}")
        iters = sum(tag["iterations"] for tag in r["tags"])
        m[f"adapt.{t}.step_us"] = r["total_s"] / iters * 1e6 if iters else 0.0
    m["adapt.self_s"] = sum(r["self_s"] for n, r in table.items() if n.startswith("adapt."))

    scen = row("bench.run_scenario")
    m["bench.run_scenario.calls"] = scen["calls"]
    m["bench.run_scenario.total_s"] = scen["total_s"]
    m["unattributed_s"] = wall_s - sum(r["self_s"] for r in table.values())
    return m


# ---------------------------------------------------------------------------


def blas_info() -> dict:
    """BLAS library, version and the thread count it actually runs with."""
    import ctypes

    import numpy

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                info["threads"] = getattr(lib, sym)()
                return info
    return info


def import_shiftlab():
    """Import shiftlab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import shiftlab
    import shiftlab.bench  # noqa: F401  (submodules the workloads call)
    import shiftlab.cli  # noqa: F401
    import shiftlab.records  # noqa: F401  (the trajectory format the checks read)

    if Path(shiftlab.__file__).resolve().parent != src / "shiftlab":
        raise SystemExit(f"shiftlab imported from {shiftlab.__file__}, not {src}")
    return shiftlab


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--program-seed", type=int)
    p.add_argument("--workdir")
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="write the raw spans of a traced run here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    shiftlab = import_shiftlab()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"t_ready": monotonic()}))
        return 0

    import numpy

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(shiftlab, span_probes(shiftlab))
        tracer.install()

    t_ready = monotonic()
    clock = Clock()
    outcome = workload(shiftlab, args.program_seed, workdir, clock)
    wall_s = clock.wall_s

    result = {
        "t_ready": t_ready,
        "wall_s": wall_s,
        "ops": outcome.ops,
        "target_accs": outcome.target_accs,
        "report_sha256": report_digest(outcome.files),
        "inputs_sha256": report_digest({}, outcome.inputs),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": blas_info(),
            **{var: os.environ.get(var, "unset") for var in (*BLAS_THREAD_VARS, "SHIFTLAB_THREADS")},
        },
    }
    if tracer is not None:
        result["restored"] = tracer.restore()
        result["layers"] = layer_metrics(tracer, wall_s)
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
