"""shiftlab benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload {convergence,fusion,cli-pipeline,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a shiftlab checkout; shiftlab is imported from its
`src/`. The workload seed N selects the program seeds 3N, 3N+1 and 3N+2.
Each repetition is a fresh process (`workloads.py`) running the workload on
one program seed, with SHIFTLAB_THREADS unset and BLAS pinned to one thread.
Repetitions cycle through the program seeds until S seconds have passed and
every seed ran twice (--trace 0), or once untraced and once traced
(--trace 1).

--trace 0 reports the end-to-end metrics:
  wall_s       workload time of one program seed (median over its
               repetitions), averaged over the program seeds
  setup_s      process start to the first call into the workload, median
               over all repetitions
  cpu_s        user + system CPU of the repetition process and its children,
               same averaging as wall_s
  peak_rss_mb  peak resident memory of the repetition process and its
               children, same averaging as wall_s
  target_acc   mean final target accuracy of the adapted runs
--trace 1 reports the per-layer metrics of the traced repetitions (medians
over them), the tracing overhead against the untraced repetitions, and
checks that tracing left every result and every wrapped name unchanged.

An operation is one suite record or one CLI command. It fails if it raises,
exits non-zero, logs a non-finite loss, or if its repetition's report (all
output files, `ms` column stripped) differs from another repetition of the
same program seed. The last stdout line is the JSON result; the lines
before it give the environment, per-seed report digests and every metric
with its unit, failed_frac included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import BLAS_THREAD_VARS, WORKLOADS, monotonic  # noqa: E402

RUN_LIMIT_S = 170.0  # no repetition runs past this many seconds after the start
SEEDS_PER_RUN = 3  # workload seed N selects program seeds 3N .. 3N+2

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "target_acc": "ratio",
}


def per_layer_units(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SHIFTLAB_THREADS", None)  # the program keeps its default: one worker
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list, workdir: Path, deadline: float) -> dict:
    """Run workloads.py in a fresh process, killed at `deadline`; returns its result plus rusage."""
    result_path = workdir / "result.json"
    log_path = workdir / "child.log"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--result", str(result_path), *args]
    with open(log_path, "wb") as log:
        t_spawn = monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        return {"error": f"child exited {proc.returncode}: {tail}"}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["t_ready"] - t_spawn
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return result


def seed_mean_of_medians(reps: list, key: str) -> float:
    by_seed: dict = {}
    for rep in reps:
        by_seed.setdefault(rep["program_seed"], []).append(rep[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def measure(workload: str, args) -> int:
    """Repeat one workload for args.seconds and print its result."""
    k = SEEDS_PER_RUN
    program_seeds = [args.seed * k + j for j in range(k)]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    start = monotonic()

    def child(extra: list) -> dict:
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        (workdir / "run").mkdir()
        try:
            return run_child([*extra, "--workdir", str(workdir / "run")], workdir,
                             start + RUN_LIMIT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    # Warm-up: compiles bytecode and loads libraries before anything is timed.
    warm = child(["--setup-only"])
    if "error" in warm:
        print(f"error: {warm['error']}", file=sys.stderr)
        return 2

    reps = []
    traced_modes = (False, True) if args.trace else (False,)
    min_cycles = 1 if args.trace else 2
    i = 0
    while True:
        elapsed = monotonic() - start
        done_min = i >= min_cycles * k
        if done_min and elapsed >= args.seconds:
            break
        longest = max((r.get("wall_s", 0.0) + r.get("setup_s", 0.0) for r in reps), default=0.0)
        if done_min and elapsed + 2 * longest > RUN_LIMIT_S:
            break
        seed = program_seeds[i % k]
        for traced in traced_modes:
            extra = ["--workload", workload, "--program-seed", str(seed)]
            if traced:
                extra += ["--trace", "--spans", str(scratch / f"spans-{workload}.tsv")]
            reps.append({**child(extra), "program_seed": seed, "traced": traced})
        i += 1
    return report(workload, args, program_seeds, reps)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "shiftlab" / "__init__.py").is_file():
        print(f"error: no shiftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(measure(w, args) for w in workloads)


def report(workload: str, args, program_seeds: list, reps: list) -> int:
    attempted = failed = 0
    correct = True
    digests: dict = {}
    for rep in reps:
        if "error" in rep:  # counted as one failed operation
            print(f"# failed repetition seed={rep['program_seed']}: {rep['error']}", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        digests.setdefault(rep["program_seed"], rep["report_sha256"])
        same = rep["report_sha256"] == digests[rep["program_seed"]]
        for op in rep["ops"]:
            attempted += 1
            if not (op["ok"] and same):
                failed += 1
                why = op["why"] or "report differs between repetitions of one seed"
                print(f"# failed op seed={rep['program_seed']} {op['op']}: {why}", file=sys.stderr)
        if rep["traced"] and not rep["restored"]:
            print("# tracer left a wrapped name behind", file=sys.stderr)
            correct = False
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no repetition produced a result", file=sys.stderr)
        return 1
    correct = correct and failed == 0

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), **good[0]["env"]}
    print(f"# workload={workload} seed={args.seed} program_seeds={program_seeds} "
          f"trace={args.trace} seconds={args.seconds} repetitions={len(reps)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for seed in program_seeds:
        inputs = {r["inputs_sha256"] for r in good if r["program_seed"] == seed}
        print(f"# report_sha256 workload={workload} program_seed={seed} "
              f"sha256={digests.get(seed, 'missing')} inputs_sha256={','.join(sorted(inputs))}")

    first = {}
    for r in plain:
        first.setdefault(r["program_seed"], r)
    accs = [a for r in first.values() for a in r["target_accs"]]
    e2e = {
        "wall_s": seed_mean_of_medians(plain, "wall_s"),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "cpu_s": seed_mean_of_medians(plain, "cpu_s"),
        "peak_rss_mb": seed_mean_of_medians(plain, "peak_rss_mb"),
        "target_acc": statistics.fmean(accs) if accs else 0.0,
    }
    for name, value in e2e.items():
        print(f"# metric {name}={value!r} {END_TO_END[name]}")
    print(f"# metric failed_frac={failed / attempted!r} ratio ({failed}/{attempted} operations)")
    metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}
    if args.trace:
        layers = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            # a count that repeats exactly is reported as counted, not as a float median
            layers[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        # repetitions alternate untraced, traced on the same program seed
        pairs = [(u["wall_s"], t["wall_s"]) for u, t in zip(reps[::2], reps[1::2])
                 if "error" not in u and "error" not in t]
        layers["trace_overhead_frac"] = statistics.median(t / u - 1.0 for u, t in pairs)
        for name, value in layers.items():
            print(f"# layer {name}={value!r} {per_layer_units(name)}")
        metrics = {n: {"value": v, "unit": per_layer_units(n)} for n, v in layers.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
