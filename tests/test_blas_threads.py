"""Every byte shiftlab writes is independent of the BLAS thread count, and
the CLI runs BLAS on one thread unless one of its variables is set.

A short CLI pipeline (gen, train-source, estimate, adapt msfda and adapt
expanded ce+mmd), and a one-seed `bench` whose runs go to forked worker
processes while BLAS may hold live threads, each run in one fresh
interpreter per thread count, because BLAS reads its thread count when
numpy is first imported. Trajectory files are compared without their
wall-clock `ms` column.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftlab

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PIPELINE = [
    "gen two-moons --n 160 --seed 1 --domain a --out a.csv",
    "gen two-moons --n 160 --rotation 15 --seed 2 --domain b --out b.csv",
    "gen two-moons --n 400 --rotation 30 --seed 3 --domain t --out t.csv",
    "train-source --data a.csv --iterations 30 --seed 1 --out a.model --trajectory a-src.csv",
    "train-source --data b.csv --iterations 30 --seed 2 --out b.model --trajectory b-src.csv",
    "estimate --model a.model --model b.model --target t.csv --visible a=a.csv --visible b=b.csv"
    " --out w.weights --log w.log",
    "adapt --paradigm msfda --model a.model --model b.model --weights w.weights --target t.csv"
    " --eval-data t.csv --iterations 12 --out msfda.model --trajectory msfda.csv",
    "adapt --paradigm expanded --mode ce+mmd --model a.model --model b.model --source-data a.csv"
    " --target t.csv --eval-data t.csv --iterations 12 --out exp.model --trajectory exp.csv",
]

RUNNER = """
import sys
from shiftlab.cli import main
for argv in sys.argv[1:]:
    if main(argv.split()) != 0:
        sys.exit(f"failed: {argv}")
"""


def run_pipeline(workdir: Path, threads: int, commands=PIPELINE) -> dict:
    """Every output file of the commands, `ms` stripped, plus their stdout."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parents[1]))
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", RUNNER, *commands], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outputs = {"stdout": proc.stdout}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        text = path.read_text()
        if path.suffix == ".csv" and text.startswith("iteration,"):  # a trajectory
            text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
        outputs[str(path.relative_to(workdir))] = text
    return outputs


def test_cli_outputs_equal_at_one_and_two_blas_threads(tmp_path):
    one = run_pipeline(tmp_path / "one", 1)
    two = run_pipeline(tmp_path / "two", 2)
    assert sorted(one) == sorted(two)
    assert len(one) == 1 + 3 + 4 + 2 + 3 + 3  # stdout, then the files of each stage
    for name in one:
        assert one[name] == two[name], name


def test_bench_reports_equal_at_one_and_two_blas_threads(tmp_path):
    bench = ["bench negative-transfer --seed-list 0 --out report"]
    one = run_pipeline(tmp_path / "one", 1, bench)
    two = run_pipeline(tmp_path / "two", 2, bench)
    assert sorted(one) == sorted(two)
    assert len(one) == 1 + 3 + 2  # stdout, three runs, summary.txt and summary.report
    for name in one:
        assert one[name] == two[name], name


# OpenBLAS's thread count after `import shiftlab.cli` (None where no OpenBLAS
# symbol is found, as in perfbench's `blas_info`), then the three variables
BLAS_PROBE = """
import ctypes, json, os, sys
import shiftlab.cli

threads = None
with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if threads is None and hasattr(lib, sym):
            getattr(lib, sym).restype = ctypes.c_int
            threads = getattr(lib, sym)()
print(json.dumps([threads, {var: os.environ.get(var) for var in sys.argv[1:]}]))
"""


def import_cli(**blas_env):
    """`import shiftlab.cli` in a fresh interpreter whose only BLAS variables
    are `blas_env`: OpenBLAS's thread count, and the variables after it."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=str(Path(shiftlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, *BLAS_THREAD_VARS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc")
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise():
    threads, env = import_cli()
    assert env == dict.fromkeys(BLAS_THREAD_VARS, "1")
    if threads is None:
        pytest.skip("no OpenBLAS symbol found")
    assert threads == 1


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc")
def test_a_blas_variable_the_user_set_is_kept():
    _, env = import_cli(OMP_NUM_THREADS="3")
    assert env == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}
