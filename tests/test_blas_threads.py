"""Every byte shiftlab writes is independent of the BLAS thread count.

A short CLI pipeline (gen, train-source, estimate, adapt msfda and adapt
expanded ce+mmd), and a one-seed `bench` whose runs go to forked worker
processes while BLAS may hold live threads, each run in one fresh
interpreter per thread count, because BLAS reads its thread count when
numpy is first imported. Trajectory files are compared without their
wall-clock `ms` column.
"""

import os
import subprocess
import sys
from pathlib import Path

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
