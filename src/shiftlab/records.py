"""Trajectory rows, which the trainers log, and the run records the bench harness names."""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


@dataclass(slots=True)  # no per-row __dict__: a run logs a row per step
class TrajectoryRow:
    """One trainer step; its fields, in order, are the trajectory CSV's columns.

    The losses are the step's batch estimates. `acc_target` is set on the
    evaluating steps when there is an eval set, and `mmd_full` on UDA's
    evaluating steps at `lambda_uda > 0`: the full-dataset MMD of the model
    as the step left it. Both are None, an empty CSV field, elsewhere.
    """

    iteration: int
    loss_total: float
    loss_ce: float = 0.0
    loss_mmd: float = 0.0
    loss_im: float = 0.0
    acc_target: float | None = None
    mmd_full: float | None = None
    ms: float = 0.0

    def csv(self) -> str:
        """The row's CSV line: None as empty, `ms` to the microsecond, the rest exact."""
        *exact, ms = _csv_columns(self)
        return ",".join(["" if v is None else format(v, ".17g") for v in exact] + [format(ms, ".3f")])


CSV_HEADER = ",".join(f.name for f in fields(TrajectoryRow))
_csv_columns = operator.attrgetter(*CSV_HEADER.split(","))


@dataclass(frozen=True)
class ExperimentRecord:
    """One harness run: its name, what ran where, its trajectory and its ensemble weights."""

    run_id: str
    paradigm: str
    scenario: str
    rows: list
    weights: np.ndarray


def accuracies(rows) -> list:
    """(iteration, accuracy) pairs for rows where accuracy was evaluated."""
    return [(r.iteration, r.acc_target) for r in rows if r.acc_target is not None]


def final_accuracy(rows) -> float | None:
    accs = accuracies(rows)
    return accs[-1][1] if accs else None


def write_trajectory(rows, path) -> None:
    """Write trajectory rows as a CSV under CSV_HEADER."""
    lines = [CSV_HEADER] + [row.csv() for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
