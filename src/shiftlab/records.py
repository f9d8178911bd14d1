"""Trajectory rows, which the trainers log, and the run records the bench harness names."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = "iteration,loss_total,loss_ce,loss_mmd,loss_im,acc_target,ms"


@dataclass
class TrajectoryRow:
    iteration: int
    loss_total: float
    loss_ce: float = 0.0
    loss_mmd: float = 0.0
    loss_im: float = 0.0
    acc_target: float | None = None
    ms: float = 0.0

    def csv(self) -> str:
        acc = "" if self.acc_target is None else format(self.acc_target, ".17g")
        return ",".join(
            [
                str(self.iteration),
                format(self.loss_total, ".17g"),
                format(self.loss_ce, ".17g"),
                format(self.loss_mmd, ".17g"),
                format(self.loss_im, ".17g"),
                acc,
                format(self.ms, ".3f"),
            ]
        )


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
