"""Per-run trajectory records shared by the trainers and the bench harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass
class ExperimentRecord:
    run_id: str
    scenario: str
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def accuracies(self) -> list:
        """(iteration, accuracy) pairs for rows where accuracy was evaluated."""
        return [(r.iteration, r.acc_target) for r in self.rows if r.acc_target is not None]

    def final_accuracy(self) -> float | None:
        accs = self.accuracies()
        return accs[-1][1] if accs else None


def write_trajectory(record: ExperimentRecord, path) -> None:
    """Write a record's rows as a trajectory CSV under CSV_HEADER."""
    lines = [CSV_HEADER] + [row.csv() for row in record.rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
