"""Run metrics and the time/communication/compute-to-accuracy
accounting used across all algorithms.

Per run, three CSV files are produced:

* ``accuracy.csv``: time_s, round, accuracy, accuracy_std
* ``ledger.csv``: time_s, bytes_total, train_seconds_total
* ``rounds.csv``: round, duration_s, participants, models_aggregated,
  late_models

Costs-to-accuracy are first crossings with no interpolation: the first
recorded evaluation at or above the target determines the time (TTA), bytes
(CTA), and cumulative training seconds (RTA). A run that never crosses the
target yields None, excluded from cross-seed averages and flagged.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class AccuracyPoint:
    time_s: float
    round: int
    accuracy: float
    accuracy_std: float
    bytes_total: int
    train_seconds_total: float


@dataclass(frozen=True)
class RoundRecord:
    round: int
    duration_s: float
    participants: int
    models_aggregated: int
    late_models: int


@dataclass
class MetricsLedger:
    accuracy: list[AccuracyPoint] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    bytes_total: int = 0
    train_seconds_total: float = 0.0
    final_time_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def final_accuracy(self) -> Optional[float]:
        return self.accuracy[-1].accuracy if self.accuracy else None

    def write_csvs(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "accuracy.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_s", "round", "accuracy", "accuracy_std"])
            for p in self.accuracy:
                w.writerow([repr(p.time_s), p.round, repr(p.accuracy), repr(p.accuracy_std)])
        with open(out / "ledger.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_s", "bytes_total", "train_seconds_total"])
            for p in self.accuracy:
                w.writerow([repr(p.time_s), p.bytes_total, repr(p.train_seconds_total)])
            w.writerow([repr(self.final_time_s), self.bytes_total, repr(self.train_seconds_total)])
        with open(out / "rounds.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["round", "duration_s", "participants", "models_aggregated", "late_models"])
            for r in self.rounds:
                w.writerow([r.round, repr(r.duration_s), r.participants, r.models_aggregated, r.late_models])


def _validate_target(target: float) -> None:
    if not (0.0 < target <= 1.0):
        raise ValueError(f"target accuracy must be in (0, 1], got {target}")


def _first_crossing(ledger: MetricsLedger, target: float) -> Optional[AccuracyPoint]:
    _validate_target(target)
    for point in ledger.accuracy:
        if point.accuracy >= target:
            return point
    return None


def tta(ledger: MetricsLedger, target: float) -> Optional[float]:
    """Virtual seconds until the first evaluation at or above ``target``."""
    p = _first_crossing(ledger, target)
    return None if p is None else p.time_s


def cta(ledger: MetricsLedger, target: float) -> Optional[float]:
    """Bytes transferred until the first evaluation at or above ``target``."""
    p = _first_crossing(ledger, target)
    return None if p is None else float(p.bytes_total)


def rta(ledger: MetricsLedger, target: float) -> Optional[float]:
    """Training seconds spent until the first evaluation at or above
    ``target``."""
    p = _first_crossing(ledger, target)
    return None if p is None else p.train_seconds_total


@dataclass(frozen=True)
class RoundStats:
    count: int
    mean: float
    p50: float
    p95: float
    max: float


def round_duration_stats(durations: list[float]) -> RoundStats:
    if not durations:
        raise ValueError("no round durations recorded")
    arr = np.asarray(durations, dtype=np.float64)
    return RoundStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        max=float(arr.max()),
    )


def mean_excluding_none(values: list[Optional[float]]) -> tuple[Optional[float], int]:
    """Arithmetic mean of the reached values and how many runs never
    reached the target."""
    reached = [v for v in values if v is not None]
    misses = len(values) - len(reached)
    if not reached:
        return None, misses
    return float(np.mean(reached)), misses
