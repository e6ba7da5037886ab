import csv

import numpy as np
import pytest

from plexsim.metrics import (
    AccuracyPoint,
    MetricsLedger,
    RoundRecord,
    cta,
    mean_excluding_none,
    round_duration_stats,
    rta,
    tta,
)


def ledger_with(points):
    led = MetricsLedger()
    for time_s, rnd, acc, b, train_s in points:
        led.accuracy.append(AccuracyPoint(time_s, rnd, acc, 0.0, b, train_s))
    return led


STAIRCASE = ledger_with(
    [
        (10.0, 1, 0.30, 100, 1.0),
        (20.0, 2, 0.50, 200, 2.0),
        (30.0, 3, 0.45, 300, 3.0),  # dips are allowed
        (40.0, 4, 0.80, 400, 4.0),
        (50.0, 5, 0.90, 500, 5.0),
    ]
)


def test_first_crossing_no_interpolation():
    # 0.5 is hit exactly at the second point; 0.6 not until the fourth,
    # even though interpolation would place it between 20 s and 40 s.
    assert tta(STAIRCASE, 0.5) == 20.0
    assert tta(STAIRCASE, 0.6) == 40.0
    assert cta(STAIRCASE, 0.6) == 400.0
    assert rta(STAIRCASE, 0.6) == 4.0


def test_unreached_target_is_none():
    assert tta(STAIRCASE, 0.95) is None
    assert cta(STAIRCASE, 0.95) is None
    assert rta(STAIRCASE, 0.95) is None


def test_crossing_ignores_later_dips():
    # First crossing of 0.45 is at 20 s (0.50), not the later exact touch.
    assert tta(STAIRCASE, 0.45) == 20.0


def test_target_validation():
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            tta(STAIRCASE, bad)


def test_final_accuracy():
    assert STAIRCASE.final_accuracy == 0.90
    assert MetricsLedger().final_accuracy is None


def test_mean_excluding_none():
    mean, misses = mean_excluding_none([10.0, None, 20.0, None])
    assert mean == 15.0 and misses == 2
    mean, misses = mean_excluding_none([None, None])
    assert mean is None and misses == 2
    mean, misses = mean_excluding_none([7.0])
    assert mean == 7.0 and misses == 0


def test_round_duration_stats():
    durations = [1.0] * 50 + [2.0] * 45 + [10.0] * 5
    st = round_duration_stats(durations)
    assert st.count == 100
    assert st.mean == pytest.approx(np.mean(durations))
    assert st.p50 == pytest.approx(1.5)
    assert st.max == 10.0
    assert st.p95 >= 2.0
    with pytest.raises(ValueError):
        round_duration_stats([])


def test_write_csvs(tmp_path):
    led = ledger_with([(10.0, 1, 0.5, 100, 1.5), (20.0, 2, 0.75, 200, 3.25)])
    led.rounds.append(RoundRecord(1, 10.0, 13, 10, 3))
    led.rounds.append(RoundRecord(2, 10.0, 13, 10, 3))
    led.bytes_total = 250
    led.train_seconds_total = 4.0
    led.final_time_s = 25.0
    led.write_csvs(tmp_path)

    with open(tmp_path / "accuracy.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "round", "accuracy", "accuracy_std"]
    assert rows[1] == ["10.0", "1", "0.5", "0.0"]
    assert len(rows) == 3

    with open(tmp_path / "ledger.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "bytes_total", "train_seconds_total"]
    assert rows[1] == ["10.0", "100", "1.5"]
    assert rows[-1] == ["25.0", "250", "4.0"]  # final totals row

    with open(tmp_path / "rounds.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "duration_s", "participants", "models_aggregated", "late_models"]
    assert rows[1] == ["1", "10.0", "13", "10", "3"]
    assert len(rows) == 3


def test_csv_floats_roundtrip_exactly(tmp_path):
    # repr() floats must parse back to the identical double.
    value = 0.1 + 0.2  # classic non-representable sum
    led = ledger_with([(value, 1, value, 1, value)])
    led.final_time_s = value
    led.write_csvs(tmp_path)
    with open(tmp_path / "accuracy.csv") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][0]) == value
    assert float(rows[1][2]) == value
