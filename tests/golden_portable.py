"""The sha256 of what the four ``configs/*-desk.yaml`` runs write apart from
model accuracy, which holds on any machine.

    PYTHONPATH=src python tests/golden_portable.py

reruns the four desk configs and rewrites ``tests/golden_portable.json``.
Run it only when an output changes on purpose, and name each changed file,
and why, in CHANGES.md. ``tests/test_golden.py`` compares a fresh run
against the file, on every machine.

Event times, byte counts and rounds follow from the traces and the protocol
alone, never from a model's values; accuracies round as the BLAS kernel
sums. So the digests leave out ``accuracy.csv``'s ``accuracy`` and
``accuracy_std`` columns, and ``summary.json``'s ``final_accuracy``, each
repetition's ``targets`` and ``cross_seed``, which all follow from accuracy
crossings. ``ledger.csv`` and ``rounds.csv`` are digested whole.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

PORTABLE = Path(__file__).resolve().parent / "golden_portable.json"
ACCURACY_COLUMNS = ("accuracy", "accuracy_std")


def _without_accuracy_columns(path: Path) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in ACCURACY_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow([row[i] for i in keep])
    return out.getvalue().encode()


def _without_accuracy_keys(path: Path) -> bytes:
    summary = json.loads(path.read_text())
    del summary["cross_seed"]
    for rep in summary["reps"]:
        del rep["final_accuracy"], rep["targets"]
    return json.dumps(summary, indent=2, sort_keys=True).encode()


PORTABLE_BYTES = {"accuracy.csv": _without_accuracy_columns, "summary.json": _without_accuracy_keys}


def portable_digests(root: Path) -> dict:
    """{path relative to ``root``: sha256 of its portable bytes} of every
    file under ``root``."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(PORTABLE_BYTES.get(p.name, Path.read_bytes)(p)).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


if __name__ == "__main__":
    import tempfile

    from golden_desk import run_desk

    with tempfile.TemporaryDirectory() as tmp:
        run_desk(Path(tmp))
        files = portable_digests(Path(tmp))
    PORTABLE.write_text(json.dumps({"files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} digests to {PORTABLE}")
