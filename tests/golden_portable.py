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

The file also holds, under ``op_logs``, the sha256 of each desk run's op
log: every model operation the simulating process logs for the replay, in
order. Batch rows follow from the streams alone, so these hold on any
machine too, and pin the model operations that the accuracies would.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from plexsim import runner

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


def _ints(*values: int) -> bytes:
    return np.array(values, dtype="<i8").tobytes()


def record_bytes(record: tuple) -> bytes:
    """The canonical bytes of an op-log record other than a drop: its kind
    and ids as little-endian int64, then an init's node as UTF-8 after its
    length (-1 for a shared init), or a training's batch rows after their
    shape. A checkpoint's ids follow their count; its point is left out, as
    ``ledger.csv`` pins it."""
    kind, out, *args = record
    if kind == runner._INIT:
        node = None if args[0] is None else args[0].encode()
        return _ints(kind, out, -1 if node is None else len(node)) + (node or b"")
    if kind == runner._TRAIN:
        model, rows = args
        return _ints(kind, out, model, *rows.shape) + rows.astype("<i8").tobytes()
    if kind == runner._SCORE:
        return _ints(kind, len(args), *args)
    return _ints(kind, out, len(args), *args)


@contextmanager
def op_log_digests() -> Iterator[list]:
    """A list that gains, for each run that ends while this is open, the
    sha256 of its op log's records, drops left out: a model's release
    follows the interpreter's reference counts, not the protocol."""
    digests: list[str] = []
    op_log = runner._op_log

    @contextmanager
    def digesting(r):
        sha = hashlib.sha256()
        with op_log(r) as log:
            send = log.send

            def hashing() -> None:
                for record in log.records:
                    if record[0] != runner._DROP:
                        sha.update(record_bytes(record))
                send()

            log.send = hashing
            yield log
        digests.append(sha.hexdigest())

    runner._op_log = digesting
    try:
        yield digests
    finally:
        runner._op_log = op_log


def run_desk_op_logs(out: Path) -> dict:
    """Run the desk configs into ``out``, as ``golden_desk.run_desk`` does,
    and return {config stem: sha256 of its one run's op log}."""
    from golden_desk import DESK_CONFIGS, run_desk

    with op_log_digests() as digests:
        run_desk(out)
    assert len(digests) == len(DESK_CONFIGS), "a desk config ran other than one repetition"
    return {cfg.stem: digest for cfg, digest in zip(DESK_CONFIGS, digests)}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        op_logs = run_desk_op_logs(Path(tmp))
        files = portable_digests(Path(tmp))
    PORTABLE.write_text(json.dumps({"files": files, "op_logs": op_logs}, indent=2) + "\n")
    print(f"wrote {len(files)} file and {len(op_logs)} op-log digests to {PORTABLE}")
