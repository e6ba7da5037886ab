"""One benchmark operation: a single plexsim experiment in a fresh process.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/op.py CONFIG OUT_DIR RESULT_JSON [--trace | --setup-only]

Runs ``runner.run_experiment`` on the generated config, which writes the
program's usual outputs (``rep0/*.csv`` and ``summary.json``) to OUT_DIR,
and writes the host measurements to RESULT_JSON: seconds spent in
``runner.build_world`` and ``runner.run_single`` and the process's peak
resident memory. With ``--trace`` the per-layer metrics are added. With
``--setup-only`` the process times ``runner.build_world`` alone, as a cold
first call, and writes nothing else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _timed(fn, timings: dict, key: str):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[key] = timings.get(key, 0.0) + time.perf_counter() - start

    return timed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import plexsim
    from plexsim import runner
    from plexsim.config import load_config

    src = (Path.cwd() / "src").resolve()
    if src not in Path(plexsim.__file__).resolve().parents:
        raise SystemExit(f"plexsim imported from {plexsim.__file__}, not from {src}")
    cfg = load_config(args.config)
    if args.setup_only:
        start = time.perf_counter()
        runner.build_world(cfg)
        Path(args.result).write_text(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    tracer = missing = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        missing = tracer.install()
    timings: dict[str, float] = {}
    runner.build_world = _timed(runner.build_world, timings, "setup_s")
    runner.run_single = _timed(runner.run_single, timings, "run_s")
    runner.run_experiment(cfg, args.out_dir)
    result = {
        "setup_s": timings["setup_s"],
        "run_s": timings["run_s"],
        # ru_maxrss is in KiB on Linux; MB here is 10^6 bytes.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = missing
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
