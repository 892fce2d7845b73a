"""The repository benchmark: three workloads, measured from outside.

    python3 perfbench/run.py --workload adapt-stream --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics and writes the run's spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.  The last line of
standard output is the JSON result; the exit code is non-zero when any
output check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from common import (ROOT, WORK_DIR, BenchError, Result, host_fingerprint,
                    import_repro, load_config)

WORKLOADS = ("adapt-stream", "serve-steady", "serve-durable")


def metric_names(trace: bool):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return [metric["name"]
            for metric in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    names = metric_names(bool(args.trace))
    cfg = load_config()
    import_repro()
    import adapt_stream
    import serve_load
    from spans import Tracer

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    result = Result()
    tracer = Tracer()
    try:
        if args.workload == "adapt-stream":
            info = adapt_stream.run(cfg, args.seed, args.seconds,
                                    bool(args.trace), result, tracer, workdir)
        else:
            info = serve_load.run(args.workload, cfg, args.seed, args.seconds,
                                  bool(args.trace), result, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        info["trace_file"] = str(path.relative_to(ROOT))
        info["spans"] = len(tracer.spans)
    missing = [name for name in names if name not in result.metrics]
    if missing:
        raise BenchError(f"{args.workload} measured no {missing}")
    # serve-steady's open-loop metrics are not in BENCHMARK.json
    unlisted = [] if args.trace else \
        [name for name in result.metrics if name not in names]
    result.emit(names, unlisted,
                {"host": host_fingerprint(load_at_start),
                 "workload": dict(info, name=args.workload,
                                  seconds=args.seconds, trace=args.trace)})
    return 0 if result.correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
