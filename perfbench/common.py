"""Shared pieces of the benchmark: configuration, statistics, host facts.

Nothing here imports ``repro`` at import time; the workload modules do,
after :func:`import_repro` has put the checkout's ``src`` first on the
path.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: the checkout the benchmark runs in (the directory above this one)
ROOT = Path(__file__).resolve().parent.parent

#: scratch space inside the checkout (traces, temporary journals)
WORK_DIR = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, host too small)."""


def load_config() -> dict:
    """The pinned workload parameters and expected outputs."""
    with open(Path(__file__).resolve().parent / "workloads.json") as handle:
        return json.load(handle)


def import_repro():
    """Import the program from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")
    return repro


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` on the path.

    No BLAS thread variable is set or removed: oversubscription between
    OpenBLAS threads and the daemon's workers is part of what the serve
    workloads measure.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def corruption_stream(cfg: dict, frames: int, seed: int):
    """``frames`` seeded SynthCIFAR images under the configured corruption."""
    from repro.data.stream import CorruptionStream
    from repro.data.synthetic import make_synth_cifar

    data = make_synth_cifar(frames, size=cfg["image_size"], seed=seed)
    return CorruptionStream.from_dataset(data, cfg["corruption"],
                                         severity=cfg["severity"], seed=seed)


# -- statistics --------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int, ladder: Sequence[float],
                    min_beyond: int) -> float:
    """The highest ladder percentile with ``min_beyond`` samples above it.

    ``n * (100 - p) / 100 >= min_beyond``, compared in integers scaled by
    ten so 99.9 is exact.  Below the smallest qualifying sample count the
    lowest rung is used.
    """
    best = min(ladder)
    for pct in sorted(ladder):
        if n * round((100 - pct) * 10) >= min_beyond * 1000:
            best = pct
    return best


def latency_summary(values_ms: Sequence[float], ladder: Sequence[float],
                    min_beyond: int) -> Tuple[float, float, float, int]:
    """``(p50, tail value, tail percentile, n)`` of a latency sample."""
    n = len(values_ms)
    if not n:
        return math.nan, math.nan, math.nan, 0
    pct = tail_percentile(n, ladder, min_beyond)
    return percentile(values_ms, 50), percentile(values_ms, pct), pct, n


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


# -- host fingerprint --------------------------------------------------

def openblas_threads() -> Dict[str, Optional[int]]:
    """Thread count of every loaded OpenBLAS, read (never set) via ctypes."""
    counts: Dict[str, Optional[int]] = {}
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return counts
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        counts[Path(path).name] = None
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                counts[Path(path).name] = int(func())
                break
    return counts


def host_matmul_gflops(size: int = 256, repeats: int = 50,
                       rounds: int = 5) -> float:
    """Host speed reference: median GFLOP/s of a plain numpy matmul loop.

    It runs outside every timed phase and touches no code of the program,
    so when it moves with the metrics between runs, the host drifted.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, size, size), dtype=np.float32)
    np.matmul(a, b)     # BLAS threads start outside the timing
    rates = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            np.matmul(a, b)
        rates.append(2 * size ** 3 * repeats
                     / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def host_fingerprint(load_at_start: Tuple[float, float, float]) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_threads": openblas_threads(),
        "blas_env": {key: os.environ[key] for key in sorted(os.environ)
                     if key.endswith("_NUM_THREADS")},
        "loadavg_at_start": list(load_at_start),
        "matmul_gflops": round(host_matmul_gflops(), 3),
    }


def peak_rss_mb(who: int) -> float:
    """Peak resident set (MB) of this process or its reaped children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- result ------------------------------------------------------------

class Result:
    """Metrics, sample counts and failures of one run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, str]] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def fail(self, reason: str) -> None:
        """Record a failed check; it spoils one operation."""
        self.failures.append(reason)
        self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.failures

    def emit(self, names: Sequence[str], unlisted: Sequence[str],
             fingerprint: dict) -> None:
        """Print the report lines, then the one-line JSON result last.

        ``names`` are the metrics of ``BENCHMARK.json``, which alone go
        into the JSON; ``unlisted`` ones are measured and printed too.
        """
        print("host+workload: " + json.dumps(fingerprint, sort_keys=True))
        share = self.failed / self.attempted if self.attempted else 1.0
        print(f"  {'failed_share':34s} {share:<14.6g} ratio  "
              f"(failed {self.failed} of {self.attempted} attempted)")
        for name in list(names) + list(unlisted):
            value, unit, note = self.metrics[name]
            print(f"  {name:34s} {value:<14.6g} {unit:9s} {note}")
        for reason in self.failures:
            print(f"  CHECK FAILED: {reason}")
        print(json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": self.metrics[name][0],
                               "unit": self.metrics[name][1]}
                        for name in names},
        }), flush=True)


def read_line(proc, timeout: float) -> str:
    """The first stdout line of ``proc``, or BenchError after ``timeout``.

    Reads the pipe's file descriptor directly, so a child that never
    answers cannot hang the benchmark.
    """
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    data = b""
    while b"\n" not in data:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{proc.args[1:4]} printed no line in {timeout}s")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError(f"{proc.args[1:4]} exited before its first "
                                 f"line (code {proc.wait()})")
            data += chunk
    return data.split(b"\n", 1)[0].decode()


def stop(proc, timeout: float = 30.0) -> None:
    """Wait for ``proc`` to end, killing it after ``timeout``."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
