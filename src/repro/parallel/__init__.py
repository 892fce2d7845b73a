"""Process-parallel sweep execution.

The study grid is embarrassingly parallel — (model, method, batch size)
cells share nothing but read-only inputs — yet the resilience layer
drives them strictly one by one.  This package scales that same
execution contract to N worker processes:

- :mod:`repro.parallel.executor` — :class:`ParallelExecutor`: partitions
  cells across ``multiprocessing`` (spawn) workers, funnels results and
  journal events through a single-writer queue (the parent is the only
  journal writer), detects crashed workers, and merges records in
  canonical grid order so parallel output is byte-equal to serial for
  deterministic cells;
- :mod:`repro.parallel.worker` — the worker-process entry point; drives
  cells through the *same* attempt loop as the serial executor
  (:func:`repro.core.executor.run_cell_attempts`) and seeds
  deterministically from each cell key;
- :mod:`repro.parallel.filelock` — advisory inter-process
  :class:`FileLock`, used by the shared pretrain-checkpoint cache so N
  workers never train the same model concurrently.

Select it from the study config (``StudyConfig.workers``) or the CLI
(``python -m repro native --workers N``); ``workers=0`` keeps the
serial :class:`~repro.core.executor.ResilientExecutor` path.
"""

from repro.parallel.filelock import FileLock, FileLockTimeout
from repro.parallel.worker import CellRunner, CellTask, seed_for_cell
from repro.parallel.executor import ParallelExecutor, WorkerCrashError

__all__ = [
    "CellRunner",
    "CellTask",
    "FileLock",
    "FileLockTimeout",
    "ParallelExecutor",
    "WorkerCrashError",
    "seed_for_cell",
]
