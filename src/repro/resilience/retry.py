"""Seeded retry policy: how many attempts, how far apart, how long each.

Plain frozen data, so it pickles across a ``spawn`` boundary.  The
serial :class:`~repro.core.executor.ResilientExecutor`, the workers of
:class:`repro.parallel.ParallelExecutor` and the serve client's
reconnect loop all space their attempts with it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """How a cell's attempts are bounded, spaced, and deadlined."""

    max_retries: int = 0
    cell_timeout: float = 0.0
    backoff_base: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def attempts(self) -> int:
        return self.max_retries + 1

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seeded jittered exponential backoff before attempt+1."""
        rng = np.random.default_rng(
            (self.seed, zlib.crc32(key.encode("utf-8")), attempt))
        return self.backoff_base * (2.0 ** (attempt - 1)) \
            * float(rng.uniform(0.5, 1.5))
