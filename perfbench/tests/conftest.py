"""Put the benchmark's modules and the checkout's program on the path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import import_repro  # noqa: E402

import_repro()
