"""adapt-stream set-up, run in a fresh interpreter so import cost counts.

Imports the program, builds the first architecture and starts its
session, then prints ``ready``.  The parent times spawn -> ``ready``.

    python3 perfbench/setup_probe.py ARCH METHOD MODEL_SEED
"""

import sys

from common import import_repro

if __name__ == "__main__":
    arch, method, model_seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    import_repro()
    from repro.models.registry import build_model
    from repro.nn import init as nn_init
    from repro.serve.session import AdaptationSession

    nn_init.seed(model_seed)
    model = build_model(arch, profile="tiny")
    model.eval()
    AdaptationSession(model, method).start()
    print("ready", flush=True)
