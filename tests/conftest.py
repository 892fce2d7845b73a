"""Shared fixtures for the test suite.

Heavy objects (full-size model summaries, the simulated study grid, a
briefly-trained micro model) are session-scoped so the suite stays fast.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import StudyConfig
from repro.core.runner import run_simulated_study
from repro.models.registry import MODEL_NAMES, build_model
from repro.models.summary import summarize

#: Example budget of the kernel contract tests (conv, depthwise, batch
#: norm), which take it from the active profile instead of pinning their
#: own.  ``HYPOTHESIS_PROFILE=nightly`` fuzzes them at 10x; every other
#: property test sets its own ``max_examples`` and is unaffected.
PR_EXAMPLES = 120
settings.register_profile("pr", max_examples=PR_EXAMPLES)
settings.register_profile("nightly", max_examples=10 * PR_EXAMPLES)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "pr"))


@pytest.fixture(scope="session", autouse=True)
def lockwatch_session():
    """Run the whole suite under the runtime lock-order watchdog.

    Opt-in: a no-op unless ``REPRO_LOCKWATCH=1`` (CI's lockwatch smoke
    leg sets it).  When active, every lock constructed during the
    session is instrumented; at teardown the observed-order report is
    written to ``REPRO_LOCKWATCH_REPORT`` (when set) and any recorded
    inversion fails the run.
    """
    from repro.analysis.lockwatch import (finish_watch, lockwatch_enabled,
                                          maybe_instrument)

    if not lockwatch_enabled():
        yield None
        return
    with maybe_instrument() as watch:
        yield watch
    finish_watch(watch)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def full_summaries():
    """Analytical summaries of the four full-size paper models."""
    return {name: summarize(build_model(name, "full"), name=name)
            for name in MODEL_NAMES}


@pytest.fixture(scope="session")
def simulated_study():
    """The full simulated paper grid (108 records)."""
    return run_simulated_study(StudyConfig())


@pytest.fixture(scope="session")
def micro_trained_model():
    """A very small WRN trained briefly on tiny synthetic data.

    Used by integration tests that need a model with genuinely learned
    BN statistics; kept small so the whole suite trains it in seconds.
    """
    from repro.data.synthetic import make_synth_cifar
    from repro.models.wide_resnet import wide_resnet40_2
    from repro.train.trainer import TrainConfig, Trainer

    model = wide_resnet40_2(depth=10, widen_factor=1, base=4)
    data = make_synth_cifar(1500, size=16, seed=3)
    Trainer(model, TrainConfig(epochs=8, batch_size=64, lr=0.08,
                               use_augmix=False, seed=3)).fit(data)
    return model, data
