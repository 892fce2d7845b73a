"""Adaptation-method interface and BN-layer utilities."""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro import nn
from repro.nn.module import Module


def bn_layers(model: Module) -> List[nn.BatchNorm2d]:
    """All BatchNorm2d layers of a model, in traversal order."""
    return [m for m in model.modules() if isinstance(m, nn.BatchNorm2d)]


def bn_parameters(model: Module) -> Iterator[nn.Parameter]:
    """The BN affine parameters (gamma, beta) — what BN-Opt optimizes."""
    for layer in bn_layers(model):
        yield layer.weight
        yield layer.bias


def configure_bn_only_grads(model: Module) -> int:
    """Freeze every parameter except BN gamma/beta (TENT's setup).

    Returns the number of trainable parameters left, which for the paper's
    models equals the reported "BN parameter" counts (7808 / 5408 / 25216 /
    34112).
    """
    model.requires_grad_(False)
    count = 0
    for param in bn_parameters(model):
        param.requires_grad = True
        count += param.data.size
    return count


class AdaptationMethod(abc.ABC):
    """Interface shared by No-Adapt, BN-Norm, and BN-Opt.

    Lifecycle: ``prepare(model)`` once per stream, then ``forward(x)`` per
    batch (returns logits *and* performs the method's adaptation, matching
    the paper's "forward time = inference + adaptation" metric), and
    optionally ``reset()`` to restore the pristine pre-adaptation state
    (episodic evaluation).
    """

    #: canonical name used by the study harness and device cost model
    name: str = "base"
    #: whether forward() includes a backpropagation pass (drives sim cost)
    does_backward: bool = False
    #: whether forward() re-estimates BN statistics (drives sim cost)
    adapts_bn_stats: bool = False

    def __init__(self) -> None:
        self.model: Optional[Module] = None
        self._snapshot: Optional[Dict[str, np.ndarray]] = None
        self.batches_adapted = 0

    def prepare(self, model: Module) -> "AdaptationMethod":
        """Bind to ``model``, snapshot its state, and configure modes/grads."""
        self._snapshot = model.state_dict()
        return self.bind(model)

    def bind(self, model: Module) -> "AdaptationMethod":
        """Attach to ``model`` and configure modes/grads *without* taking
        the pristine snapshot.

        For wrappers that manage model state themselves (the
        :class:`~repro.adapt.guard.GuardedAdaptation` guard switches
        ladder levels mid-stream and restores its own BN snapshots);
        ``reset()`` stays the province of whichever method was
        ``prepare``-d.  Re-binding also rebuilds per-method optimizer
        state, which is exactly what a post-rollback retry wants.
        """
        self.model = model
        self.batches_adapted = 0
        self._configure(model)
        return self

    @abc.abstractmethod
    def _configure(self, model: Module) -> None:
        """Set train/eval mode and requires_grad flags for this method."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run one streamed batch; return logits (N, num_classes)."""

    def reset(self) -> None:
        """Restore the model to its pre-adaptation state (episodic mode)."""
        if self.model is None or self._snapshot is None:
            raise RuntimeError("reset() before prepare()")
        self.model.load_state_dict(self._snapshot)
        self.batches_adapted = 0
        self._configure(self.model)

    def runtime_state(self) -> dict:
        """Mid-stream method state beyond what lives in the model.

        Everything a checkpoint needs so that a freshly ``bind()``-ed
        twin of this method, pointed at a bit-identical model, continues
        the stream bit-identically: the adapted-batch counter plus any
        optimizer moments (methods owning an ``optimizer`` attribute,
        e.g. BN-Opt's Adam).  Model parameters and BN buffers are *not*
        included — they are the model's state, checkpointed separately.
        """
        state: dict = {"batches_adapted": self.batches_adapted}
        optimizer = getattr(self, "optimizer", None)
        if optimizer is not None:
            state["optimizer"] = optimizer.state_dict()
        return state

    def load_runtime_state(self, state: dict) -> None:
        """Restore :meth:`runtime_state` output onto a bound method."""
        self.batches_adapted = int(state["batches_adapted"])
        optimizer = getattr(self, "optimizer", None)
        if optimizer is not None and state.get("optimizer") is not None:
            optimizer.load_state_dict(state["optimizer"])

    def _require_model(self) -> Module:
        if self.model is None:
            raise RuntimeError(f"{self.name}: forward() before prepare()")
        return self.model

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
