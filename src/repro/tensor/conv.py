"""Convolution and pooling primitives with hand-written backward passes.

Layout convention is NCHW throughout (matching PyTorch).  Convolution
supports standard, grouped, and depthwise convolution — the three
flavours needed by ResNet-18 / Wide-ResNet (groups=1), ResNeXt (grouped
3x3), and MobileNetV2 (depthwise).  The default backend computes the
first two with im2col+GEMM and depthwise with flat-lane taps; the
einsum contraction they are checked against lives in the test suite
(see :mod:`repro.engine.numpy_backend` for the numerical contract).

This module owns the autograd bookkeeping only; the actual kernels are
dispatched to the active execution backend (:mod:`repro.engine`), which
is captured at forward time so the backward closure runs on the same
backend that produced the forward pass.  Padded-input workspaces come
from the backend's arena and are released as soon as they can no longer
be referenced — immediately when no graph is recorded, otherwise after
the backward closure has consumed them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine import get_backend
from repro.tensor.tensor import Tensor


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0, groups: int = 1) -> Tensor:
    """2-D convolution: ``x`` (N, C, H, W) with ``weight`` (Co, C/g, kh, kw).

    Supports arbitrary ``stride``, symmetric zero ``padding``, and ``groups``
    (``groups == C`` gives depthwise convolution).  Gradients flow to ``x``,
    ``weight``, and ``bias``.
    """
    backend = get_backend()
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.data.shape
    co, cig, kh, kw = weight.data.shape
    if c % groups or co % groups:
        raise ValueError(f"channels ({c}->{co}) not divisible by groups={groups}")
    if cig != c // groups:
        raise ValueError(
            f"weight expects {cig} in-channels/group but input has {c // groups}")

    xp = backend.pad_input(x.data, ph, pw) if (ph or pw) else x.data
    out_data = backend.conv2d_forward(xp, weight.data, (sh, sw), groups)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, co, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        dxp, dw = backend.conv2d_backward(
            grad, xp, weight.data, (sh, sw), groups,
            x.requires_grad, weight.requires_grad)
        if dw is not None:
            out._send_grad(weight, dw)
        if bias is not None and bias.requires_grad:
            out._send_grad(bias, grad.sum(axis=(0, 2, 3)))
        if dxp is not None:
            if ph or pw:
                dxp = dxp[:, :, ph:ph + h, pw:pw + w]
            out._send_grad(x, dxp)
        if xp is not x.data:
            backend.arena.release(xp)

    out = Tensor._from_op(out_data, parents, backward)
    if not out.requires_grad and xp is not x.data:
        # No closure captured the padded workspace; recycle it now.
        backend.arena.release(xp)
    return out


def max_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Max pooling over (N, C, H, W); ``stride`` defaults to ``kernel_size``."""
    backend = get_backend()
    kernel = _pair(kernel_size)
    strides = _pair(stride if stride is not None else kernel_size)
    out_data, arg = backend.max_pool2d_forward(x.data, kernel, strides)

    def backward(grad: np.ndarray) -> None:
        out._send_grad(x, backend.max_pool2d_backward(
            grad, arg, x.data.shape, kernel, strides))

    out = Tensor._from_op(out_data, (x,), backward)
    return out


def avg_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Average pooling over (N, C, H, W)."""
    backend = get_backend()
    kernel = _pair(kernel_size)
    strides = _pair(stride if stride is not None else kernel_size)
    out_data = backend.avg_pool2d_forward(x.data, kernel, strides)

    def backward(grad: np.ndarray) -> None:
        out._send_grad(x, backend.avg_pool2d_backward(
            grad, x.data.shape, kernel, strides))

    out = Tensor._from_op(out_data, (x,), backward)
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Adaptive average pooling to 1x1, returned as (N, C)."""
    return x.mean(axis=(2, 3))
