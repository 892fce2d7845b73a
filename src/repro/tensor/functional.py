"""Fused neural-network ops: batch normalization, softmax-family, losses.

Batch normalization is the centrepiece of the paper: both adaptation
algorithms act exclusively on BN state.  Two fused kernels are provided,
mirroring PyTorch's ``F.batch_norm`` in its two modes:

- :func:`batch_norm_train` — normalizes with *batch* statistics (what a
  model in ``train()`` mode does, and what BN-Norm / BN-Opt exploit at test
  time).  The backward pass propagates gradients through the batch
  statistics, which is required for BN-Opt's entropy backprop to reach
  earlier layers' affine parameters.
- :func:`batch_norm_eval` — normalizes with frozen running statistics
  (``eval()`` mode, the No-Adapt baseline); ``xhat`` is built only in
  the backward, its sole consumer.

Train mode runs its elementwise passes over each sample's ``C*H*W`` row
against per-channel lane rows and reduces channel-contiguous rows (the
batch first, then each plane).  Its backward computes ``dbeta``,
``dgamma`` and ``dx = gamma*inv_std * ((g - xhat*dgamma/m) - dbeta/m)``
in one buffer; ``tests/test_tensor/test_bn_contract.py`` bounds its
rounding against the composed float64 formula.

The entropy loss :func:`entropy_loss` implements the Shannon-entropy
objective of BN-Opt (TENT): ``H(y) = -sum_c p_c log p_c`` averaged over the
batch, computed from logits in a numerically stable way.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine import get_backend
from repro.engine.numpy_backend import channel_sum
from repro.tensor.tensor import Tensor


def batch_norm_train(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float = 1e-5,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch-norm forward using batch statistics over (N, H, W) per channel.

    Returns ``(out, batch_mean, batch_var)`` — the statistics are plain
    arrays so the caller (``BatchNorm2d``) can update its running buffers,
    exactly as PyTorch does in train mode.  ``x`` is (N, C, H, W); ``gamma``
    and ``beta`` are (C,).
    """
    data = x.data
    n, c = data.shape[:2]
    m = data.size // c
    # biased variance, matching PyTorch normalization
    mean, var = get_backend().batchnorm_stats(data)
    inv_std = 1.0 / np.sqrt(var + eps)

    def row(v: np.ndarray) -> np.ndarray:
        """Per-channel ``v`` as a lane row against ``(N, C*H*W)`` rows."""
        return np.repeat(v, m // n)

    xhat = data.reshape(n, -1) - row(mean)
    xhat *= row(inv_std)
    out_data = np.empty(data.shape, np.result_type(xhat, gamma.data, beta.data))
    out_rows = out_data.reshape(n, -1)
    np.multiply(xhat, row(gamma.data), out=out_rows)
    out_rows += row(beta.data)

    def backward(grad: np.ndarray) -> None:
        rows = grad.reshape(n, -1)
        dbeta = channel_sum(grad)
        dgamma = np.einsum("nl,nl->l", rows, xhat).reshape(c, -1).sum(axis=1)
        if gamma.requires_grad:
            out._send_grad(gamma, dgamma)
        if beta.requires_grad:
            out._send_grad(beta, dbeta)
        if x.requires_grad:
            # gamma * inv_std * ((g - xhat * dgamma/m) - dbeta/m), one buffer
            dx = np.multiply(xhat, row(dgamma / m),
                             dtype=np.result_type(grad, xhat, gamma.data))
            np.subtract(rows, dx, out=dx)
            dx -= row(dbeta / m)
            dx *= row(gamma.data * inv_std)
            out._send_grad(x, dx.reshape(grad.shape))

    out = Tensor._from_op(out_data, (x, gamma, beta), backward)
    # Unbiased variance for the running buffer, as PyTorch stores it.
    unbiased = var * (m / max(m - 1, 1))
    return out, mean, unbiased


def batch_norm_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
) -> Tensor:
    """Batch-norm forward using frozen running statistics (eval mode)."""
    inv_std = 1.0 / np.sqrt(running_var + eps)
    mean = np.array(running_mean)  # the layer updates its buffer in place
    scale = gamma.data * inv_std
    shift = beta.data - mean * scale
    out_data = x.data * scale[None, :, None, None] + shift[None, :, None, None]

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
            out._send_grad(gamma, (grad * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            out._send_grad(beta, grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            out._send_grad(x, grad * scale[None, :, None, None])

    out = Tensor._from_op(out_data, (x, gamma, beta), backward)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    softmax = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        out._send_grad(x, grad - softmax * grad.sum(axis=axis, keepdims=True))

    out = Tensor._from_op(out_data, (x,), backward)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable, via exp of log-softmax)."""
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,)."""
    targets = np.asarray(targets).astype(np.int64)
    n = logits.data.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    return -(picked.mean())


def entropy_loss(logits: Tensor) -> Tensor:
    """Mean Shannon entropy of the predicted distributions (BN-Opt objective).

    ``H(y) = -sum_c p(y_c) log p(y_c)`` computed per sample from ``logits``
    (N, C), then averaged over the batch.  Fully differentiable w.r.t. the
    logits; no labels required.
    """
    logp = log_softmax(logits, axis=-1)
    p = logp.exp()
    per_sample = -(p * logp).sum(axis=-1)
    return per_sample.mean()


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1] from raw logits and integer labels."""
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = logits.argmax(axis=-1)
    return float((predictions == np.asarray(targets)).mean())
