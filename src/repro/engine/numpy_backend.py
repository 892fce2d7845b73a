"""Reference backend: single-threaded numpy with workspace reuse.

Convolution runs as im2col+GEMM for standard and grouped convs: the
strided im2col view is copied once into ``(N, g, cig*kh*kw, Ho*Wo)``
columns, and the forward pass, the input gradient (GEMM against the
transposed weight, then col2im) and the weight gradient are batched
``np.matmul`` calls over them.  Depthwise convs (one input and one output
channel per group) skip the columns and run a kh*kw loop of strided
multiply-adds.

Numerics: the summation order is BLAS's (or the tap order), not an
einsum contraction's.  ``tests/test_engine/test_conv_oracle.py`` keeps an
einsum kernel as the oracle and holds every output and gradient to the
worst-case rounding bound of its reduction length,
``gamma_n * sum|terms|``, in float64 and float32.  Results are
deterministic run to run, and the forward output and input gradient of
one sample never depend on the rest of the batch (ThreadedBackend relies
on this for bit-identity).

Short-lived workspaces (the im2col columns, the column gradient consumed
by col2im, the padded-input copy, the depthwise product buffer) are drawn
from the backend's :class:`~repro.engine.arena.WorkspaceArena` instead of
being reallocated on every call.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.engine.base import Backend


def im2col_view(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Zero-copy strided view of shape (N, C, kh, kw, Ho, Wo) over ``x``."""
    n, c, h, w = x.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    sn, sc, sh_, sw_ = x.strides
    shape = (n, c, kh, kw, ho, wo)
    strides = (sn, sc, sh_, sw_, sh_ * sh, sw_ * sw)
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def col2im(cols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
           sh: int, sw: int) -> np.ndarray:
    """Scatter-add a (N, C, kh, kw, Ho, Wo) gradient back to input shape."""
    ho = cols.shape[-2]
    wo = cols.shape[-1]
    dx = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        h_stop = i + sh * ho
        for j in range(kw):
            w_stop = j + sw * wo
            dx[:, :, i:h_stop:sh, j:w_stop:sw] += cols[:, :, i, j]
    return dx


def _is_depthwise(c: int, co: int, groups: int) -> bool:
    """One input and one output channel per group (MobileNetV2's 3x3s)."""
    return groups > 1 and groups == c == co


def _taps(kh: int, kw: int, sh: int, sw: int, ho: int, wo: int):
    """Yield ``(i, j, window)``: the padded-input slice each tap reads."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, (slice(None), slice(None),
                         slice(i, i + sh * (ho - 1) + 1, sh),
                         slice(j, j + sw * (wo - 1) + 1, sw))


class NumpyBackend(Backend):
    """The default backend: im2col+GEMM and depthwise tap-loop kernels."""

    name = "numpy"

    # -- convolution ---------------------------------------------------
    def _columns(self, xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                 groups: int) -> np.ndarray:
        """im2col columns ``(N, g, cig*kh*kw, Ho*Wo)`` in an arena buffer.

        The caller releases the buffer once its GEMMs have consumed it.
        """
        view = im2col_view(xp, kh, kw, sh, sw)
        n, c, _, _, ho, wo = view.shape
        cols = self.arena.acquire(
            (n, groups, c // groups * kh * kw, ho * wo), xp.dtype)
        np.copyto(cols.reshape(view.shape), view)
        return cols

    def conv2d_forward(self, xp: np.ndarray, weight: np.ndarray,
                       stride: Tuple[int, int], groups: int) -> np.ndarray:
        sh, sw = stride
        n, c, h, w = xp.shape
        co, cig, kh, kw = weight.shape
        ho = (h - kh) // sh + 1
        wo = (w - kw) // sw + 1
        if _is_depthwise(c, co, groups):
            return self._depthwise_forward(xp, weight, sh, sw, ho, wo)
        cols = self._columns(xp, kh, kw, sh, sw, groups)
        # (g, cog, K) @ (N, g, K, Ho*Wo) -> (N, g, cog, Ho*Wo): already NCHW
        out = np.matmul(weight.reshape(groups, co // groups, -1), cols)
        self.arena.release(cols)
        return out.reshape(n, co, ho, wo)

    def conv2d_backward(self, grad: np.ndarray, xp: np.ndarray,
                        weight: np.ndarray, stride: Tuple[int, int],
                        groups: int, need_input_grad: bool,
                        need_weight_grad: bool
                        ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        sh, sw = stride
        n, c = xp.shape[:2]
        co, cig, kh, kw = weight.shape
        ho, wo = grad.shape[-2:]
        if _is_depthwise(c, co, groups):
            return self._depthwise_backward(grad, xp, weight, sh, sw,
                                            need_input_grad, need_weight_grad)
        cog = co // groups
        gg = grad.reshape(n, groups, cog, ho * wo)
        wg = weight.reshape(groups, cog, cig * kh * kw)
        dw = dxp = None
        if need_weight_grad:
            cols = self._columns(xp, kh, kw, sh, sw, groups)
            # per-sample (cog, Ho*Wo) @ (Ho*Wo, K), summed over the batch
            dw = np.matmul(gg, cols.transpose(0, 1, 3, 2)).sum(axis=0)
            dw = dw.reshape(co, cig, kh, kw)
            self.arena.release(cols)
        if need_input_grad:
            dcols = self.arena.acquire((n, groups, cig * kh * kw, ho * wo),
                                       grad.dtype)
            np.matmul(wg.transpose(0, 2, 1), gg, out=dcols)
            dxp = col2im(dcols.reshape(n, c, kh, kw, ho, wo), xp.shape,
                         kh, kw, sh, sw)
            self.arena.release(dcols)
        return dxp, dw

    def _depthwise_forward(self, xp: np.ndarray, weight: np.ndarray,
                           sh: int, sw: int, ho: int, wo: int) -> np.ndarray:
        """Sum over taps of ``weight[:, 0, i, j]`` times the tap's window."""
        n, c = xp.shape[:2]
        kh, kw = weight.shape[-2:]
        out = np.empty((n, c, ho, wo), dtype=np.result_type(xp, weight))
        tmp = self.arena.acquire(out.shape, out.dtype)
        for i, j, window in _taps(kh, kw, sh, sw, ho, wo):
            scale = weight[:, 0, i, j].reshape(1, c, 1, 1)
            if i == 0 and j == 0:
                np.multiply(xp[window], scale, out=out)
            else:
                np.multiply(xp[window], scale, out=tmp)
                out += tmp
        self.arena.release(tmp)
        return out

    def _depthwise_backward(self, grad: np.ndarray, xp: np.ndarray,
                            weight: np.ndarray, sh: int, sw: int,
                            need_input_grad: bool, need_weight_grad: bool
                            ) -> Tuple[Optional[np.ndarray],
                                       Optional[np.ndarray]]:
        c = xp.shape[1]
        kh, kw = weight.shape[-2:]
        ho, wo = grad.shape[-2:]
        dxp = np.zeros(xp.shape, dtype=grad.dtype) if need_input_grad else None
        dw = (np.empty(weight.shape, dtype=grad.dtype)
              if need_weight_grad else None)
        tmp = self.arena.acquire(grad.shape, grad.dtype)
        for i, j, window in _taps(kh, kw, sh, sw, ho, wo):
            if dw is not None:
                np.multiply(grad, xp[window], out=tmp)
                dw[:, 0, i, j] = tmp.sum(axis=(0, 2, 3))
            if dxp is not None:
                np.multiply(grad, weight[:, 0, i, j].reshape(1, c, 1, 1),
                            out=tmp)
                dxp[window] += tmp
        self.arena.release(tmp)
        return dxp, dw

    # -- dense ---------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    # -- batch norm ----------------------------------------------------
    def batchnorm_stats(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        axes = (0, 2, 3)
        return x.mean(axis=axes), x.var(axis=axes)

    # -- pooling -------------------------------------------------------
    def max_pool2d_forward(self, x: np.ndarray, kernel: Tuple[int, int],
                           stride: Tuple[int, int]
                           ) -> Tuple[np.ndarray, np.ndarray]:
        kh, kw = kernel
        sh, sw = stride
        view = im2col_view(x, kh, kw, sh, sw)
        n, c, _, _, ho, wo = view.shape
        flat = view.reshape(n, c, kh * kw, ho, wo)
        arg = flat.argmax(axis=2)
        out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
        return out, arg

    def max_pool2d_backward(self, grad: np.ndarray, arg: np.ndarray,
                            x_shape: Tuple[int, ...], kernel: Tuple[int, int],
                            stride: Tuple[int, int]) -> np.ndarray:
        kh, kw = kernel
        sh, sw = stride
        n, c, ho, wo = grad.shape
        dflat = self.arena.acquire_zeros((n, c, kh * kw, ho, wo), grad.dtype)
        np.put_along_axis(dflat, arg[:, :, None], grad[:, :, None], axis=2)
        dx = col2im(dflat.reshape(n, c, kh, kw, ho, wo), x_shape,
                    kh, kw, sh, sw)
        self.arena.release(dflat)
        return dx

    def avg_pool2d_forward(self, x: np.ndarray, kernel: Tuple[int, int],
                           stride: Tuple[int, int]) -> np.ndarray:
        kh, kw = kernel
        sh, sw = stride
        return im2col_view(x, kh, kw, sh, sw).mean(axis=(2, 3))

    def avg_pool2d_backward(self, grad: np.ndarray, x_shape: Tuple[int, ...],
                            kernel: Tuple[int, int],
                            stride: Tuple[int, int]) -> np.ndarray:
        kh, kw = kernel
        sh, sw = stride
        n, c, ho, wo = grad.shape
        scale = 1.0 / (kh * kw)
        dcols = np.broadcast_to((grad * scale)[:, :, None, None],
                                (n, c, kh, kw, ho, wo)).astype(grad.dtype)
        return col2im(np.ascontiguousarray(dcols), x_shape, kh, kw, sh, sw)
