"""Reference backend: numpy (GEMMs on BLAS threads) with workspace reuse.

Convolution runs as im2col+GEMM for standard and grouped convs: the
strided im2col view is copied once into ``(N, g, cig*kh*kw, Ho*Wo)``
columns, and the forward pass, the input gradient (GEMM against the
transposed weight, then col2im) and the weight gradient are batched
``np.matmul`` calls over them.  A 1x1 stride-1 conv's columns are its
input, reshaped, and its input gradient needs no col2im.

Depthwise convs (one input and one output channel per group) use a flat
lane layout: each sample's padded planes are one row of ``C*Hp*Wp``
floats, and tap ``(i, j)`` is one slice of it at offset ``i*Wp + j`` and
step ``s`` (the column stride) times a per-lane row of channel weights.
Output lane ``f`` reads input ``s*f + off``; a channel spans ``Hp*Wp/s``
lanes (planes whose width is not a multiple of ``s`` get zero columns).
Lanes in the row and plane gaps are computed and dropped.  Gap-lane
rule: there the scale rows and the scattered output gradient are exact
zeros, so the input gradient adds ``+0.0`` even for a non-finite weight
and one channel's NaN or inf never reaches another.

Numerics: the summation order is BLAS's (or the tap order), not an
einsum contraction's.  ``tests/test_engine/test_conv_oracle.py`` keeps an
einsum kernel as the oracle and holds every output and gradient to the
worst-case rounding bound of its reduction length,
``gamma_n * sum|terms|``, in float64 and float32.  Depthwise forward and
input gradient keep the tap order per element, so they are bit-identical
to the tap loop in ``tests/test_engine/conv_oracle.py``.  Results are
deterministic run to run.  Batch-norm statistics are two-pass, and each
per-channel sum reduces contiguous rows, the batch first and then each
plane (:func:`channel_sum`), never numpy's strided ``axis=(0, 2, 3)``.

Short-lived workspaces (the im2col columns, the column gradient consumed
by col2im, the padded-input copy, the depthwise lane buffers) are drawn
from the backend's :class:`~repro.engine.arena.WorkspaceArena` instead of
being reallocated on every call.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.engine.arena import WorkspaceArena
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


def channel_sum(x: np.ndarray) -> np.ndarray:
    """Per-channel sum of (N, C, H, W): over N rows of C*H*W, then C of H*W."""
    n, c = x.shape[:2]
    return x.reshape(n, -1).sum(axis=0).reshape(c, -1).sum(axis=1)


class _Depthwise:
    """One depthwise conv (groups == C == Co > 1) on the flat lane layout."""

    def __init__(self, xp: np.ndarray, weight: np.ndarray, sh: int, sw: int):
        (n, self.c, hp, self.wp), (kh, kw) = xp.shape, weight.shape[-2:]
        wq = -(-self.wp // sw) * sw  # plane width, a multiple of sw
        self.planes = xp if wq == self.wp else np.pad(
            xp, ((0, 0), (0, 0), (0, 0), (0, wq - self.wp)))
        self.rows, self.kernel = self.planes.reshape(n, -1), weight.shape
        self.ho, self.wo = (hp - kh) // sh + 1, (self.wp - kw) // sw + 1
        self.pitch, self.row = hp * wq // sw, sh * wq // sw
        # lanes end at the last valid output, so every tap slice fits the row
        self.count = (self.c - 1) * self.pitch + (self.ho - 1) * self.row + self.wo
        self.taps = [slice(off, off + sw * (self.count - 1) + 1, sw)
                     for off in (i * wq + j for i in range(kh) for j in range(kw))]
        self.scales = np.zeros((kh * kw, self.count), weight.dtype)
        self.valid(self.scales)[...] = weight.reshape(self.c, -1).T[:, :, None, None]

    def valid(self, a: np.ndarray) -> np.ndarray:
        """The ``(..., C, Ho, Wo)`` view of lane array ``a``'s valid lanes."""
        s = a.strides[-1]
        return np.lib.stride_tricks.as_strided(
            a, a.shape[:-1] + (self.c, self.ho, self.wo),
            a.strides[:-1] + (self.pitch * s, self.row * s, s))

    def forward(self, arena: WorkspaceArena) -> np.ndarray:
        """Sum over taps of a shifted input-row slice times its scale row."""
        acc = arena.acquire((len(self.rows), self.count),
                            np.result_type(self.rows, self.scales))
        tmp = arena.acquire(acc.shape, acc.dtype)
        for t, taps in enumerate(self.taps):
            np.multiply(self.rows[:, taps], self.scales[t], out=tmp if t else acc)
            if t:
                acc += tmp
        out = self.valid(acc).copy()
        arena.release(acc)
        arena.release(tmp)
        return out

    def backward(self, arena: WorkspaceArena, grad: np.ndarray, need_dx: bool,
                 need_dw: bool) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        # gap lanes of g and of the scale rows are 0, so they add 0 to dx
        g = arena.acquire_zeros((len(self.rows), self.count), grad.dtype)
        self.valid(g)[...] = grad
        tmp = arena.acquire(g.shape, grad.dtype)
        dxq = np.zeros(self.planes.shape, grad.dtype) if need_dx else None
        dw = np.empty((self.c, len(self.taps)), grad.dtype)
        for t, taps in enumerate(self.taps):
            if need_dw:
                np.multiply(g, self.rows[:, taps], out=tmp)
                dw[:, t] = self.valid(tmp.sum(axis=0)).sum(axis=(1, 2))
            if need_dx:
                np.multiply(g, self.scales[t], out=tmp)
                dxq.reshape(len(g), -1)[:, taps] += tmp
        arena.release(g)
        arena.release(tmp)
        return (dxq[..., :self.wp] if need_dx else None,
                dw.reshape(self.kernel) if need_dw else None)


class NumpyBackend(Backend):
    """The default backend: im2col+GEMM and flat-lane depthwise kernels."""

    name = "numpy"

    # -- convolution ---------------------------------------------------
    def _columns(self, xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                 groups: int) -> np.ndarray:
        """im2col columns ``(N, g, cig*kh*kw, Ho*Wo)`` in an arena buffer.

        The caller releases the buffer once its GEMMs have consumed it.  A
        1x1 stride-1 conv's columns are ``xp`` itself, reshaped (a view the
        arena refuses on release).
        """
        if kh == kw == sh == sw == 1:
            n, c, h, w = xp.shape
            return xp.reshape(n, groups, c // groups, h * w)
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
        if groups == c == co > 1:  # depthwise
            return _Depthwise(xp, weight, sh, sw).forward(self.arena)
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
        if groups == c == co > 1:  # depthwise
            return _Depthwise(xp, weight, sh, sw).backward(
                self.arena, grad, need_input_grad, need_weight_grad)
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
        if need_input_grad and kh == kw == sh == sw == 1:
            dxp = np.matmul(wg.transpose(0, 2, 1), gg).reshape(xp.shape)
        elif need_input_grad:
            dcols = self.arena.acquire((n, groups, cig * kh * kw, ho * wo),
                                       grad.dtype)
            np.matmul(wg.transpose(0, 2, 1), gg, out=dcols)
            dxp = col2im(dcols.reshape(n, c, kh, kw, ho, wo), xp.shape,
                         kh, kw, sh, sw)
            self.arena.release(dcols)
        return dxp, dw

    # -- dense ---------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    # -- batch norm ----------------------------------------------------
    def batchnorm_stats(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Two-pass ``(mean, biased var)`` over channel-contiguous sums."""
        m = x.size // x.shape[1]
        mean = channel_sum(x) / m
        # a lane row of means: one long loop per sample, not H*W-float ones
        centred = x.reshape(len(x), -1) - np.repeat(mean, x[0, 0].size)
        np.square(centred, out=centred)
        return mean, channel_sum(centred.reshape(x.shape)) / m

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
