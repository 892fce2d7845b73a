"""Reference convolution kernels: one einsum contraction per quantity.

The backends compute convolution with im2col+GEMM (standard and grouped)
and flat-lane taps (depthwise).  These einsum kernels are the test
oracle they are checked against: one contraction string per quantity,
shared by all three conv kinds, with no reuse of backend code beyond the
strided im2col view and col2im scatter.  The depthwise tap loop at the
end is the reference the flat-lane kernel must match bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.numpy_backend import col2im, im2col_view


def _grouped_view(xp: np.ndarray, weight: np.ndarray,
                  stride: Tuple[int, int], groups: int):
    n = xp.shape[0]
    co, cig, kh, kw = weight.shape
    view = im2col_view(xp, kh, kw, *stride)
    ho, wo = view.shape[-2:]
    vg = view.reshape(n, groups, cig, kh, kw, ho, wo)
    wg = weight.reshape(groups, co // groups, cig, kh, kw)
    return vg, wg


def conv_forward(xp: np.ndarray, weight: np.ndarray,
                 stride: Tuple[int, int], groups: int) -> np.ndarray:
    """out[n, g, o, y, x] = sum_{c,i,j} w[g,o,c,i,j] * v[n,g,c,i,j,y,x]."""
    vg, wg = _grouped_view(xp, weight, stride, groups)
    n, _, _, _, _, ho, wo = vg.shape
    out = np.einsum("gocij,ngcijyx->ngoyx", wg, vg, optimize=True)
    return out.reshape(n, weight.shape[0], ho, wo)


def conv_weight_grad(grad: np.ndarray, xp: np.ndarray, weight: np.ndarray,
                     stride: Tuple[int, int], groups: int) -> np.ndarray:
    """dw[g, o, c, i, j] = sum_{n,y,x} grad[n,g,o,y,x] * v[n,g,c,i,j,y,x]."""
    vg, _ = _grouped_view(xp, weight, stride, groups)
    n, ho, wo = grad.shape[0], grad.shape[2], grad.shape[3]
    gg = grad.reshape(n, groups, -1, ho, wo)
    dw = np.einsum("ngoyx,ngcijyx->gocij", gg, vg, optimize=True)
    return dw.reshape(weight.shape)


def conv_input_grad(grad: np.ndarray, xp: np.ndarray, weight: np.ndarray,
                    stride: Tuple[int, int], groups: int) -> np.ndarray:
    """dx: the column gradient w^T . grad scattered back by col2im."""
    _, wg = _grouped_view(xp, weight, stride, groups)
    n, c = xp.shape[:2]
    _, cig, kh, kw = weight.shape
    ho, wo = grad.shape[-2:]
    gg = grad.reshape(n, groups, -1, ho, wo)
    dcols = np.einsum("gocij,ngoyx->ngcijyx", wg, gg, optimize=True)
    return col2im(dcols.reshape(n, c, kh, kw, ho, wo), xp.shape,
                  kh, kw, *stride)


def _taps(kh: int, kw: int, sh: int, sw: int, ho: int, wo: int):
    """Yield ``(i, j, window)``: the padded-input slice each tap reads."""
    for i in range(kh):
        for j in range(kw):
            yield i, j, (slice(None), slice(None),
                         slice(i, i + sh * (ho - 1) + 1, sh),
                         slice(j, j + sw * (wo - 1) + 1, sw))


def depthwise_forward(xp: np.ndarray, weight: np.ndarray,
                      stride: Tuple[int, int]) -> np.ndarray:
    """Tap loop: out = sum over taps of ``weight[:, 0, i, j]`` * window.

    Per output element this is the backend's tap order, so the flat-lane
    kernel must reproduce it bit for bit.
    """
    (sh, sw), (n, c, h, w) = stride, xp.shape
    kh, kw = weight.shape[-2:]
    ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.empty((n, c, ho, wo), dtype=np.result_type(xp, weight))
    tmp = np.empty_like(out)
    for i, j, window in _taps(kh, kw, sh, sw, ho, wo):
        scale = weight[:, 0, i, j].reshape(1, c, 1, 1)
        if i == 0 and j == 0:
            np.multiply(xp[window], scale, out=out)
        else:
            np.multiply(xp[window], scale, out=tmp)
            out += tmp
    return out


def depthwise_backward(grad: np.ndarray, xp: np.ndarray, weight: np.ndarray,
                       stride: Tuple[int, int]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Tap loop ``(dxp, dw)``: dx scatter-adds ``grad * w`` tap by tap."""
    sh, sw = stride
    c = xp.shape[1]
    kh, kw = weight.shape[-2:]
    ho, wo = grad.shape[-2:]
    dxp = np.zeros(xp.shape, dtype=grad.dtype)
    dw = np.empty(weight.shape, dtype=grad.dtype)
    tmp = np.empty_like(grad)
    for i, j, window in _taps(kh, kw, sh, sw, ho, wo):
        np.multiply(grad, xp[window], out=tmp)
        dw[:, 0, i, j] = tmp.sum(axis=(0, 2, 3))
        np.multiply(grad, weight[:, 0, i, j].reshape(1, c, 1, 1), out=tmp)
        dxp[window] += tmp
    return dxp, dw
