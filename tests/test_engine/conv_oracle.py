"""Reference convolution kernels: one einsum contraction per quantity.

The backends compute convolution with im2col+GEMM (standard and grouped)
and a direct tap loop (depthwise).  These einsum kernels are the test
oracle they are checked against: one contraction string per quantity,
shared by all three conv kinds, with no reuse of backend code beyond the
strided im2col view and col2im scatter.
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
