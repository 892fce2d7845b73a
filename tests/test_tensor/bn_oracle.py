"""Reference batch norm: the composed formulas the fused kernels replaced.

:func:`batch_norm_train` is the oracle of the BN contract test.  It is
evaluated in float64 whatever the operands' dtype, with numpy's
``axis=(0, 2, 3)`` reductions and the textbook backward
``dx = (g - mean(g) - xhat * mean(g * xhat)) * inv_std`` with
``g = grad * gamma``.  :func:`batch_norm_eval` keeps the eval-mode
formulas in the operands' own dtype: the kernel must match it bit for
bit.
"""

from __future__ import annotations

import numpy as np

AXES = (0, 2, 3)


def _c(v):
    """A per-channel (C,) vector broadcast against (N, C, H, W)."""
    return np.asarray(v)[None, :, None, None]


def batch_norm_train(x, gamma, beta, grad, eps=1e-5):
    """``(out, mean, unbiased var, dx, dgamma, dbeta)``, all in float64."""
    x, gamma, beta, grad = (np.asarray(a, np.float64)
                            for a in (x, gamma, beta, grad))
    m = x.size // x.shape[1]
    mean, var = x.mean(axis=AXES), x.var(axis=AXES)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - _c(mean)) * _c(inv_std)
    out = _c(gamma) * xhat + _c(beta)
    g = grad * _c(gamma)
    mean_g = g.mean(axis=AXES)
    mean_gx = (g * xhat).mean(axis=AXES)
    dx = (g - _c(mean_g) - xhat * _c(mean_gx)) * _c(inv_std)
    dgamma = (grad * xhat).sum(axis=AXES)
    dbeta = grad.sum(axis=AXES)
    return out, mean, var * (m / max(m - 1, 1)), dx, dgamma, dbeta


def batch_norm_eval(x, gamma, beta, running_mean, running_var, grad,
                    eps=1e-5):
    """``(out, dx, dgamma, dbeta)`` of eval-mode BN, in the operands' dtype."""
    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale = gamma * inv_std
    shift = beta - running_mean * scale
    out = x * _c(scale) + _c(shift)
    xhat = (x - _c(running_mean)) * _c(inv_std)
    return (out, grad * _c(scale), (grad * xhat).sum(axis=AXES),
            grad.sum(axis=AXES))
