"""Property test: the fused batch-norm kernels against the composed oracle.

``batch_norm_train`` reduces channel-contiguous rows (the batch first,
then each plane), computes two-pass statistics and evaluates the
backward as ``gamma*inv_std * ((g - xhat*dgamma/m) - dbeta/m)``.  That
order differs from the composed float64 oracle in
:mod:`tests.test_tensor.bn_oracle`, so every output (forward ``out``,
the returned mean and unbiased variance, ``dx``, ``dgamma``, ``dbeta``)
is held to an a-priori rounding bound.

The bound is propagated through the kernel's own evaluation order under
the standard model ``fl(a op b) = (a op b)(1 + d)``, ``|d| <= u`` with
``u = eps(dtype) / 2``.  Each intermediate carries its exact value ``v``
(evaluated in float64 from the operands) and a bound ``e`` on the
kernel's error in it:

- ``a +- b``:  ``e = ea + eb + u(|v| + ea + eb)``
- ``a * b``:   ``e = |a| eb + |b| ea + ea eb`` plus the same rounding term
- a sum of ``k`` terms in any order: ``sum e + gamma_{k-1} sum(|v| + e)``,
  with ``gamma_n = n u / (1 - n u)``
- ``1 / sqrt(w)``: with ``r = e / w < 1``, the square root and the
  reciprocal each at most compound ``r`` (``|sqrt(1+t) - 1| <= |t|``,
  ``|1/(1+t) - 1| <= |t| / (1 - |t|)``), plus one rounding each
- the python scalars ``eps`` and ``m/(m-1)`` enter with ``2u`` relative
  error (a float64 quotient, then a cast into the operands' dtype).

The float64 oracle has its own rounding error; the same propagation
through the oracle's composed order at ``u = 2**-53`` is added to the
kernel's bound, as the conv oracle test does.  Operands are float32 or
float64 and shapes reach ``N = 1`` and ``H = W = 1`` (a single element
per channel, where the variance is exactly zero).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor
from repro.tensor import functional as F

from tests.test_tensor import bn_oracle as oracle

EPS = 1e-5


class Bound:
    """An exact value with an a-priori bound on a kernel's error in it."""

    def __init__(self, value, err=0.0):
        self.v = np.asarray(value, np.float64)
        self.e = np.broadcast_to(np.asarray(err, np.float64), self.v.shape)


class Rounding:
    """Error propagation for one evaluation order at unit roundoff ``u``."""

    def __init__(self, u: float):
        self.u = u

    def rounded(self, value, err):
        return Bound(value, err + self.u * (np.abs(value) + err))

    def add(self, a, b):
        return self.rounded(a.v + b.v, a.e + b.e)

    def sub(self, a, b):
        return self.rounded(a.v - b.v, a.e + b.e)

    def mul(self, a, b):
        err = np.abs(a.v) * b.e + np.abs(b.v) * a.e + a.e * b.e
        return self.rounded(a.v * b.v, err)

    def div(self, a, m: int):
        return self.rounded(a.v / m, a.e / m)

    def const(self, value):
        return Bound(value, 2 * self.u * abs(value))

    def channel_sum(self, a):
        k = a.v.size // a.v.shape[1] - 1
        g = k * self.u / (1 - k * self.u)                   # gamma_{k-1}
        err = a.e.sum(axis=oracle.AXES)
        return Bound(a.v.sum(axis=oracle.AXES),
                     err + g * (np.abs(a.v).sum(axis=oracle.AXES) + err))

    def rsqrt(self, w):
        r = np.divide(w.e, w.v, out=np.full(w.v.shape, np.inf), where=w.v > 0)
        r = r + self.u + r * self.u                         # square root
        r = np.where(r < 1, r / np.maximum(1 - r, 1e-300), np.inf)  # 1/x
        r = r + self.u + r * self.u
        value = 1.0 / np.sqrt(w.v)
        return Bound(value, r * value)


def per_channel(b):
    return Bound(b.v[None, :, None, None], b.e[None, :, None, None])


def propagate(x, g_, b_, grad, u, order):
    """Error bounds of ``(out, mean, unbiased, dx, dgamma, dbeta)``."""
    R = Rounding(u)
    X, G, B, GR = (Bound(np.asarray(a, np.float64)) for a in (x, g_, b_, grad))
    m = x.size // x.shape[1]
    mean = R.div(R.channel_sum(X), m)
    centred = R.sub(X, per_channel(mean))
    var = R.div(R.channel_sum(R.mul(centred, centred)), m)
    inv = per_channel(R.rsqrt(R.add(var, R.const(EPS))))
    xhat = R.mul(centred, inv)
    out = R.add(R.mul(xhat, per_channel(G)), per_channel(B))
    unbiased = R.mul(var, R.const(m / max(m - 1, 1)))
    dgamma = R.channel_sum(R.mul(GR, xhat))
    dbeta = R.channel_sum(GR)
    if order == "kernel":
        k1 = per_channel(R.div(dgamma, m))
        k0 = per_channel(R.div(dbeta, m))
        dx = R.mul(R.sub(R.sub(GR, R.mul(xhat, k1)), k0),
                   R.mul(per_channel(G), inv))
    else:
        g = R.mul(GR, per_channel(G))
        mean_g = per_channel(R.div(R.channel_sum(g), m))
        mean_gx = per_channel(R.div(R.channel_sum(R.mul(g, xhat)), m))
        dx = R.mul(R.sub(R.sub(g, mean_g), R.mul(xhat, mean_gx)), inv)
    return [q.e for q in (out, mean, unbiased, dx, dgamma, dbeta)]


@st.composite
def bn_cases(draw):
    return dict(n=draw(st.integers(1, 4)), c=draw(st.integers(1, 4)),
                h=draw(st.integers(1, 5)), w=draw(st.integers(1, 5)),
                offset=draw(st.sampled_from([0.0, 3.0])),
                seed=draw(st.integers(0, 2 ** 16)))


def operands(case, dtype):
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["c"], case["h"], case["w"])
    x = rng.standard_normal(shape) * 2 + case["offset"]
    g_ = rng.standard_normal(case["c"]) + 1
    b_ = rng.standard_normal(case["c"])
    grad = rng.standard_normal(shape)
    return tuple(a.astype(dtype) for a in (x, g_, b_, grad))


def run_train(x, g_, b_, grad):
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, g_, b_))
    out, mean, unbiased = F.batch_norm_train(xt, gt, bt, eps=EPS)
    out.backward(grad)
    return out.data, mean, unbiased, xt.grad, gt.grad, bt.grad


@given(bn_cases(), st.sampled_from([np.float64, np.float32]))
@example(dict(n=1, c=2, h=1, w=1, offset=3.0, seed=0), np.float32)
@settings(deadline=None)
def test_train_within_rounding_bound(case, dtype):
    x, g_, b_, grad = operands(case, dtype)
    got = run_train(x, g_, b_, grad)
    exact = oracle.batch_norm_train(x, g_, b_, grad, eps=EPS)
    u = np.finfo(dtype).eps / 2
    kernel = propagate(x, g_, b_, grad, u, "kernel")
    reference = propagate(x, g_, b_, grad, 2.0 ** -53, "oracle")
    names = ("out", "mean", "unbiased var", "dx", "dgamma", "dbeta")
    for name, value, ex, ek, eo in zip(names, got, exact, kernel, reference):
        assert value.dtype == dtype and value.shape == ex.shape, name
        excess = np.abs(value.astype(np.float64) - ex) - (ek + eo)
        assert excess.max() <= 0, f"{name} over its bound by {excess.max():.3e}"


@given(bn_cases(), st.sampled_from([np.float64, np.float32]))
@settings(deadline=None)
def test_nan_stays_channel_local(case, dtype):
    x, g_, b_, grad = operands(case, dtype)
    clean = run_train(x, g_, b_, grad)
    rng = np.random.default_rng(case["seed"] + 1)
    channel = int(rng.integers(case["c"]))
    x = x.copy()
    x[:, channel].flat[rng.integers(x[:, channel].size)] = np.nan
    with np.errstate(invalid="ignore"):
        poisoned = run_train(x, g_, b_, grad)
    axes = (1, 0, 0, 1, 0, 0)        # channel axis of each output
    for i, (before, after, axis) in enumerate(zip(clean, poisoned, axes)):
        if i < 5:                    # dbeta never reads x
            assert np.isnan(np.take(after, channel, axis=axis)).all()
        np.testing.assert_array_equal(np.delete(after, channel, axis=axis),
                                      np.delete(before, channel, axis=axis))


@given(bn_cases(), st.sampled_from([np.float64, np.float32]))
@settings(deadline=None)
def test_eval_matches_composed_formula_bitwise(case, dtype):
    x, g_, b_, grad = operands(case, dtype)
    rng = np.random.default_rng(case["seed"] + 2)
    mean = rng.standard_normal(case["c"]).astype(dtype)
    var = rng.uniform(0.1, 4, case["c"]).astype(dtype)
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, g_, b_))
    out = F.batch_norm_eval(xt, gt, bt, mean, var, eps=EPS)
    out.backward(grad)
    ref = oracle.batch_norm_eval(x, g_, b_, mean, var, grad, eps=EPS)
    for got, want in zip((out.data, xt.grad, gt.grad, bt.grad), ref):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
