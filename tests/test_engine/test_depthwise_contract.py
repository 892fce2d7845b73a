"""Property test: the flat-lane depthwise kernel against the tap loop.

NumpyBackend runs a depthwise conv over each sample's padded planes as
one flat row: every tap is a single shifted, strided slice of that row
times a per-lane channel-scale row, and lanes that fall in the row and
plane gaps are computed and dropped.  Per output element the taps are
still added in ``(i, j)`` order, so against the tap-loop reference in
:mod:`tests.test_engine.conv_oracle`:

- forward and input gradient are bit-identical, NaN and inf included;
- a non-finite value in channel ``c`` (input, weight or upstream
  gradient) changes no other channel's output or input gradient — the
  gap lanes that spill across a plane boundary must add exact zeros;
- the weight gradient sums the batch first, so it only has to hold the
  einsum oracle's ``gamma_n * sum|terms|`` bound with ``n = N*Ho*Wo``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import NumpyBackend

from tests.test_engine import conv_oracle as oracle
from tests.test_engine.test_conv_oracle import check_close

POISON = [np.nan, np.inf, -np.inf]


@st.composite
def depthwise_cases(draw):
    k = draw(st.sampled_from([1, 3]))
    pad = draw(st.sampled_from([0, 1]))
    low = max(1, k - 2 * pad)
    return dict(n=draw(st.integers(1, 3)), c=draw(st.integers(2, 5)), k=k,
                stride=draw(st.sampled_from([1, 2])), pad=pad,
                h=draw(st.integers(low, 7)), w=draw(st.integers(low, 7)),
                seed=draw(st.integers(0, 2 ** 16)))


def operands(case, dtype):
    rng = np.random.default_rng(case["seed"])
    n, c, k, p, s = (case[key] for key in ("n", "c", "k", "pad", "stride"))
    x = rng.standard_normal((n, c, case["h"], case["w"]))
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).astype(dtype)
    weight = rng.standard_normal((c, 1, k, k)).astype(dtype)
    ho = (xp.shape[2] - k) // s + 1
    wo = (xp.shape[3] - k) // s + 1
    grad = rng.standard_normal((n, c, ho, wo)).astype(dtype)
    return xp, weight, grad


def poison(a, index, rng):
    """A copy of ``a`` with one non-finite value somewhere in ``a[index]``."""
    a = a.copy()
    part = a[index]
    part.flat[rng.integers(part.size)] = POISON[rng.integers(len(POISON))]
    return a


def kernels(backend, xp, weight, grad, stride):
    c = xp.shape[1]
    out = backend.conv2d_forward(xp, weight, stride, c)
    dxp, dw = backend.conv2d_backward(grad, xp, weight, stride, c, True, True)
    return out, dxp, dw


def assert_identical(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)


def others(a, channel):
    return np.delete(a, channel, axis=1)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(depthwise_cases(), st.sampled_from([np.float64, np.float32]),
       st.booleans())
@settings(deadline=None)
def test_flat_lanes_match_tap_loop(case, dtype, poisoned):
    xp, weight, grad = operands(case, dtype)
    stride = (case["stride"],) * 2
    rng = np.random.default_rng(case["seed"] + 1)
    channel = int(rng.integers(case["c"]))
    if poisoned:
        clean = kernels(NumpyBackend(), xp, weight, grad, stride)
        xp = poison(xp, (slice(None), channel), rng)
        weight = poison(weight, channel, rng)
        grad = poison(grad, (slice(None), channel), rng)

    ref_out = oracle.depthwise_forward(xp, weight, stride)
    ref_dxp, _ = oracle.depthwise_backward(grad, xp, weight, stride)
    out, dxp, dw = kernels(NumpyBackend(), xp, weight, grad, stride)
    assert_identical(out, ref_out)
    assert_identical(dxp, ref_dxp)

    if poisoned:
        # the gap lanes carry no other channel's non-finite value
        assert_identical(others(out, channel), others(clean[0], channel))
        assert_identical(others(dxp, channel), others(clean[1], channel))
        return
    x64, w64, g64 = (a.astype(np.float64) for a in (xp, weight, grad))
    groups, (n, _, ho, wo) = case["c"], grad.shape
    exact = oracle.conv_weight_grad(g64, x64, w64, stride, groups)
    magnitude = oracle.conv_weight_grad(np.abs(g64), np.abs(x64),
                                        np.abs(w64), stride, groups)
    check_close(dw, exact, magnitude, n * ho * wo, dtype)
