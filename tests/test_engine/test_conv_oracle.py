"""Property test: the backends' conv kernels against the einsum oracle.

The im2col+GEMM (standard, grouped) and flat-lane (depthwise) kernels sum
in a different order from the einsum oracle, so they are compared at the
a-priori rounding bound of a length-``n`` reduction,

    |computed - exact| <= gamma_n * sum_k |a_k * b_k|,
    gamma_n = n*u / (1 - n*u),  u = eps(dtype) / 2,

where ``sum_k |a_k * b_k|`` is the oracle applied to the absolute values
of the operands.  float64 runs compare two float64 computations (each
within its own bound); float32 runs compare the float32 kernel with the
float64 oracle on the same float32 inputs.  The reduction lengths are
``cig*kh*kw`` (forward), ``cog*kh*kw`` (input gradient: a GEMM over the
output channels, then col2im's kh*kw overlapping adds) and
``N*Ho*Wo`` (weight gradient).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import NumpyBackend

from tests.test_engine import conv_oracle as oracle


def gamma(n: int, dtype) -> float:
    """Worst-case relative rounding bound of a length-``n`` dot product."""
    u = np.finfo(dtype).eps / 2
    return n * u / (1 - n * u)


def tolerance(n: int, dtype) -> float:
    """The kernel's bound in ``dtype`` plus the float64 oracle's own."""
    return gamma(n, dtype) + gamma(n, np.float64)


@st.composite
def conv_cases(draw):
    kind = draw(st.sampled_from(["standard", "grouped", "depthwise"]))
    if kind == "standard":
        groups, cig, cog = 1, draw(st.integers(1, 4)), draw(st.integers(1, 4))
    elif kind == "grouped":
        groups = draw(st.integers(2, 3))
        # (1, 2) is a depthwise multiplier: grouped, not depthwise
        cig, cog = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (3, 2)]))
    else:
        groups, cig, cog = draw(st.integers(2, 5)), 1, 1
    k = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.sampled_from([0, 1]))
    low = max(1, k - 2 * pad)
    return dict(n=draw(st.integers(1, 4)), groups=groups, cig=cig, cog=cog,
                k=k, stride=stride, pad=pad,
                h=draw(st.integers(low, 7)), w=draw(st.integers(low, 7)),
                seed=draw(st.integers(0, 2 ** 16)))


def operands(case):
    rng = np.random.default_rng(case["seed"])
    g, k, p = case["groups"], case["k"], case["pad"]
    x = rng.standard_normal((case["n"], g * case["cig"], case["h"], case["w"]))
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    weight = rng.standard_normal((g * case["cog"], case["cig"], k, k))
    s = case["stride"]
    ho = (xp.shape[2] - k) // s + 1
    wo = (xp.shape[3] - k) // s + 1
    grad = rng.standard_normal((case["n"], g * case["cog"], ho, wo))
    return xp, weight, grad


def check_close(got, exact, magnitude, n, dtype):
    assert got.dtype == dtype and got.shape == exact.shape
    bound = tolerance(n, dtype) * magnitude
    excess = np.abs(got.astype(np.float64) - exact) - bound
    assert excess.max() <= 0, f"over the gamma_{n} bound by {excess.max():.3e}"


def run_kernels(backend, xp, weight, grad, stride, groups):
    out = backend.conv2d_forward(xp, weight, stride, groups)
    dxp, dw = backend.conv2d_backward(grad, xp, weight, stride, groups,
                                      True, True)
    return out, dxp, dw


@given(conv_cases(), st.sampled_from([np.float64, np.float32]))
@settings(deadline=None)
def test_kernels_match_einsum_oracle(case, dtype):
    xp64, w64, g64 = operands(case)
    stride, groups = (case["stride"],) * 2, case["groups"]
    # the exact operands each kernel sees, held in float64
    xp64, w64, g64 = (a.astype(dtype).astype(np.float64)
                      for a in (xp64, w64, g64))
    exact = (oracle.conv_forward(xp64, w64, stride, groups),
             oracle.conv_input_grad(g64, xp64, w64, stride, groups),
             oracle.conv_weight_grad(g64, xp64, w64, stride, groups))
    ax, aw, ag = np.abs(xp64), np.abs(w64), np.abs(g64)
    magnitude = (oracle.conv_forward(ax, aw, stride, groups),
                 oracle.conv_input_grad(ag, ax, aw, stride, groups),
                 oracle.conv_weight_grad(ag, ax, aw, stride, groups))
    k2 = case["k"] ** 2
    ho, wo = g64.shape[-2:]
    lengths = (case["cig"] * k2, case["cog"] * k2, case["n"] * ho * wo)

    xp, weight, grad = (a.astype(dtype) for a in (xp64, w64, g64))
    results = run_kernels(NumpyBackend(), xp, weight, grad, stride, groups)
    for value, ex, mag, n in zip(results, exact, magnitude, lengths):
        check_close(value, ex, mag, n, dtype)
