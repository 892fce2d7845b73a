"""Gradcheck for grouped/depthwise convolution under every backend.

The backend contract: the default NumpyBackend (im2col+GEMM, and a tap
loop for depthwise) matches finite differences, and so does the
ThreadedBackend, whose forward output and input gradient are bit-identical
to NumpyBackend's (its only reassociation is the shard-ordered weight
gradient sum).  These checks run in float64 so the tolerance is the
gradcheck default; the kernels' bound against the einsum oracle is
property-tested in ``test_conv_oracle.py``.
"""

import numpy as np
import pytest

from repro.engine import NumpyBackend, ThreadedBackend, use_backend
from repro.tensor import Tensor, gradcheck
from repro.tensor.conv import conv2d


def make_backend(name):
    if name == "numpy":
        return NumpyBackend()
    # Small min_shard so the tiny gradcheck batches actually shard.
    return ThreadedBackend(threads=2, min_shard=2)


def f64(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=True)


@pytest.fixture(params=["numpy", "threaded"])
def backend(request):
    built = make_backend(request.param)
    with use_backend(built):
        yield built
    built.close()


class TestConvGradcheckPerBackend:
    def test_standard_conv(self, backend):
        x = f64((4, 2, 5, 5), 0)
        w = f64((3, 2, 3, 3), 1)
        b = f64((3,), 2)
        gradcheck(lambda x, w, b: conv2d(x, w, b, stride=1, padding=1).sum(),
                  [x, w, b])

    def test_grouped_conv(self, backend):
        x = f64((4, 4, 5, 5), 3)
        w = f64((6, 2, 3, 3), 4)      # groups=2: 4 in, 6 out
        gradcheck(lambda x, w: conv2d(x, w, stride=1, padding=1,
                                      groups=2).sum(), [x, w])

    def test_grouped_strided_conv(self, backend):
        x = f64((4, 6, 6, 6), 5)
        w = f64((6, 2, 3, 3), 6)      # groups=3
        gradcheck(lambda x, w: conv2d(x, w, stride=2, padding=0,
                                      groups=3).sum(), [x, w])

    def test_depthwise_conv(self, backend):
        x = f64((4, 5, 5, 5), 7)
        w = f64((5, 1, 3, 3), 8)      # groups == channels
        gradcheck(lambda x, w: conv2d(x, w, stride=1, padding=1,
                                      groups=5).sum(), [x, w])


class TestCrossBackendIdentity:
    """Outputs and gradients must agree across backends on one graph each."""

    @pytest.mark.parametrize("groups,cin,cout", [(1, 4, 6), (2, 4, 6), (4, 4, 4)])
    def test_outputs_and_grads_identical(self, groups, cin, cout):
        def run(backend):
            x = f64((6, cin, 5, 5), 9)
            w = f64((cout, cin // groups, 3, 3), 10)
            with use_backend(backend):
                out = conv2d(x, w, stride=1, padding=1, groups=groups)
                out.backward(np.ones_like(out.data))
            return out.data, x.grad, w.grad

        ref = run(NumpyBackend())
        threaded = ThreadedBackend(threads=2, min_shard=2)
        got = run(threaded)
        threaded.close()
        np.testing.assert_allclose(got[0], ref[0], atol=1e-12)
        np.testing.assert_allclose(got[1], ref[1], atol=1e-12)
        np.testing.assert_allclose(got[2], ref[2], atol=1e-10)
