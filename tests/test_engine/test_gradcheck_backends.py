"""Gradcheck for grouped/depthwise convolution under every backend.

The backend contract: the default NumpyBackend (im2col+GEMM, and flat
lanes for depthwise) matches finite differences, and so does the
``sanitize`` backend, which delegates every kernel to a NumpyBackend and
must hand its results back bit-identical.  These checks run in float64
so the tolerance is the gradcheck default; the kernels' bound against
the einsum oracle is property-tested in ``test_conv_oracle.py``.
"""

import numpy as np
import pytest

from repro.engine import NumpyBackend, create_backend, use_backend
from repro.tensor import Tensor, gradcheck
from repro.tensor.conv import conv2d


def f64(shape, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=True)


@pytest.fixture(params=["numpy", "sanitize"])
def backend(request):
    built = create_backend(request.param)
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
        got = run(create_backend("sanitize"))
        for got_array, ref_array in zip(got, ref):
            np.testing.assert_array_equal(got_array, ref_array)
