"""Finite-difference gradient verification of every differentiable op."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck
from repro.tensor import conv as C
from repro.tensor import functional as F
from repro.tensor.tensor import concatenate


def t64(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestElementwiseGrads:
    def test_add_mul(self, rng):
        a, b = t64(rng, 3, 4), t64(rng, 3, 4)
        gradcheck(lambda a, b: (a * b + a).sum(), [a, b])

    def test_div(self, rng):
        a = t64(rng, 4)
        b = Tensor(rng.standard_normal(4) + 3.0, requires_grad=True)
        gradcheck(lambda a, b: (a / b).sum(), [a, b])

    def test_pow(self, rng):
        a = Tensor(np.abs(rng.standard_normal(5)) + 0.5, requires_grad=True)
        gradcheck(lambda a: (a ** 3).sum(), [a])

    def test_exp_log(self, rng):
        a = Tensor(np.abs(rng.standard_normal(4)) + 0.5, requires_grad=True)
        gradcheck(lambda a: (a.log() * a.exp()).sum(), [a])

    def test_sigmoid_tanh(self, rng):
        a = t64(rng, 6)
        gradcheck(lambda a: (a.sigmoid() + a.tanh()).sum(), [a])

    def test_relu(self, rng):
        # keep values away from the kink
        a = Tensor(rng.standard_normal(8) + np.sign(rng.standard_normal(8)) * 0.5,
                   requires_grad=True)
        gradcheck(lambda a: (a.relu() * 2.0).sum(), [a])

    def test_clip(self, rng):
        a = Tensor(np.array([-2.0, -0.5, 0.5, 2.0, 7.0]), requires_grad=True)
        gradcheck(lambda a: (a.clip(0.0, 6.0) ** 2).sum(), [a])

    def test_broadcast_grad(self, rng):
        a, b = t64(rng, 3, 4), t64(rng, 4)
        gradcheck(lambda a, b: ((a + b) * b).sum(), [a, b])


class TestLinalgGrads:
    def test_matmul(self, rng):
        a, b = t64(rng, 3, 4), t64(rng, 4, 2)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_transpose_then_matmul(self, rng):
        a, b = t64(rng, 4, 3), t64(rng, 4, 2)
        gradcheck(lambda a, b: (a.transpose() @ b).sum(), [a, b])


class TestReductionGrads:
    def test_sum_mean(self, rng):
        a = t64(rng, 3, 5)
        gradcheck(lambda a: (a.sum(axis=0) * a.mean(axis=0)).sum(), [a])

    def test_max_axis(self, rng):
        a = Tensor(rng.permutation(12).reshape(3, 4).astype(float),
                   requires_grad=True)
        gradcheck(lambda a: a.max(axis=1).sum(), [a])


class TestConvGrads:
    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 1, 2), (2, 0, 4),
    ])
    def test_conv2d(self, rng, stride, padding, groups):
        x = t64(rng, 2, 4, 5, 5)
        w = t64(rng, 4, 4 // groups, 3, 3)
        b = t64(rng, 4)
        gradcheck(lambda x, w, b: (C.conv2d(x, w, b, stride=stride,
                                            padding=padding,
                                            groups=groups) ** 2).sum(),
                  [x, w, b])

    def test_depthwise_conv(self, rng):
        x = t64(rng, 1, 3, 4, 4)
        w = t64(rng, 3, 1, 3, 3)
        gradcheck(lambda x, w: (C.conv2d(x, w, None, padding=1,
                                         groups=3) ** 2).sum(), [x, w])

    def test_max_pool(self, rng):
        x = Tensor(rng.permutation(2 * 2 * 16).reshape(2, 2, 4, 4).astype(float),
                   requires_grad=True)
        gradcheck(lambda x: (C.max_pool2d(x, 2) ** 2).sum(), [x])

    def test_avg_pool_overlapping_stride(self, rng):
        x = t64(rng, 1, 2, 6, 6)
        gradcheck(lambda x: (C.avg_pool2d(x, 3, stride=3) ** 2).sum(), [x])

    def test_global_avg_pool(self, rng):
        x = t64(rng, 2, 3, 4, 4)
        gradcheck(lambda x: (C.global_avg_pool2d(x) ** 2).sum(), [x])


class TestFunctionalGrads:
    def test_batch_norm_train(self, rng):
        x = t64(rng, 4, 3, 3, 3)
        g = Tensor(rng.standard_normal(3) + 1.5, requires_grad=True)
        b = t64(rng, 3)
        gradcheck(lambda x, g, b: (F.batch_norm_train(x, g, b)[0] ** 3).sum(),
                  [x, g, b], atol=5e-4)

    def test_batch_norm_eval(self, rng):
        x = t64(rng, 3, 2, 3, 3)
        g = Tensor(rng.standard_normal(2) + 1.5, requires_grad=True)
        b = t64(rng, 2)
        mean = rng.standard_normal(2)
        var = np.abs(rng.standard_normal(2)) + 0.5
        gradcheck(lambda x, g, b: (F.batch_norm_eval(x, g, b, mean, var) ** 2).sum(),
                  [x, g, b])

    def test_log_softmax(self, rng):
        x = t64(rng, 4, 6)
        gradcheck(lambda x: (x * F.log_softmax(x)).sum(), [x])

    def test_softmax(self, rng):
        x = t64(rng, 3, 5)
        w = rng.standard_normal((3, 5))
        gradcheck(lambda x: (F.softmax(x) * Tensor(w)).sum(), [x])

    def test_cross_entropy(self, rng):
        x = t64(rng, 6, 4)
        targets = rng.integers(0, 4, size=6)
        gradcheck(lambda x: F.cross_entropy(x, targets), [x])

    def test_entropy_loss(self, rng):
        x = t64(rng, 5, 7)
        gradcheck(lambda x: F.entropy_loss(x), [x])

    def test_concatenate(self, rng):
        a, b = t64(rng, 2, 3), t64(rng, 4, 3)
        gradcheck(lambda a, b: (concatenate([a, b], axis=0) ** 2).sum(), [a, b])

    def test_gradcheck_rejects_nonscalar(self, rng):
        a = t64(rng, 3)
        with pytest.raises(ValueError):
            gradcheck(lambda a: a * 2.0, [a])

    def test_gradcheck_detects_wrong_gradient(self, rng):
        # A function whose op has a deliberately broken backward is
        # simulated by comparing against mismatched analytic grads.
        a = t64(rng, 3)

        def wrong(a):
            out = a * 2.0
            out.data = a.data * 3.0  # value inconsistent with graph
            return out.sum()

        with pytest.raises(AssertionError):
            gradcheck(wrong, [a])


class TestGraphFreeing:
    """backward() frees the graph it consumes instead of leaving cycles."""

    @staticmethod
    def bn_opt_step(rng):
        """One BN-Opt (TENT) step's graph: conv-BN-relu-pool-linear."""
        from repro import nn
        from repro.adapt.base import configure_bn_only_grads
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, bias=False), nn.BatchNorm2d(4),
            nn.ReLU(), nn.GlobalAvgPool2d(), nn.Linear(4, 5))
        model.train()
        configure_bn_only_grads(model)
        x = rng.standard_normal((6, 3, 5, 5)).astype(np.float32)
        return model, F.entropy_loss(model(Tensor(x)))

    @staticmethod
    def interior_nodes(root):
        seen, stack = {}, [root]
        while stack:
            node = stack.pop()
            if id(node) in seen or node._backward is None:
                continue
            seen[id(node)] = node
            stack.extend(node._parents)
        seen.pop(id(root))
        return list(seen.values())

    def test_intermediates_die_at_backward_without_gc(self, rng):
        import gc
        import weakref
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model, loss = self.bn_opt_step(rng)
            refs = [weakref.ref(node) for node in self.interior_nodes(loss)]
            assert len(refs) > 5
            loss.backward()
            assert [ref() for ref in refs] == [None] * len(refs)
            assert all(p.grad is not None for p in model.parameters()
                       if p.requires_grad)
        finally:
            if was_enabled:
                gc.enable()

    def test_second_backward_raises(self, rng):
        _, loss = self.bn_opt_step(rng)
        loss.backward()
        with pytest.raises(RuntimeError, match="already been freed"):
            loss.backward()

    def test_leaf_grads_still_accumulate_across_graphs(self, rng):
        a = t64(rng, 3)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 5.0))
