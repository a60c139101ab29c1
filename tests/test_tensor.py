import threading

import numpy as np
import pytest

from irunet import rng, tensor
from irunet.metrics import mae_loss
from irunet.model import ModelConfig, build_params, forward
from irunet.tensor import (Tensor, _walked, concat_channels, no_grad, observe_ops,
                           records_graph)

from conftest import received_grads

SMALL = ModelConfig(input_channels=3, base_width=4, stage_widths=(6, 8, 10, 12),
                    branch_width=2)


def t64(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


def rand64(seed, shape, requires_grad=True, low=-1.0, high=1.0):
    vals = rng.uniform(seed, int(np.prod(shape))) * (high - low) + low
    return Tensor(vals.reshape(shape), requires_grad=requires_grad, dtype=np.float64)


class TestElementwise:
    def test_relu_definition(self):
        out = t64([-1.0, 0.0, 2.0]).relu()
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_symmetry_point(self):
        assert t64([0.0]).sigmoid().data[0] == 0.5

    def test_add_definition(self):
        out = t64([1.0, 2.0]) + t64([3.0, 4.0])
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_sub_mul(self):
        a, b = t64([5.0, 2.0]), t64([1.0, 4.0])
        assert np.array_equal((a - b).data, [4.0, -2.0])
        assert np.array_equal((a * b).data, [5.0, 8.0])

    def test_scalar_operand_raises(self):
        a = t64([1.0, 2.0])
        for op in (lambda: a + 1, lambda: a - 1.0, lambda: a * 2.0, lambda: a * np.float64(2.0),
                   lambda: 1 + a, lambda: 3.0 - a, lambda: 2.0 * a, lambda: -a):
            with pytest.raises(TypeError):
                op()

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
            t64([1.0, 2.0]) + t64([1.0, 2.0, 3.0])

    def test_elementwise_preserves_shape(self):
        for shape in [(3,), (2, 4), (1, 2, 3, 4)]:
            a = rand64(rng.hash64("shape", *map(int, shape)), shape)
            b = rand64(rng.hash64("shape2", *map(int, shape)), shape)
            for out in (a + b, a - b, a * b, a.relu(), a.sigmoid(), a.abs()):
                assert out.shape == shape

    def test_monotone_activations(self):
        v = np.sort(rng.uniform(11, 64) * 20.0 - 10.0)
        r = Tensor(v, dtype=np.float64).relu().data
        s = Tensor(v, dtype=np.float64).sigmoid().data
        assert np.all(np.diff(r) >= 0)
        assert np.all(np.diff(s) >= 0)
        assert np.all((s > 0.0) & (s < 1.0))

    def test_determinism_bit_identical(self):
        a = rand64(5, (4, 4))
        b = rand64(6, (4, 4))
        first = ((a * b).sigmoid() + a.relu()).data
        second = ((a * b).sigmoid() + a.relu()).data
        assert np.array_equal(first, second)


class TestReductions:
    def test_abs_then_mean_hand_sum(self):
        assert t64([-1.0, 1.0, -3.0, 3.0]).abs().mean().item() == 2.0

    def test_mean_of_zeros(self):
        assert t64(np.zeros((3, 3))).mean().item() == 0.0

    def test_sum_of_ones(self):
        assert t64(np.ones((4, 4))).sum().item() == 16.0

    def test_empty_rejected(self):
        empty = Tensor(np.zeros((0,), dtype=np.float64))
        for op in (empty.sum, empty.mean, lambda: empty.abs().mean()):
            with pytest.raises(ValueError):
                op()


class TestObserveOps:
    @staticmethod
    def recorder(tag, seen):
        def observer(op, fn, args):
            seen.append((tag, op))
            return fn(*args)
        return observer

    def test_nested_block_restores_the_outer_observer(self):
        seen = []
        x = t64([-1.0, 2.0])
        with observe_ops(self.recorder("outer", seen)):
            x.relu()
            with observe_ops(self.recorder("inner", seen)):
                x.relu()
            x.relu()
            with pytest.raises(KeyError):
                with observe_ops(self.recorder("failed", seen)):
                    x.relu()
                    raise KeyError("inside")
            x.relu()
        x.relu()
        assert seen == [("outer", "relu"), ("inner", "relu"), ("outer", "relu"),
                        ("failed", "relu"), ("outer", "relu")]
        assert tensor._observer.get() is None

    def test_observed_op_keeps_its_name_and_docstring(self):
        assert Tensor.relu.__name__ == "relu" and Tensor.backward.__doc__.startswith("Reverse")
        assert concat_channels.__name__ == "concat_channels"


class TestBackward:
    def test_sum_gives_ones(self):
        x = rand64(1, (3, 5))
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 5)))

    def test_mean_of_square(self):
        x = t64([3.0], requires_grad=True)
        (x * x).mean().backward()
        assert np.allclose(x.grad, [6.0])

    def test_non_scalar_root_rejected(self):
        x = rand64(2, (3,))
        with pytest.raises(ValueError):
            (x + x).backward()

    def test_grad_accumulates_over_reuse(self):
        x = t64([2.0], requires_grad=True)
        (x * x + x).sum().backward()
        assert np.allclose(x.grad, [5.0])  # 2x + 1 at x=2

    def test_self_add_copies_first_gradient(self):
        # __add__ hands one g to both parents; the first write must not alias it
        x = rand64(10, (2, 3))
        y = x + x
        y_grads = received_grads(y)
        y.sum().backward()
        y_grad, = y_grads
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))
        assert np.array_equal(y_grad, np.ones((2, 3)))

    def test_add_hands_its_own_gradient_to_the_first_addend(self):
        a, b = rand64(11, (2, 3)), rand64(12, (2, 3))
        y = a + b
        y_grads = received_grads(y)
        (y * rand64(13, (2, 3), requires_grad=False)).sum().backward()
        y_grad, = y_grads
        assert a.grad is y_grad
        assert np.array_equal(b.grad, y_grad) and not np.shares_memory(b.grad, y_grad)

    def test_unreached_values_have_no_grad(self):
        x = rand64(3, (2,))
        y = rand64(4, (2,))
        x.sum().backward()
        assert y.grad is None

    def test_composite_graph_matches_finite_differences(self):
        # independent oracle: central differences in float64
        def build(a, b):
            return ((a * b).sigmoid() + (a - b).relu() + a.abs()).mean()

        a = rand64(7, (4, 4))
        b = rand64(8, (4, 4))
        build(a, b).backward()
        step = 1e-5
        for t in (a, b):
            flat = t.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                with no_grad():
                    flat[i] = orig + step
                    f_plus = build(a, b).item()
                    flat[i] = orig - step
                    f_minus = build(a, b).item()
                flat[i] = orig
                fd[i] = (f_plus - f_minus) / (2 * step)
            ad = t.grad.reshape(-1)
            scale = max(np.abs(ad).max(), np.abs(fd).max(), 1e-12)
            assert np.abs(ad - fd).max() / scale < 1e-6

    def test_no_grad_blocks_recording(self):
        x = rand64(9, (2, 2))
        with no_grad():
            out = (x * x).sum()
        assert not out.requires_grad

    def test_records_graph_is_the_rule_every_op_follows(self):
        leaf, const = rand64(10, (2, 2)), Tensor(np.ones((2, 2)), dtype=np.float64)
        assert not records_graph([])
        for a, b in ((const, const), (const, leaf), (leaf, leaf)):
            assert records_graph([a, b]) == (a * b).requires_grad == (leaf in (a, b))
            with no_grad():
                assert not records_graph([a, b]) and not (a * b).requires_grad

    def test_no_grad_blocks_on_two_threads_each_hold_for_their_own(self):
        # A enters, B enters, A leaves, B leaves: neither exit may undo the other's block
        leaf = rand64(11, (2,))
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def thread_a():
            with no_grad():
                a_in.set()
                assert b_in.wait(10)
            a_out.set()

        def thread_b():
            assert a_in.wait(10)
            with no_grad():
                b_in.set()
                assert a_out.wait(10)
                seen.append(records_graph([leaf]))
            seen.append(records_graph([leaf]))

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == [False, True]
        assert records_graph([leaf])


class TestConcatChannels:
    def test_channel_arithmetic(self):
        a = rand64(10, (2, 2, 3, 4))
        b = rand64(11, (2, 3, 3, 4))
        assert concat_channels([a, b]).shape == (2, 5, 3, 4)

    def test_single_part_identity(self):
        a = rand64(12, (1, 2, 2, 2))
        out = concat_channels([a])
        assert np.array_equal(out.data, a.data)
        assert not np.shares_memory(out.data, a.data)
        out_grads = received_grads(out)
        (out * t64(np.full(a.shape, 3.0))).sum().backward()
        out_grad, = out_grads
        assert np.array_equal(a.grad, np.full(a.shape, 3.0))
        assert not np.shares_memory(a.grad, out_grad)

    def test_gradient_routes_back_to_parts(self):
        a = rand64(13, (1, 2, 2, 2))
        b = rand64(14, (1, 3, 2, 2))
        concat_channels([a, b]).sum().backward()
        assert np.array_equal(a.grad, np.ones(a.shape))
        assert np.array_equal(b.grad, np.ones(b.shape))

    def test_part_gradients_copy_their_slices(self):
        # a part that also feeds another op accumulates into its .grad; were
        # that .grad a view of the concat's gradient, the concat's would change
        a = rand64(17, (1, 2, 2, 2))
        b = rand64(18, (1, 3, 2, 2))
        c = concat_channels([a, b])
        p = rand64(19, c.shape, requires_grad=False)
        q = rand64(20, a.shape, requires_grad=False)
        c_grads = received_grads(c)
        ((c * p).sum() + (a * q).sum()).backward()
        c_grad, = c_grads
        assert np.array_equal(c_grad, p.data)
        assert np.array_equal(a.grad, p.data[:, :2] + q.data)
        assert not np.shares_memory(a.grad, c_grad)

    def test_recorded_op_output_parts_become_views_of_the_output(self):
        leaf, u, v = rand64(21, (2, 2, 2, 2)), rand64(22, (2, 3, 2, 2)), rand64(23, (2, 3, 2, 2))
        op = u * v
        constant = rand64(24, (2, 1, 2, 2), requires_grad=False) * rand64(
            25, (2, 1, 2, 2), requires_grad=False)  # an op output that records nothing
        arrays = [leaf.data, op.data.copy(), constant.data]
        c = concat_channels([leaf, op, constant])
        assert np.shares_memory(op.data, c.data[:, 2:5]) and op.shape == (2, 3, 2, 2)
        assert np.array_equal(op.data, arrays[1])
        assert leaf.data is arrays[0] and constant.data is arrays[2]
        w = rand64(26, c.shape, requires_grad=False)
        (c * w).sum().backward()
        assert np.array_equal(leaf.grad, w.data[:, :2])
        assert np.array_equal(u.grad, w.data[:, 2:5] * v.data)

    def test_no_grad_concat_rebinds_no_part(self):
        op = rand64(27, (1, 2, 2, 2)) * rand64(28, (1, 2, 2, 2))
        data = op.data
        with no_grad():
            c = concat_channels([op, rand64(29, (1, 1, 2, 2))])
        assert op.data is data and not np.shares_memory(op.data, c.data)

    def test_spatial_mismatch_rejected(self):
        a = rand64(15, (1, 2, 4, 4))
        b = rand64(16, (1, 2, 4, 5))
        with pytest.raises(ValueError, match="spatial"):
            concat_channels([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_channels([])


def graph_nodes(root):
    """Every tensor the backward sweep from root reaches, root included."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def model_loss(config, dtype, batch, size, seed):
    """MAE of a model forward pass, as a training step builds it; plus its leaves."""
    params = build_params(config, seed, dtype=dtype)
    x = Tensor(rng.uniform(seed + 1, batch * 3 * size * size).reshape(batch, 3, size, size),
               requires_grad=True, dtype=dtype)
    target = Tensor(rng.uniform(seed + 2, x.size).reshape(x.shape), dtype=dtype)
    return mae_loss(forward(x, config, params), target), [x, *params.named_tensors().values()]


class TestReleaseGraph:
    def test_interior_nodes_cleared_and_leaves_keep_grad(self):
        loss, leaves = model_loss(SMALL, np.float64, 1, 16, 41)
        nodes = graph_nodes(loss)
        interior = [n for n in nodes if n._backward is not None]
        assert len(interior) > 50 and len(interior) + len(leaves) == len(nodes)
        loss.backward()
        for node in interior:
            assert node.grad is None and node._backward is _walked and node._parents == ()
        assert all(leaf.grad is not None for leaf in leaves)

    def test_shared_subgraph_released_after_last_consumer(self):
        # a concat part with a second consumer: its gradient sums both routes
        # before its own backward runs, and that backward frees it
        x = rand64(31, (1, 2, 2, 2))
        a = x + x
        b = rand64(32, (1, 3, 2, 2))
        c = concat_channels([a, b])
        ((c * c).sum() + (a * a).sum()).backward()
        assert np.allclose(x.grad, 16.0 * x.data)
        assert np.array_equal(b.grad, 2.0 * b.data)
        assert a.grad is None and c.grad is None

    def test_second_backward_from_same_root_raises(self):
        # were interior gradients kept, this would compound them into x.grad == [8, 16]
        x = t64([1.0, 2.0], requires_grad=True)
        s = (x * x).sum()
        s.backward()
        with pytest.raises(RuntimeError, match="already walked"):
            s.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_op_on_walked_tensor_raises_before_any_gradient_moves(self):
        x = t64([1.0, 2.0], requires_grad=True)
        w = t64([3.0, 4.0], requires_grad=True)
        y = x * x
        y.sum().backward()
        x.zero_grad()
        with pytest.raises(RuntimeError, match="already walked"):
            (y * w).sum().backward()
        assert x.grad is None and w.grad is None
