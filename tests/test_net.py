"""Dense network: parameter layout, forward oracle, backprop vs finite
differences, optimizer arithmetic, checkpoint round-trips."""

import copy
import math
import pickle
import re
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal, assert_array_max_ulp

from gradtamper.lossgrad import smooth_label_rows, tampered_dlogits
from gradtamper.net import (
    _UPDATE_BLOCK,
    DenseNet,
    backward,
    clip_grads_global,
    forward,
    init_dense_net,
    init_opt_state,
    load_checkpoint,
    param_count,
    row_norms,
    save_checkpoint,
    sgd_step,
    stack_nets,
)
from helpers import (
    analytic_param_grad,
    fd_param_grad,
    kink_free_case,
    max_rel_err,
    net_loss,
)


class TestInit:
    def test_shapes_and_activations(self):
        net = init_dense_net([20, 64, 32, 10], np.random.default_rng(0))
        assert [l.weights.shape for l in net.layers] == [(64, 20), (32, 64), (10, 32)]
        assert [l.activation for l in net.layers] == ["relu", "relu", "identity"]
        assert all(np.all(l.biases == 0) for l in net.layers)
        assert net.sizes == (20, 64, 32, 10)

    def test_fan_in_bound(self):
        net = init_dense_net([50, 30, 5], np.random.default_rng(1))
        for layer in net.layers:
            bound = np.sqrt(6.0 / layer.weights.shape[1])
            assert np.all(np.abs(layer.weights) <= bound)

    def test_seeded_determinism(self):
        a = init_dense_net([8, 4, 3], np.random.default_rng(7))
        b = init_dense_net([8, 4, 3], np.random.default_rng(7))
        for la, lb in zip(a.layers, b.layers):
            assert_array_equal(la.weights, lb.weights)

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            init_dense_net([5], np.random.default_rng(0))

    @pytest.mark.parametrize("sizes", [[2.5, 3], [4, True, 3], [4, 0, 3]])
    def test_sizes_must_be_positive_integers(self, sizes):
        with pytest.raises(ValueError, match="integers"):
            init_dense_net(sizes, np.random.default_rng(0))


class TestLayout:
    def test_layers_are_views_in_checkpoint_order(self):
        net = init_dense_net([5, 4, 3], np.random.default_rng(3))
        assert net.params.dtype == np.float64 and net.params.shape == (4 * 5 + 4 + 3 * 4 + 3,)
        pos = 0
        for layer in net.layers:
            for part in (layer.weights, layer.biases):
                assert np.shares_memory(part, net.params)
                assert_array_equal(part.ravel(), net.params[pos : pos + part.size])
                pos += part.size
        assert pos == net.params.size

    def test_params_write_reaches_forward(self):
        net = init_dense_net([3, 4, 2], np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(6, 3))
        before, _ = forward(net, x)
        net.params[-1] += 1.0  # the last layer's last bias
        after, _ = forward(net, x)
        assert_array_equal(after[:, 0], before[:, 0])
        assert_allclose(after[:, 1], before[:, 1] + 1.0, rtol=0, atol=1e-15)

    def test_deepcopy_is_tied_and_independent(self):
        net = init_dense_net([3, 4, 2], np.random.default_rng(6))
        original = net.params.copy()
        clone = copy.deepcopy(net)
        assert_array_equal(clone.params, original)
        clone.params[0] += 1.0
        assert clone.layers[0].weights[0, 0] == original[0] + 1.0
        assert_array_equal(net.params, original)
        for a, b in zip(net.layers, clone.layers):
            assert np.shares_memory(b.weights, clone.params)
            assert np.shares_memory(b.biases, clone.params)
            assert not np.shares_memory(b.weights, net.params)
            assert a.activation == b.activation

    # Both rebuild through the constructor, from the params alone; a cell of a
    # stack is a view of the stack's params, and its clone is not.
    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_clone_views_its_own_params(self, clone):
        rng = np.random.default_rng(7)
        stack = stack_nets([init_dense_net([3, 4, 2], rng) for _ in range(2)])
        net = clone(stack.cell(1))
        assert_array_equal(net.params, stack.params[1])
        net.params[...] = 2.0
        assert all(np.all(w == 2.0) and np.all(b == 2.0) for w, b, _ in net.layers)
        assert not np.any(stack.params == 2.0)  # the stack is untouched


class TestRecord:
    """A net is its ``params``, ``sizes`` and ``activations``; its layers are
    views made once, at construction."""

    def test_nothing_can_be_rebound(self):
        net = init_dense_net([3, 4, 2], np.random.default_rng(7))
        for target, name in ((net, "params"), (net, "sizes"), (net, "layers"),
                             (net.layers[0], "weights"), (net.layers[1], "biases")):
            with pytest.raises(AttributeError):
                setattr(target, name, np.zeros(3))
        assert net.layers is net.layers  # built once, not per access

    def test_init_draws_as_layer_by_layer_arrays(self):
        rng = np.random.default_rng(8)
        want = [rng.uniform(-math.sqrt(6.0 / fan_in), math.sqrt(6.0 / fan_in), size=(fan_out, fan_in))
                for fan_in, fan_out in ((5, 4), (4, 3))]
        net = init_dense_net([5, 4, 3], np.random.default_rng(8))
        assert net.sizes == (5, 4, 3) and net.activations == ("relu", "identity")
        assert net.params.size == param_count(net.sizes) == 4 * 6 + 3 * 5
        for layer, w in zip(net.layers, want):
            assert_array_equal(layer.weights.view(np.int64), w.view(np.int64))

    @pytest.mark.parametrize(
        "params, sizes, activations, message",
        [
            (np.zeros(10), (3, 2), ("identity",), "do not fit sizes (3, 2)"),
            (np.zeros((2, 3, 8)), (3, 2), ("identity",), "do not fit sizes"),
            (np.zeros(8), (3.0, 2), ("identity",), "integers >= 1"),
            (np.zeros(8), (3, True), ("identity",), "integers >= 1"),
            (np.zeros(8), (3, 2), ("tanh",), "unknown activation 'tanh'"),
            (np.zeros(8), (3, 2), ("relu", "identity"), "1 layers need as many activations"),
            (np.full(8, math.nan), (3, 2), ("identity",), "NaN or Inf"),
            (np.r_[np.zeros(7), math.inf], (3, 2), ("relu",), "NaN or Inf"),
        ],
        ids=["width", "rank", "float-size", "bool-size", "activation", "activation-count", "nan",
             "inf-bias"],
    )
    def test_bad_record_rejected(self, params, sizes, activations, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DenseNet(params, sizes, activations)

    def test_record_views_the_params_it_is_given(self):
        params = np.arange(8.0)
        net = DenseNet(params, (3, 2), ("identity",))
        assert net.params is params
        assert_array_equal(net.layers[0].weights, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        assert_array_equal(net.layers[0].biases, [6.0, 7.0])
        strided = DenseNet(np.arange(16.0)[::2], (3, 2), ("identity",))  # copied, then viewed
        assert all(np.shares_memory(part, strided.params) for part in strided.layers[0][:2])

    def test_cell_of_a_stack_is_its_row(self):
        nets = [init_dense_net([4, 3, 2], np.random.default_rng(s)) for s in (1, 2, 3)]
        stack = stack_nets(nets)
        assert not any(np.shares_memory(stack.params, net.params) for net in nets)
        for s, net in enumerate(nets):
            cell = stack.cell(s)
            assert np.shares_memory(cell.params, stack.params)
            assert_array_equal(cell.params.view(np.int64), net.params.view(np.int64))
            assert (cell.sizes, cell.activations) == (net.sizes, net.activations)

    def test_stack_needs_one_architecture(self):
        # [2, 1, 2] holds as many parameters as [1, 2, 1]: np.stack alone would pass.
        rng = np.random.default_rng(0)
        for other in (init_dense_net([1, 2, 1], rng, "identity"), init_dense_net([2, 1, 2], rng)):
            with pytest.raises(ValueError, match="one architecture"):
                stack_nets([init_dense_net([1, 2, 1], rng), other])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="a stack needs at least one net"):
            stack_nets([])


class TestForward:
    def test_single_identity_layer_is_affine_map(self):
        w = np.array([[1.0, -2.0], [0.5, 0.25], [3.0, 1.0]])
        b = np.array([0.1, -0.2, 0.0])
        net = DenseNet(np.r_[w.ravel(), b], (2, 3), ("identity",))
        x = np.array([[2.0, 1.0], [-1.0, 3.0]])
        logits, cache = forward(net, x)
        # independent elementwise evaluation
        expected = np.empty((2, 3))
        for i in range(2):
            for j in range(3):
                expected[i, j] = w[j, 0] * x[i, 0] + w[j, 1] * x[i, 1] + b[j]
        assert_allclose(logits, expected, rtol=0, atol=1e-15)
        assert_array_equal(cache[0][0], x)

    def test_relu_zeroes_negative_preactivations(self):
        w = np.array([[1.0], [-1.0]])
        params = np.r_[w.ravel(), np.zeros(2), np.eye(2).ravel(), np.zeros(2)]
        net = DenseNet(params, (1, 2, 2), ("relu", "identity"))
        logits, cache = forward(net, np.array([[3.0]]))
        assert_array_equal(cache[0][1], [[3.0, -3.0]])  # preactivations
        assert_array_equal(logits, [[3.0, 0.0]])

    def test_bad_batch_shape_rejected(self):
        net = init_dense_net([4, 3], np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            forward(net, np.zeros(4))  # must be 2-D


class TestBackward:
    @pytest.mark.parametrize("sizes", [[5, 3], [5, 8, 3], [5, 8, 6, 3]])
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_matches_finite_differences(self, sizes, activation):
        rng = np.random.default_rng(42)
        net, x, y = kink_free_case(rng, sizes, activation, batch=12)
        analytic = analytic_param_grad(net, x, y)
        fd = fd_param_grad(net, x, y)
        # floor 1e-3: parameter gradients are O(0.01-1); below the floor the
        # check is absolute at 1e-9, far above the ~1e-11 FD noise.
        assert max_rel_err(analytic, fd, floor=1e-3) < 1e-6

    def test_matches_finite_differences_with_smoothing(self):
        rng = np.random.default_rng(43)
        net, x, y = kink_free_case(rng, [4, 6, 3], "relu", batch=10)
        analytic = analytic_param_grad(net, x, y, eps=0.1)
        fd = fd_param_grad(net, x, y, eps=0.1)
        assert max_rel_err(analytic, fd, floor=1e-3) < 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_tampered_gradient_matches_surrogate_loss(self, alpha):
        # The tampered backward pass is exactly the gradient of
        # (1/alpha) CE(softmax(alpha * logits)), so finite differences of that
        # surrogate must reproduce it through the whole network.
        rng = np.random.default_rng(44)
        net, x, y = kink_free_case(rng, [4, 7, 3], "relu", batch=9)
        analytic = analytic_param_grad(net, x, y, alpha=alpha)
        fd = fd_param_grad(net, x, y, alpha=alpha)
        assert max_rel_err(analytic, fd, floor=1e-3) < 1e-6

    def test_dlogits_shape_mismatch_rejected(self):
        rng = np.random.default_rng(46)
        net = init_dense_net([3, 2], rng)
        _, cache = forward(net, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((4, 3)))


class TestSgd:
    def test_two_step_nesterov_unroll_exact(self):
        # Single 1x1 weight, bias-free gradient; replicate the update rule
        # with scalar arithmetic in the same operation order.
        net = DenseNet(np.array([2.0, 0.5]), (1, 1), ("identity",))
        state = init_opt_state(net, momentum=0.9, weight_decay=5e-4, nesterov=True)
        w, b = 2.0, 0.5
        vw = vb = 0.0
        for lr, (dw, db) in [(0.1, (0.3, -0.2)), (0.05, (-0.1, 0.4))]:
            sgd_step(net, np.array([dw, db]), state, lr)
            gw = dw + 5e-4 * w
            gb = db + 5e-4 * b
            vw = 0.9 * vw + gw
            vb = 0.9 * vb + gb
            w -= lr * (gw + 0.9 * vw)
            b -= lr * (gb + 0.9 * vb)
        assert net.layers[0].weights[0, 0] == w
        assert net.layers[0].biases[0] == b

    def test_plain_sgd_is_w_minus_lr_g(self):
        net = DenseNet(np.array([1.0, 2.0, 0.0]), (2, 1), ("identity",))
        state = init_opt_state(net, momentum=0.0, weight_decay=0.0, nesterov=False)
        g = np.array([[0.5, -1.0]])
        sgd_step(net, np.r_[g.ravel(), 0.0], state, 0.1)
        assert_array_equal(net.layers[0].weights, np.array([[1.0, 2.0]]) - 0.1 * g)

    def test_velocity_buffers_updated_in_place(self):
        rng = np.random.default_rng(50)
        net = init_dense_net([3, 2], rng)
        state = init_opt_state(net, momentum=0.9, weight_decay=0.0)
        before = state.velocity
        sgd_step(net, np.ones(8), state, 0.01)
        assert state.velocity is before  # same buffer
        assert_array_equal(state.velocity, np.ones(8))

    def test_nonpositive_lr_rejected(self):
        net = init_dense_net([2, 2], np.random.default_rng(0))
        state = init_opt_state(net)
        with pytest.raises(ValueError):
            sgd_step(net, np.zeros(6), state, 0.0)

    @pytest.mark.parametrize("lr", [np.array(0.1), np.array([0.1, 0.2])])
    def test_lr_array_rejected(self, lr):
        net = init_dense_net([2, 2], np.random.default_rng(0))
        before = net.params.copy()
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(net, np.ones(6), init_opt_state(net), lr)
        assert_array_equal(net.params, before)

    @pytest.mark.parametrize("lr", [math.inf, -math.inf, math.nan])
    def test_non_finite_lr_rejected(self, lr):
        net = init_dense_net([2, 2], np.random.default_rng(0))
        before = net.params.copy()
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(net, np.ones(6), init_opt_state(net), lr)
        assert_array_equal(net.params, before)

    @pytest.mark.parametrize(
        "settings",
        [
            dict(momentum=1.0),
            dict(momentum=1.5),
            dict(momentum=-0.1),
            dict(momentum=math.nan),
            dict(weight_decay=-1.0),
            dict(weight_decay=math.inf),
            dict(weight_decay=math.nan),
            dict(nesterov="no"),
            dict(nesterov=1),
        ],
    )
    def test_bad_settings_rejected(self, settings):
        net = init_dense_net([2, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            init_opt_state(net, **settings)

    def test_wrong_gradient_shape_rejected(self):
        net = init_dense_net([2, 2], np.random.default_rng(0))
        state = init_opt_state(net)
        for bad in (np.zeros(5), np.zeros(7), np.zeros((1, 6))):
            with pytest.raises(ValueError):
                sgd_step(net, bad, state, 0.1)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(51)
        x = rng.normal(0, 1, size=(64, 5))
        y = (x.sum(axis=1) > 0).astype(int)
        net = init_dense_net([5, 16, 2], rng)
        state = init_opt_state(net)
        first = net_loss(net, x, y)
        for _ in range(60):
            logits, cache = forward(net, x)
            d = tampered_dlogits(logits, smooth_label_rows(2, 0.0)[y], 1.0) / 64
            sgd_step(net, backward(net, cache, d), state, 0.1)
        assert net_loss(net, x, y) < first * 0.5


class TestBlockedSgd:
    """``sgd_step`` works in blocks; its bits are the whole-vector update's."""

    # 300*220+220 + 220*10+10 = 68,430 parameters: two full blocks and a ragged tail.
    SIZES = [300, 220, 10]

    @staticmethod
    def whole_vector_step(params, grads, velocity, lr, mu, wd, nesterov):
        g = grads + wd * params if wd else grads
        velocity *= mu
        velocity += g
        params -= lr * (g + mu * velocity) if nesterov else lr * velocity

    @pytest.mark.parametrize("cells", [None, 3])
    @pytest.mark.parametrize("nesterov", [True, False])
    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    def test_matches_the_whole_vector_expression(self, cells, nesterov, wd):
        rng = np.random.default_rng(90)
        nets = [init_dense_net(self.SIZES, rng) for _ in range(cells or 1)]
        net = stack_nets(nets) if cells else nets[0]
        assert 2 * _UPDATE_BLOCK < net.params.shape[-1] < 3 * _UPDATE_BLOCK
        state = init_opt_state(net, momentum=0.9, weight_decay=wd, nesterov=nesterov)
        state.velocity[...] = rng.normal(size=state.velocity.shape)
        params, velocity = net.params.copy(), state.velocity.copy()
        for lr in (0.1, 0.05, 0.3):
            grads = rng.normal(size=net.params.shape)
            sgd_step(net, grads, state, lr)
            self.whole_vector_step(params, grads, velocity, lr, 0.9, wd, nesterov)
            assert_array_equal(net.params.view(np.int64), params.view(np.int64))
            assert_array_equal(state.velocity.view(np.int64), velocity.view(np.int64))

    def test_a_step_allocates_less_than_one_parameter_vector(self):
        net = init_dense_net([784, 256, 10], np.random.default_rng(91))
        state = init_opt_state(net)
        grads = np.random.default_rng(92).normal(size=net.params.shape)
        tracemalloc.start()
        try:
            sgd_step(net, grads, state, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < net.params.nbytes


class TestGradUtils:
    def test_clip_scales_to_target_norm(self):
        grads = np.r_[np.full(4, 3.0), np.zeros(2)]  # norm 6
        clipped = clip_grads_global(grads, 1.5)
        assert_allclose(np.linalg.norm(clipped), 1.5, rtol=1e-15)
        assert_array_equal(clipped, grads * (1.5 / 6.0))

    def test_clip_leaves_short_gradients_alone(self):
        grads = np.r_[np.full(4, 0.1), np.zeros(2)]
        assert clip_grads_global(grads, 10.0) is grads

    def test_clip_reads_a_list(self):
        assert_array_equal(clip_grads_global([3.0, 4.0], 10.0), [3.0, 4.0])
        assert_array_max_ulp(clip_grads_global([3.0, 4.0], 1.0), np.array([0.6, 0.8]), maxulp=1)

    def test_clip_of_a_vector_whose_squares_overflow(self):
        # (4e154)**2 overflows float64; the norm, 5e154, does not.
        clipped = clip_grads_global(np.array([3e154, 4e154]), 1.0)
        assert_array_max_ulp(clipped, np.array([0.6, 0.8]), maxulp=4)

    def test_clip_of_a_row_with_an_inf_or_nan_entry_is_unchanged(self):
        # Such a row's norm is inf or NaN; its result is the plain scaling's,
        # grads * (bound / norm), bit for bit.
        grads = np.array([[np.inf, 1.0, -2.0], [np.nan, 1.0, 0.0], [3.0, 4.0, 0.0]])
        with np.errstate(invalid="ignore"):  # inf * 0
            clipped = clip_grads_global(grads, 1.0)
            want = grads * np.array([[1.0 / np.inf], [np.nan], [1.0 / 5.0]])
        assert_array_equal(clipped.view(np.int64), want.view(np.int64))


class TestRowNorms:
    def test_plain_rows_give_the_sum_of_squares(self):
        x = np.random.default_rng(87).normal(size=(2, 5, 7)) * 1e3
        norms = row_norms(x)
        assert norms.shape == (2, 5, 1)
        assert_array_equal(norms, np.sqrt((x * x).sum(axis=-1, keepdims=True)))
        assert_array_equal(norms, np.linalg.norm(x, axis=-1, keepdims=True))
        assert_array_equal(row_norms(x[0, 0]), norms[0, 0])

    def test_finite_rows_whose_squares_overflow(self):
        # Under the suite's warnings-as-errors: no overflow warning either.
        x = np.array([[3e154, 4e154], [1e308, 1e308], [1.0, 2.0], [1.5e308, 1.5e308]])
        norms = row_norms(x)[:, 0]
        assert_array_max_ulp(norms[:3], np.hypot(x[:3, 0], x[:3, 1]), maxulp=2)
        assert norms[3] == np.inf  # its norm exceeds the float64 range
        assert_array_equal(row_norms(x[0]), [norms[0]])

    def test_rows_with_inf_or_nan_keep_the_plain_result(self):
        x = np.array([[np.inf, 1e200], [-np.inf, 1.0], [np.nan, 1e200], [np.nan, np.inf]])
        with np.errstate(over="ignore"):
            plain = np.sqrt((x * x).sum(axis=-1, keepdims=True))
        assert_array_equal(row_norms(x), plain)


class TestStack:
    """A stack of cells gives, cell by cell, the bits of the unstacked calls."""

    SIZES = [6, 16, 8, 4]

    def cells(self):
        return [init_dense_net(self.SIZES, np.random.default_rng(seed)) for seed in (80, 81, 82)]

    def test_layers_are_views_of_the_stacked_params(self):
        cells = self.cells()
        net = stack_nets(cells)
        assert net.params.shape == (3, cells[0].params.size)
        assert net.layers[1].weights.shape == (3, 8, 16)
        for s, cell in enumerate(cells):
            assert_array_equal(net.params[s], cell.params)
            view = net.cell(s)
            assert np.shares_memory(view.params, net.params)
            assert np.shares_memory(view.layers[0].weights, net.params)
            assert_array_equal(view.layers[2].biases, cell.layers[2].biases)

    def test_forward_backward_sgd_match_each_cell(self):
        rng = np.random.default_rng(83)
        cells = self.cells()
        net = stack_nets(cells)
        x = rng.normal(size=(3, 10, 6))
        logits, cache = forward(net, x)
        d = rng.normal(size=logits.shape)
        grads = backward(net, cache, d)
        state = init_opt_state(net)
        state.velocity[...] = rng.normal(size=state.velocity.shape)
        velocity = state.velocity.copy()
        sgd_step(net, grads, state, 0.05)
        for s, cell in enumerate(cells):
            cell_logits, cell_cache = forward(cell, x[s])
            assert_array_equal(logits[s], cell_logits)
            cell_grads = backward(cell, cell_cache, d[s])
            assert_array_equal(grads[s], cell_grads)
            cell_state = init_opt_state(cell)
            cell_state.velocity[...] = velocity[s]
            sgd_step(cell, cell_grads, cell_state, 0.05)
            assert_array_equal(net.params[s], cell.params)
            assert_array_equal(state.velocity[s], cell_state.velocity)

    def test_relu_mask_keeps_the_bits_of_a_bool_product(self):
        # An all-ReLU stack, so the logit gradient meets a mask too.  Units 0
        # and 1 are off in every row, where a negative d gives -0.0 and a NaN
        # or inf in d gives NaN.  The sums that follow turn -0.0 into 0.0, so
        # it is cells 0 and 1, with a NaN and an inf, that tell apart a mask
        # that writes 0.0 instead (np.where).
        rng = np.random.default_rng(84)
        stack = stack_nets(self.cells())
        net = DenseNet(stack.params, stack.sizes, ("relu",) * len(stack.activations))
        logits, cache = forward(net, rng.normal(size=(3, 10, 6)))
        for _, s in cache:
            s[..., 0] = rng.choice([-1.0, 0.0, -0.0, math.nan], size=s.shape[:-1])
            s[..., 1] = 0.0
        d = np.where(cache[-1][1] > 0.0, rng.normal(size=logits.shape), -rng.random(logits.shape))
        d[0, 0, 1] = math.nan
        d[1, 0, 0] = math.inf
        ref = copy.deepcopy(net)  # filled layer by layer as backward would, with the bool product
        ref_cache = copy.deepcopy(cache)  # backward consumes its cache
        with np.errstate(invalid="ignore"):  # inf * 0.0, as in the training loop
            grads = backward(net, cache, d)
            for k in range(len(net.layers) - 1, -1, -1):
                inp, s = ref_cache[k]
                ds = d * (s > 0.0)
                np.matmul(np.swapaxes(ds, -1, -2), inp, out=ref.layers[k].weights)
                ds.sum(axis=-2, out=ref.layers[k].biases)
                d = ds @ net.layers[k].weights
        assert_array_equal(grads.view(np.int64), ref.params.view(np.int64))

    def test_batch_needs_the_cell_axis(self):
        net = stack_nets(self.cells())
        for bad in (np.zeros((10, 6)), np.zeros((2, 10, 6)), np.zeros((3, 10, 5))):
            with pytest.raises(ValueError, match="incompatible"):
                forward(net, bad)

    def test_clip_scales_only_the_rows_that_exceed(self):
        rng = np.random.default_rng(84)
        grads = rng.normal(size=(3, 50))
        grads[1] *= 1e-3  # short: left alone
        clipped = clip_grads_global(grads, 1.0)
        assert clipped is not grads
        for s in range(3):
            assert_array_equal(clipped[s], clip_grads_global(grads[s], 1.0))
        assert_array_equal(clipped[1], grads[1])
        short = grads * 1e-3
        assert clip_grads_global(short, 1.0) is short

    def test_clip_of_an_overflowing_row_leaves_its_neighbours_bits(self):
        rng = np.random.default_rng(86)
        grads = rng.normal(size=(3, 50))
        grads[1] *= 1e160  # its squares overflow
        clipped = clip_grads_global(grads, 1.0)
        for s in (0, 2):  # the plain sum of squares, as before overflow was handled
            want = grads[s] * (1.0 / np.sqrt((grads[s] * grads[s]).sum()))
            assert_array_equal(clipped[s].view(np.int64), want.view(np.int64))
        unscaled = grads[1] / 1e160
        assert_allclose(clipped[1], unscaled / np.linalg.norm(unscaled), rtol=1e-14)

    def test_clip_takes_one_norm_per_cell(self):
        rng = np.random.default_rng(85)
        grads = rng.normal(size=(4, 7))
        norms = np.array([[0.5], [100.0], [1.5], [2.0]])
        clipped = clip_grads_global(grads, norms)
        for s in range(4):
            assert_array_equal(clipped[s], clip_grads_global(grads[s], float(norms[s, 0])))
        for bad in (norms[:, 0], norms[:3], np.array([[1.0], [0.0], [1.0], [1.0]])):
            with pytest.raises(ValueError, match="clip norm"):
                clip_grads_global(grads, bad)

    def test_cell_needs_a_stack_and_checkpoint_refuses_one(self, tmp_path):
        net = stack_nets(self.cells())
        with pytest.raises(ValueError, match="stacked"):
            save_checkpoint(net, tmp_path / "net.ckpt")
        assert not (tmp_path / "net.ckpt").exists()
        with pytest.raises(ValueError, match="stacked"):
            init_dense_net([2, 2], np.random.default_rng(0)).cell(0)
        save_checkpoint(net.cell(1), tmp_path / "cell.ckpt")
        assert_array_equal(load_checkpoint(tmp_path / "cell.ckpt").params, net.params[1])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        net = init_dense_net([7, 5, 4, 3], rng)
        # make biases non-trivial so the round-trip covers them
        for layer in net.layers:
            layer.biases[...] = rng.normal(size=layer.biases.shape)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert_array_equal(loaded.params, net.params)
        assert loaded.params.flags.writeable
        assert len(loaded.layers) == len(net.layers)
        for a, b in zip(net.layers, loaded.layers):
            assert a.activation == b.activation
            assert_array_equal(a.weights, b.weights)
            assert_array_equal(a.biases, b.biases)

    def test_save_load_save_identical_bytes(self, tmp_path):
        net = init_dense_net([4, 3], np.random.default_rng(71))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "name, reason",
        [("missing.ckpt", "No such file or directory"), (".", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_unreadable_file_named_with_path(self, tmp_path, name, reason):
        path = tmp_path / name
        with pytest.raises(ValueError, match=re.escape(f"{path}: cannot read checkpoint: {reason}")):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNK" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "offset, fmt, value, message",
        [(4, "<I", 2, "unsupported checkpoint version 2"),
         (12, "<B", 7, "unknown activation code 7 at byte 12")],
        ids=["version", "activation-code"],
    )
    def test_unreadable_header_field_rejected(self, tmp_path, offset, fmt, value, message):
        path = tmp_path / "net.ckpt"
        save_checkpoint(init_dense_net([2, 2], np.random.default_rng(73)), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_every_truncation_named_with_path_and_offset(self, tmp_path):
        # A 3-4-2 checkpoint: magic [0, 4), header [4, 12), then per layer a
        # 9-byte header, its weights and its biases.
        path = tmp_path / "net.ckpt"
        save_checkpoint(init_dense_net([3, 4, 2], np.random.default_rng(74)), path)
        blob = path.read_bytes()
        parts = [(0, "magic"), (4, "header"), (12, "layer 0 header"), (21, "layer 0 weights"),
                 (117, "layer 0 biases"), (149, "layer 1 header"), (158, "layer 1 weights"),
                 (222, "layer 1 biases"), (238, None)]
        assert len(blob) == parts[-1][0]
        cut = tmp_path / "cut.ckpt"
        for (start, what), (end, _) in zip(parts, parts[1:]):
            for size in range(start, end):
                cut.write_bytes(blob[:size])
                message = (f"{cut}: truncated {what} at byte {start}: "
                           f"needs {end - start} bytes, {size - start} remain")
                with pytest.raises(ValueError, match=re.escape(message)):
                    load_checkpoint(cut)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda a, b: a[:8] + struct.pack("<I", 0), "network needs at least one layer"),
         (lambda a, b: a[:21] + struct.pack("<d", np.nan) + a[29:],
          "layer parameters contain NaN or Inf"),
         (lambda a, b: a[:69] + b[12:], "layer input size 3 does not match previous output size 2"),
         (lambda a, b: a[:8] + struct.pack("<IBII", 1, 0, 0, 2),
          "need an input and an output size, all integers >= 1, got [2, 0]")],
        ids=["no-layers", "nan-weight", "layers-do-not-chain", "zero-width"],
    )
    def test_rejected_layers_named_with_path(self, tmp_path, edit, message):
        # ``a`` is a 2-2-2 checkpoint: magic and header [0, 12), layer 0's
        # header [12, 21), weights [21, 53) and biases [53, 69), then layer 1;
        # ``b`` is a 3-2 one, whose layer starts at byte 12.
        rng = np.random.default_rng(75)
        path, other = tmp_path / "net.ckpt", tmp_path / "other.ckpt"
        save_checkpoint(init_dense_net([2, 2, 2], rng), path)
        save_checkpoint(init_dense_net([3, 2], rng), other)
        path.write_bytes(edit(path.read_bytes(), other.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = init_dense_net([2, 2], np.random.default_rng(72))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)
