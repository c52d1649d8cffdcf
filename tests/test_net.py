"""Dense network: forward oracle, backprop vs finite differences, optimizer
arithmetic, checkpoint round-trips."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gradtamper.lossgrad import smooth_label_rows, tampered_dlogits
from gradtamper.net import (
    DenseLayer,
    DenseNet,
    backward,
    clip_grads_global,
    forward,
    global_grad_norm,
    init_dense_net,
    init_opt_state,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
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
        assert net.input_dim == 20 and net.num_classes == 10

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


class TestForward:
    def test_single_identity_layer_is_affine_map(self):
        w = np.array([[1.0, -2.0], [0.5, 0.25], [3.0, 1.0]])
        b = np.array([0.1, -0.2, 0.0])
        net = DenseNet([DenseLayer(w, b)])
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
        net = DenseNet(
            [DenseLayer(w, np.zeros(2), "relu"), DenseLayer(np.eye(2), np.zeros(2))]
        )
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
        net = DenseNet([DenseLayer(np.array([[2.0]]), np.array([0.5]))])
        state = init_opt_state(net, momentum=0.9, weight_decay=5e-4, nesterov=True)
        w, b = 2.0, 0.5
        vw = vb = 0.0
        for lr, (dw, db) in [(0.1, (0.3, -0.2)), (0.05, (-0.1, 0.4))]:
            sgd_step(net, [(np.array([[dw]]), np.array([db]))], state, lr)
            gw = dw + 5e-4 * w
            gb = db + 5e-4 * b
            vw = 0.9 * vw + gw
            vb = 0.9 * vb + gb
            w -= lr * (gw + 0.9 * vw)
            b -= lr * (gb + 0.9 * vb)
        assert net.layers[0].weights[0, 0] == w
        assert net.layers[0].biases[0] == b

    def test_plain_sgd_is_w_minus_lr_g(self):
        net = DenseNet([DenseLayer(np.array([[1.0, 2.0]]), np.array([0.0]))])
        state = init_opt_state(net, momentum=0.0, weight_decay=0.0, nesterov=False)
        g = np.array([[0.5, -1.0]])
        sgd_step(net, [(g, np.zeros(1))], state, 0.1)
        assert_array_equal(net.layers[0].weights, np.array([[1.0, 2.0]]) - 0.1 * g)

    def test_velocity_buffers_updated_in_place(self):
        rng = np.random.default_rng(50)
        net = init_dense_net([3, 2], rng)
        state = init_opt_state(net, momentum=0.9, weight_decay=0.0)
        before = [vw for vw, _ in state.velocities]
        g = [(np.ones((2, 3)), np.ones(2))]
        sgd_step(net, g, state, 0.01)
        assert state.velocities[0][0] is before[0]  # same buffer
        assert_array_equal(state.velocities[0][0], np.ones((2, 3)))

    def test_nonpositive_lr_rejected(self):
        net = init_dense_net([2, 2], np.random.default_rng(0))
        state = init_opt_state(net)
        with pytest.raises(ValueError):
            sgd_step(net, [(np.zeros((2, 2)), np.zeros(2))], state, 0.0)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(51)
        x = rng.normal(0, 1, size=(64, 5))
        y = (x.sum(axis=1) > 0).astype(int)
        net = init_dense_net([5, 16, 2], rng)
        state = init_opt_state(net)
        first = net_loss(net, x, y)
        for _ in range(60):
            logits, cache = forward(net, x)
            d = tampered_dlogits(logits, smooth_label_rows(y, 2, 0.0), 1.0) / 64
            sgd_step(net, backward(net, cache, d), state, 0.1)
        assert net_loss(net, x, y) < first * 0.5


class TestGradUtils:
    def test_global_norm_matches_concatenation(self):
        rng = np.random.default_rng(60)
        grads = [(rng.normal(size=(3, 4)), rng.normal(size=3)),
                 (rng.normal(size=(2, 3)), rng.normal(size=2))]
        flat = np.concatenate([np.r_[dw.ravel(), db] for dw, db in grads])
        assert_allclose(global_grad_norm(grads), np.linalg.norm(flat), rtol=1e-15)

    def test_clip_scales_to_target_norm(self):
        grads = [(np.full((2, 2), 3.0), np.zeros(2))]  # norm 6
        clipped = clip_grads_global(grads, 1.5)
        assert_allclose(global_grad_norm(clipped), 1.5, rtol=1e-15)
        assert_allclose(clipped[0][0], grads[0][0] * (1.5 / 6.0), rtol=0, atol=0)

    def test_clip_leaves_short_gradients_alone(self):
        grads = [(np.ones((2, 2)) * 0.1, np.zeros(2))]
        assert clip_grads_global(grads, 10.0) is grads


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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNK" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = init_dense_net([2, 2], np.random.default_rng(72))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)
