"""Softmax, logsumexp cross-entropy, label smoothing, the logit gradient,
and global-norm clipping.

Gradient checks compare the closed forms against central finite differences
of the actual loss function; point values are frozen 50-digit evaluations.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from gradtamper.harness import _SAFE_LOGIT
from gradtamper.lossgrad import (
    batch_cross_entropy,
    cross_entropy_rows,
    log_softmax,
    smooth_label_rows,
    softmax,
    tampered_dlogits,
)
from gradtamper.net import clip_grads_global
from gradtamper.transform import transform_probabilities
from helpers import central_diff, cross_entropy_mp, max_rel_err, softmax_mp

Z3 = np.array([1.0, 2.0, 3.0])

# mpmath (dps=50), frozen.
SOFTMAX_Z3 = [0.09003057317038045799802, 0.244728471054797652473, 0.665240955774821889529]
SOFTMAX_Z4 = [
    0.07161888037172126013218,
    0.01244549526769968471187,
    0.8724965776008387863697,
    0.04343904675974026878625,
]
CE_P3_Y0 = 0.35667494393873237891  # -log(0.7)
CE_P3_Y0_EPS01 = 0.51660859981626651428
CE_SOFTMAX_Z3_Y0 = 2.407605964444380304483
TAMPERED_GRAD_A05 = [0.18632372322584757702, 0.30719588571849839707, -0.4935196089443459741]
TAMPERED_GRAD_A03 = [0.2396944792058497716217, 0.3235537038833594441728, -0.5632481830892092157945]
# softmax(0.01 * [0, -800, -5]): softmax of the raw logits has an exact zero
# in the middle, the scaled logits do not.
WIDE_Z = np.array([0.0, -800.0, -5.0])
WIDE_SOFTMAX_A001 = [0.51240930116923942, 0.00017189417073192269, 0.48741880466002866]


def one_hot(target, c, eps=0.0):
    return smooth_label_rows(np.array([target]), c, eps)


def row_loss(z, q_row):
    return batch_cross_entropy(np.asarray(z)[None, :], q_row[None, :])


class TestSoftmax:
    def test_frozen_values(self):
        assert_allclose(softmax(Z3), SOFTMAX_Z3, rtol=0, atol=5e-16)
        assert_allclose(softmax([0.5, -1.25, 3.0, 0.0]), SOFTMAX_Z4, rtol=0, atol=5e-16)

    def test_matches_mpmath_on_random_logits(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.normal(0, 5, size=int(rng.integers(2, 15)))
            assert_allclose(softmax(z), softmax_mp(z), rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        z = np.array([3.0, -1.0, 0.5, 7.25])
        assert_allclose(softmax(z + 123.456), softmax(z), rtol=0, atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        out = softmax(np.array([1000.0, 1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert_allclose(out[:2], 0.5, rtol=0, atol=1e-15)

    def test_batched_matches_rowwise(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 5))
        batched = softmax(z, axis=-1)
        for i in range(6):
            assert_array_equal(batched[i], softmax(z[i]))

    def test_rejects_nonfinite(self):
        for bad in ([np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValueError):
                softmax(np.array(bad))


class TestLabels:
    def test_one_hot(self):
        assert_array_equal(one_hot(1, 3), [[0.0, 1.0, 0.0]])

    def test_smoothing_splits_epsilon_evenly(self):
        q = one_hot(0, 3, 0.1)[0]
        assert q[0] == 1.0 - 0.1
        assert q[1] == q[2] == 0.1 / 2
        assert_allclose(q.sum(), 1.0, rtol=0, atol=1e-15)

    def test_rows_match_single(self):
        rows = smooth_label_rows(np.array([2, 0, 1]), 4, 0.2)
        for i, y in enumerate([2, 0, 1]):
            assert_array_equal(rows[i], one_hot(y, 4, 0.2)[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            smooth_label_rows(np.array([0]), 3, 1.0)
        with pytest.raises(ValueError):
            smooth_label_rows(np.array([0]), 3, -0.1)
        with pytest.raises(ValueError):
            smooth_label_rows(np.array([0]), 1, 0.0)  # need >= 2 classes
        for bad in ([-1, 0], [3], [0.0, 1.0], [1.5]):  # C = 3
            with pytest.raises(ValueError, match="targets"):
                smooth_label_rows(bad, 3, 0.0)

    def test_numpy_integer_targets_accepted(self):
        assert smooth_label_rows(np.array([2], dtype=np.int64), 3, 0.0)[0, 2] == 1.0
        assert smooth_label_rows([np.int64(1)], 3, 0.0)[0, 1] == 1.0


class TestCrossEntropy:
    def test_frozen_values(self):
        z = np.log([0.7, 0.2, 0.1])  # softmax(z) = [0.7, 0.2, 0.1]
        assert_allclose(row_loss(z, one_hot(0, 3)[0]), CE_P3_Y0, rtol=1e-15)
        assert_allclose(row_loss(z, one_hot(0, 3, 0.1)[0]), CE_P3_Y0_EPS01, rtol=1e-15)
        assert_allclose(row_loss(Z3, one_hot(0, 3)[0]), CE_SOFTMAX_Z3_Y0, rtol=1e-15)

    def test_matches_mpmath(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            c = int(rng.integers(2, 10))
            z = rng.normal(0, 5, size=c)
            y = int(rng.integers(0, c))
            for eps in (0.0, 0.05, 0.3):
                q = one_hot(y, c, eps)[0]
                assert_allclose(row_loss(z, q), cross_entropy_mp(z, q), rtol=1e-13)

    def test_zero_probability_is_finite(self):
        # softmax puts an exact 0 on the target; logsumexp still gives the
        # exact loss 800 + log 2 instead of a clamped one.
        z = np.array([-800.0, 0.0, 0.0])
        assert softmax(z)[0] == 0.0
        assert_allclose(row_loss(z, one_hot(0, 3)[0]), 800.0 + math.log(2.0), rtol=1e-15)

    def test_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(9)
        z = rng.normal(0, 3, size=(7, 5))
        targets = rng.integers(0, 5, size=7)
        for eps in (0.0, 0.1):
            q = smooth_label_rows(targets, 5, eps)
            per_row = [row_loss(z[i], q[i]) for i in range(7)]
            assert_allclose(batch_cross_entropy(z, q), np.mean(per_row), rtol=1e-14)

    def test_batch_loss_is_the_mean_of_the_row_losses(self):
        rng = np.random.default_rng(10)
        z = rng.normal(0, 3, size=(2, 7, 5))
        q = smooth_label_rows(rng.integers(0, 5, size=14), 5, 0.1).reshape(z.shape)
        rows = cross_entropy_rows(z, q)
        assert rows.shape == (2, 7)
        for s, i in np.ndindex(2, 7):
            assert_allclose(rows[s, i], cross_entropy_mp(z[s, i], q[s, i]), rtol=1e-13)
        assert_array_equal(batch_cross_entropy(z, q), rows.mean(axis=-1) + 0.0)

    def test_mean_of_huge_finite_rows_is_finite(self):
        # Each row of cell 0 loses 1.5e308; the sum of two overflows, their
        # mean does not.  Cell 1 keeps the plain mean.
        z = np.array([[[0.0, -1.5e308]] * 2, [[0.0, -3.0]] * 2])
        q = smooth_label_rows(np.array([1, 1, 1, 1]), 2, 0.0).reshape(z.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = batch_cross_entropy(z, q)
        assert loss[0] == 1.5e308
        assert loss[1] == batch_cross_entropy(z[1], q[1])

    @given(st.data(), st.integers(1, 3), st.integers(1, 4), st.integers(2, 5))
    @settings(max_examples=300, deadline=None)
    def test_a_nonfinite_logit_makes_its_cell_loss_nonfinite(self, data, cells, batch, classes):
        # The training loop looks for diverged cells only when some cell's
        # loss is not finite, which is sound only if this holds.
        shape = (cells, batch, classes)
        z = data.draw(arrays(np.float64, shape, elements=st.floats(width=64)))
        z[data.draw(st.tuples(*(st.integers(0, n - 1) for n in shape)))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
        targets = data.draw(arrays(np.int64, cells * batch, elements=st.integers(0, classes - 1)))
        for eps in (0.0, 0.1):
            q = smooth_label_rows(targets, classes, eps).reshape(shape)
            with np.errstate(over="ignore", invalid="ignore"):  # as in the training loop
                losses = batch_cross_entropy(z, q)
            bad = ~np.isfinite(z).all(axis=(1, 2))
            assert bad.any() and not np.isfinite(losses[bad]).any()
            assert not (np.isneginf(losses) | (losses < 0)).any()  # NaN or +inf, never -inf

    @given(
        st.data(),
        st.integers(1, 3),
        st.integers(1, 8),
        st.sampled_from([2, 10, 100]),
        st.sampled_from([0.0, 0.1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_logits_within_the_screen_bound_give_finite_losses(
        self, data, cells, batch, classes, eps
    ):
        # A training step computes no loss while every logit lies within
        # _SAFE_LOGIT, which is sound only if this holds.
        shape = (cells, batch, classes)
        bound = _SAFE_LOGIT
        elements = st.sampled_from([-bound, bound]) | st.floats(-bound, bound)
        z = data.draw(arrays(np.float64, shape, elements=elements))
        z[0, 0] = np.where(np.arange(classes) % 2, -bound, bound)  # both ends in one row
        targets = data.draw(arrays(np.int64, cells * batch, elements=st.integers(0, classes - 1)))
        losses = batch_cross_entropy(z, smooth_label_rows(targets, classes, eps).reshape(shape))
        assert np.isfinite(losses).all()

    def test_perfect_fit_is_positive_zero(self):
        # Every non-target exp underflows next to the target's, so the loss
        # is exactly zero, and it must be +0.0, not the -0.0 of a negated 0.
        z = np.array([[0.0, -800.0, -900.0], [-800.0, 0.0, -750.0]])
        loss = batch_cross_entropy(z, smooth_label_rows(np.array([0, 1]), 3, 0.0))
        assert loss == 0.0
        assert math.copysign(1.0, loss) == 1.0


class TestGradient:
    def test_untampered_is_p_minus_q(self):
        q = one_hot(2, 3)
        assert_array_equal(tampered_dlogits(Z3[None, :], q, 1.0), softmax(Z3)[None, :] - q)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            c = int(rng.integers(2, 8))
            z = rng.normal(0, 2, size=c)
            y = int(rng.integers(0, c))
            for eps in (0.0, 0.1):
                q = one_hot(y, c, eps)
                g = tampered_dlogits(z[None, :], q, 1.0)[0]
                fd = central_diff(lambda v: row_loss(v, q[0]), z)
                assert max_rel_err(g, fd) < 1e-6

    def test_tampered_frozen_values(self):
        q = one_hot(2, 3)
        assert_allclose(tampered_dlogits(Z3[None, :], q, 0.5)[0], TAMPERED_GRAD_A05,
                        rtol=0, atol=5e-16)
        assert_allclose(tampered_dlogits(Z3[None, :], q, 0.3)[0], TAMPERED_GRAD_A03,
                        rtol=0, atol=5e-16)

    def test_tampered_equals_transform_minus_q(self):
        rng = np.random.default_rng(22)
        z = rng.normal(0, 2, size=6)
        q = one_hot(3, 6, 0.1)
        g = tampered_dlogits(z[None, :], q, 0.4)[0]
        expected = transform_probabilities(softmax(z), 0.4) - q[0]
        assert_allclose(g, expected, rtol=0, atol=1e-15)

    def test_inactive_or_alpha_one_leaves_gradient_alone(self):
        # An inactive tamper is run as alpha = 1: bit for bit softmax(z) - q.
        rng = np.random.default_rng(26)
        z = rng.normal(0, 4, size=(5, 7))
        q = smooth_label_rows(rng.integers(0, 7, size=5), 7, 0.1)
        assert_array_equal(tampered_dlogits(z, q, 1.0), softmax(z, axis=-1) - q)

    def test_entries_sum_to_zero(self):
        rng = np.random.default_rng(23)
        for alpha in (0.2, 0.6, 1.0):
            z = rng.normal(0, 3, size=(1, 9))
            g = tampered_dlogits(z, one_hot(4, 9, 0.05), alpha)
            assert abs(g.sum()) < 1e-12

    def test_scaled_logits_surrogate_identity(self):
        # softmax(a z) - q  ==  (1/a) * d/dz CE(softmax(a z), q), checked
        # against finite differences of the scaled-logit loss.
        rng = np.random.default_rng(24)
        z = rng.normal(0, 2, size=5)
        q = one_hot(1, 5)
        for alpha in (0.3, 0.5):
            g = tampered_dlogits(z[None, :], q, alpha)[0]
            fd = central_diff(lambda v: row_loss(alpha * v, q[0]), z) / alpha
            assert max_rel_err(g, fd) < 1e-6

    def test_batched_matches_single(self):
        rng = np.random.default_rng(25)
        z = rng.normal(0, 2, size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        q = smooth_label_rows(targets, 4, 0.1)
        rows = tampered_dlogits(z, q, 0.5)
        for i in range(6):
            single = tampered_dlogits(z[i : i + 1], q[i : i + 1], 0.5)[0]
            assert_allclose(rows[i], single, rtol=0, atol=1e-15)

    def test_wide_logits_keep_underflowed_mass(self):
        # softmax(z) is exactly 0 in the middle; the transform of it would
        # keep that 0, the temperature form gives the true 1.7e-4.
        q = one_hot(0, 3)
        assert softmax(WIDE_Z)[1] == 0.0
        got = tampered_dlogits(WIDE_Z[None, :], q, 0.01)[0] + q[0]
        assert_allclose(got, WIDE_SOFTMAX_A001, rtol=1e-15, atol=0)

    def test_alpha_validation(self):
        for alpha in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                tampered_dlogits(Z3[None, :], one_hot(0, 3), alpha)
        stack = np.stack([Z3[None, :]] * 3)
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError):
                tampered_dlogits(stack, one_hot(0, 3), np.array([0.3, bad, 1.0])[:, None, None])

    def test_stack_with_per_cell_alpha_matches_cells(self):
        rng = np.random.default_rng(26)
        z = rng.normal(0, 5, size=(3, 6, 4))
        q = smooth_label_rows(rng.integers(0, 4, size=18), 4, 0.1).reshape(3, 6, 4)
        alphas = np.array([0.05, 0.5, 1.0])
        stacked = tampered_dlogits(z, q, alphas[:, None, None])
        losses = batch_cross_entropy(z, q)
        assert losses.shape == (3,)
        for s in range(3):
            assert_array_equal(stacked[s], tampered_dlogits(z[s], q[s], alphas[s]))
            assert losses[s] == batch_cross_entropy(z[s], q[s])


class TestInPlaceKernels:
    """The kernels work in place on their own arrays; each must equal its
    allocating reference expression bit for bit and leave its inputs alone."""

    def test_equal_former_expressions(self):
        rng = np.random.default_rng(17)
        # A stack of 6 cells, 16 rows of 10 classes: sigma 3 and sigma 300 logits.
        z = np.concatenate([rng.normal(0, 3, (3, 16, 10)), rng.normal(0, 300, (3, 16, 10))])
        q = smooth_label_rows(rng.integers(0, 10, size=96), 10, 0.1).reshape(z.shape)
        alphas = np.array([1.0, 0.5, 0.01, 0.3, 0.02, 1.0])[:, None, None]
        z_before, q_before = z.copy(), q.copy()

        for axis in (-1, 0):
            e = np.exp(z - z.max(axis=axis, keepdims=True))
            assert_array_equal(softmax(z, axis=axis), e / e.sum(axis=axis, keepdims=True))
        shifted = z - z.max(axis=-1, keepdims=True)
        former_ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        assert_array_equal(log_softmax(z), former_ls)
        former_rows = -(q * former_ls).sum(axis=-1)
        assert_array_equal(batch_cross_entropy(z, q), former_rows.mean(axis=-1) + 0.0)
        assert batch_cross_entropy(z[0], q[0]) == former_rows[0].mean() + 0.0
        for alpha in (alphas, 0.3, 1.0):
            scaled = alpha * z
            e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
            assert_array_equal(tampered_dlogits(z, q, alpha), e / e.sum(axis=-1, keepdims=True) - q)

        assert_array_equal(z, z_before)
        assert_array_equal(q, q_before)


class TestClip:
    """Global-norm clipping, the baseline intervention tampering is compared
    against; the engine clips the whole parameter-gradient vector."""

    def test_long_gradient_rescaled_exactly(self):
        grads = np.array([3.0, 4.0])  # norm 5
        out = clip_grads_global(grads, 2.0)
        assert out[0] == 3.0 * (2.0 / 5.0) and out[1] == 4.0 * (2.0 / 5.0)
        assert_allclose(np.linalg.norm(out), 2.0, rtol=1e-15)

    def test_short_gradient_untouched(self):
        grads = np.array([0.3, 0.4])
        assert clip_grads_global(grads, 2.0) is grads

    def test_boundary_untouched(self):
        grads = np.array([3.0, 4.0])
        assert clip_grads_global(grads, 5.0) is grads

    def test_direction_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = rng.normal(0, 3, size=8)
            out = clip_grads_global(g, 1.0)
            cos = np.dot(g, out) / (np.linalg.norm(g) * np.linalg.norm(out))
            assert cos > 1.0 - 1e-12

    def test_validation(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                clip_grads_global(np.ones(3), bad)
        for bad_shape in (np.ones((1, 1, 3)), np.float64(1.0)):
            with pytest.raises(ValueError):
                clip_grads_global(bad_shape, 1.0)

    def test_infinite_bound_clips_nothing(self):
        grads = np.array([[3e300, 4e300], [1.0, 2.0]])
        assert clip_grads_global(grads, np.inf) is grads
        assert clip_grads_global(grads, np.full((2, 1), np.inf)) is grads


# The engine's two per-cell settings: a scalar, or a numpy array with one value
# per stacked cell, shaped to broadcast against the stack.
PER_CELL_SETTINGS = {
    "alpha": ((2, 1, 1), lambda v: tampered_dlogits(np.zeros((2, 1, 3)), one_hot(0, 3), v)),
    "clip norm": ((2, 1), lambda v: clip_grads_global(np.full((2, 3), 5.0), v)),
}


@pytest.mark.parametrize("setting", PER_CELL_SETTINGS)
@pytest.mark.parametrize(
    "bad",
    [
        lambda shape: True,
        lambda shape: "0.5",
        lambda shape: None,
        lambda shape: [0.5],
        lambda shape: np.array([True]),
        lambda shape: np.array([]),
        lambda shape: np.array([0.5, np.nan]).reshape(shape),
    ],
    ids=["True", "str", "None", "list", "bool-array", "empty-array", "nan-cell"],
)
def test_per_cell_setting_rejects_a_wrong_type(setting, bad):
    shape, call = PER_CELL_SETTINGS[setting]
    call(0.5)
    call(np.full(shape, 0.5))
    with pytest.raises(ValueError, match=f"{setting} must lie in"):
        call(bad(shape))
