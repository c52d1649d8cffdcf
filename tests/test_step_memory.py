"""A training step writes into its stack's arrays: a warmed step allocates
almost nothing, the arrays change no bit, and no allocator setting is needed."""

import copy
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gradtamper import harness
from gradtamper.harness import TrainConfig, _step, load_datasets, train
from gradtamper.lossgrad import smooth_label_rows
from gradtamper.net import (
    DenseNet,
    backward,
    clip_grads_global,
    forward,
    init_dense_net,
    init_opt_state,
    row_norms,
    stack_nets,
)

ROOT = Path(__file__).resolve().parent.parent


def bits(a):
    return np.asarray(a).view(np.int64)


def step_arrays(net):
    """A stack's step arrays, made as ``_train_cells`` makes them."""
    return [], np.empty_like(net.params), np.empty_like(net.params)


def stack(sizes, cells, activation="relu"):
    return stack_nets([init_dense_net(sizes, np.random.default_rng(s), activation)
                       for s in range(cells)])


def warmed_step_peak(sizes, cells, clip):
    """The tracemalloc peak, in bytes, of one ``_step`` on a (cells, 32, in)
    batch after two warm-up steps, and the step's gradient array."""
    rng = np.random.default_rng(7)
    net = stack(sizes, cells)
    opt, arrays = init_opt_state(net), step_arrays(net)
    xb = rng.normal(size=(cells, 32, sizes[0]))
    q = smooth_label_rows(sizes[-1], 0.1)[rng.integers(0, sizes[-1], size=(cells, 32))]
    alpha = np.linspace(0.1, 1.0, cells)[:, None, None]
    for _ in range(2):
        _step(net, opt, xb, q, alpha, 0.01, clip, arrays)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _step(net, opt, xb, q, alpha, 0.01, clip, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, arrays[1]


class TestWarmedStep:
    BOUND = 100 * 1024

    def test_desk_stack_allocates_almost_nothing(self):
        peak, _ = warmed_step_peak([20, 64, 10], 8, None)
        assert peak < self.BOUND

    def test_large_cell_with_a_firing_clip_allocates_almost_nothing(self):
        clip = 1e-3
        peak, grads = warmed_step_peak([784, 256, 10], 1, clip)
        assert row_norms(grads)[0, 0] > clip  # the clip fired
        assert peak < self.BOUND


class TestBufferedCallsKeepTheirBits:
    """Each function given ``out`` returns the bits of a fresh-array call."""

    @staticmethod
    def nets():
        """A desk-like stack, and the same stack with every layer a ReLU."""
        net = stack([6, 16, 8, 4], 3)
        return net, DenseNet(net.params, net.sizes, ("relu",) * len(net.activations))

    @pytest.mark.parametrize("relu_out", [False, True])
    def test_forward_and_backward(self, relu_out):
        rng = np.random.default_rng(3)
        net = self.nets()[relu_out]
        out = forward(net, rng.normal(size=(3, 10, 6)))[1]  # the previous step's cache
        kept = {id(a) for pair in out for a in pair} - {id(out[0][0])}  # all but the batch
        x, d = rng.normal(size=(3, 10, 6)), rng.normal(size=(3, 10, 4))
        logits, cache = forward(net, x)
        got_logits, got_cache = forward(net, x, out)
        assert got_cache is out and got_cache[0][0] is x
        assert {id(a) for pair in got_cache for a in pair} - {id(x)} == kept
        assert_array_equal(bits(got_logits), bits(logits))
        for (h, s), (got_h, got_s) in zip(cache, got_cache):
            assert_array_equal(bits(got_h), bits(h))
            assert_array_equal(bits(got_s), bits(s))
        grads_out = np.empty_like(net.params)
        grads = backward(net, cache, d)
        assert backward(net, got_cache, d, grads_out) is grads_out
        assert_array_equal(bits(grads_out), bits(grads))

    def test_backward_leaves_batch_and_logits(self):
        rng = np.random.default_rng(4)
        for net in self.nets():
            x = rng.normal(size=(3, 10, 6))
            logits, cache = forward(net, x)
            before = x.copy(), logits.copy()
            backward(net, cache, rng.normal(size=logits.shape), np.empty_like(net.params))
            assert_array_equal(bits(x), bits(before[0]))
            assert_array_equal(bits(logits), bits(before[1]))

    def test_short_batch_gets_new_arrays(self):
        rng = np.random.default_rng(5)
        net = self.nets()[0]
        out = forward(net, rng.normal(size=(3, 10, 6)))[1]
        full = copy.copy(out)
        x = rng.normal(size=(3, 7, 6))
        logits, cache = forward(net, x)
        got_logits, got_cache = forward(net, x, out)
        assert all(s.shape == (3, 7, n) for (_, s), n in zip(got_cache, net.sizes[1:]))
        assert not any(np.shares_memory(s, old) for (_, s), (_, old) in zip(got_cache, full))
        assert_array_equal(bits(got_logits), bits(logits))

    def test_row_norms_and_clip(self):
        rng = np.random.default_rng(6)
        grads = rng.normal(size=(4, 50)) * np.array([[1.0], [1e-3], [10.0], [1e160]])
        out = np.empty_like(grads)
        assert_array_equal(bits(row_norms(grads, out)), bits(row_norms(grads)))
        for bound in (1.0, np.array([[0.5], [2.0], [100.0], [1.0]])):
            fresh = clip_grads_global(grads, bound)
            assert clip_grads_global(grads, bound, out) is out
            assert_array_equal(bits(out), bits(fresh))
        short = grads[:2] * 1e-3
        assert clip_grads_global(short, 1.0, np.empty_like(short)) is short

    def test_train_with_a_short_last_batch(self, monkeypatch):
        data = load_datasets(TrainConfig().data)
        config = TrainConfig(epochs=3, batch_size=48, clip_lambda=0.5)
        assert len(data[0]) % config.batch_size  # each epoch ends on a short batch
        net, records = train(config, data)
        fresh_step = harness._step
        # The same steps on fresh arrays: a new cache list, no kept vectors.
        monkeypatch.setattr(harness, "_step", lambda *args: fresh_step(*args[:7], ([], None, None)))
        fresh_net, fresh_records = train(config, data)
        assert_array_equal(bits(net.params), bits(fresh_net.params))
        assert records == fresh_records


_CHILD = """
import math, resource
from gradtamper.harness import TrainConfig, _train_cells, load_datasets
base = TrainConfig()
data = load_datasets(base.data)
cells = [(alpha, seed) for alpha in (0.1, 0.3) for seed in range(4)]
_train_cells(base, cells, data, final_only=True)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_train_cells(base, cells, data, final_only=True)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / (base.epochs * math.ceil(len(data[0]) / base.batch_size)))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc settings only")
def test_no_allocator_setting_is_needed():
    # With glibc's mmap threshold pinned, as under an allocator that does not
    # adapt it, every step-sized temporary would be mapped and faulted in
    # afresh: about 135 faults a step.  A step that writes into its stack's
    # arrays takes a few, most of them in the evaluation that ends the run.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert float(out) < 15
