"""Shared test oracles.

Everything here is computed independently of the package under test: the
mpmath functions re-derive the same quantities at 50 significant digits from
first principles (power/log/exp on exact decimal expansions of the float64
inputs), and the finite-difference helpers probe gradients numerically.
"""

import copy

import numpy as np
from mpmath import mp, mpf, exp, log, power

mp.dps = 50


def mpf_of(x):
    """The exact value of the float64 ``x`` as an mpmath number."""
    return mpf(repr(float(x)))


def transform_mp(p, alpha):
    """Reference power transform at 50 digits; returns float64 values."""
    a = mpf_of(alpha)
    if a == 0:
        return np.full(len(p), 1.0 / len(p))
    t = [power(mpf_of(x), a) for x in p]
    s = sum(t)
    return np.array([float(x / s) for x in t])


def threshold_mp(p, alpha):
    """Reference stationary threshold (sum p^alpha)^(1/(alpha-1))."""
    a = mpf_of(alpha)
    if a == 0:
        return 1.0 / len(p)
    s = sum(power(mpf_of(x), a) for x in p if x > 0)
    return float(power(s, 1 / (a - 1)))


def softmax_mp(z):
    e = [exp(mpf_of(x)) for x in z]
    s = sum(e)
    return np.array([float(x / s) for x in e])


def cross_entropy_mp(z, q):
    """-sum q_i log softmax(z)_i at 50 digits, for float64 logits z and q."""
    lse = log(sum(exp(mpf_of(x)) for x in z))
    return float(sum(mpf_of(qi) * (lse - mpf_of(x)) for qi, x in zip(q, z)))


def max_rel_err(a, b, floor=1e-4):
    """Elementwise |a-b| relative to max(floor, |a|, |b|); see the package's
    twin for why the floor exists."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / denom).max())


def central_diff(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def net_loss(net, x, y, eps=0.0, alpha=None):
    """Mean CE of the net on (x, y); with alpha set, the scaled-logit
    surrogate (1/alpha) CE(softmax(alpha z)) whose gradient is the tampered one."""
    from gradtamper.lossgrad import batch_cross_entropy, smooth_label_rows
    from gradtamper.net import forward

    logits, _ = forward(net, x)
    q = smooth_label_rows(logits.shape[1], eps)[y]
    if alpha is None:
        return batch_cross_entropy(logits, q)
    return batch_cross_entropy(alpha * logits, q) / alpha


def fd_param_grad(net, x, y, eps=0.0, alpha=None, h=1e-5):
    """Central differences through every parameter of a copy of the net."""
    probe = copy.deepcopy(net)
    theta = probe.params  # the layers are views into it
    g = np.empty_like(theta)
    for i in range(theta.size):
        theta[i] += h
        up = net_loss(probe, x, y, eps, alpha)
        theta[i] -= 2 * h
        dn = net_loss(probe, x, y, eps, alpha)
        theta[i] += h
        g[i] = (up - dn) / (2.0 * h)
    return g


def analytic_param_grad(net, x, y, eps=0.0, alpha=None):
    """Backprop parameter gradient, in the layout of ``fd_param_grad``."""
    from gradtamper.lossgrad import smooth_label_rows, tampered_dlogits
    from gradtamper.net import backward, forward

    logits, cache = forward(net, x)
    q = smooth_label_rows(logits.shape[1], eps)[y]
    d = tampered_dlogits(logits, q, 1.0 if alpha is None else alpha) / x.shape[0]
    return backward(net, cache, d)


def kink_free_case(rng, sizes, activation, batch, margin=1e-3):
    """Draw (net, x, y) with every preactivation at least ``margin`` from 0.

    Finite differences on a relu net are only trustworthy when no unit sits
    within the FD step of its kink — a perturbation of h = 1e-5 moves a
    preactivation by at most a few h, so a 1e-3 margin keeps every relu's
    on/off state fixed during the probe.  Rejection sampling is deterministic
    for a given generator state and takes a handful of draws at most.
    """
    from gradtamper.net import forward, init_dense_net

    for _ in range(200):
        net = init_dense_net(sizes, rng, hidden_activation=activation)
        x = rng.normal(0.0, 1.0, size=(batch, sizes[0]))
        y = rng.integers(0, sizes[-1], size=batch)
        _, cache = forward(net, x)
        if min(np.abs(s).min() for _, s in cache) > margin:
            return net, x, y
    raise AssertionError("could not find a kink-free test case")
