import numpy as np
import pytest

from diffrouter import netcore
from diffrouter.netcore import (DenseNet, DivergenceError, OptimizerState,
                                backward, forward, forward_cached, init_dense,
                                load_params, optimizer_step, save_params)


def _reference_forward(net, x):
    """Independent scalar-loop evaluation used as an oracle."""
    h = list(x)
    n_layers = len(net.weights)
    for li, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = []
        for o in range(W.shape[0]):
            acc = b[o]
            for i in range(W.shape[1]):
                acc += W[o, i] * h[i]
            z.append(acc)
        if li < n_layers - 1:
            h = [v / (1.0 + np.exp(-v)) for v in z]
        else:
            h = z
    return np.array(h)


def test_forward_zero_params():
    net = DenseNet(weights=[np.zeros((3, 4)), np.zeros((2, 3))],
                   biases=[np.zeros(3), np.zeros(2)])
    assert np.array_equal(forward(net, np.ones(4)), np.zeros(2))


def test_forward_identity_layer():
    net = DenseNet(weights=[np.eye(5)], biases=[np.zeros(5)])
    v = np.arange(5.0)
    assert np.array_equal(forward(net, v), v)


def test_forward_matches_scalar_reference(rng):
    net = init_dense([4, 6, 3], rng)
    x = rng.standard_normal(4)
    assert np.allclose(forward(net, x), _reference_forward(net, x), atol=1e-12)


def test_forward_dimension_mismatch(rng):
    net = init_dense([4, 6, 3], rng)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


def test_backward_zero_output_grad(rng):
    net = init_dense([4, 6, 3], rng)
    _, cache = forward_cached(net, rng.standard_normal((2, 4)))
    grads, gx = backward(net, cache, np.zeros((2, 3)))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(gx == 0)


def test_backward_linear_mse_analytic(rng):
    """Single linear layer with MSE loss: dL/dW = 2 (Wx + b - y) x^T."""
    W = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    net = DenseNet(weights=[W.copy()], biases=[b.copy()])
    x = rng.standard_normal(4)
    y = rng.standard_normal(3)
    out, cache = forward_cached(net, x)
    resid = out - y
    grads, _ = backward(net, cache, 2.0 * resid)
    assert np.allclose(grads[0], 2.0 * np.outer(resid, x), atol=1e-12)
    assert np.allclose(grads[1], 2.0 * resid, atol=1e-12)


def test_gradients_match_finite_differences():
    """20 random small nets; every parameter within 1e-4 relative of central
    differences (1e-7 absolute floor)."""
    rng = np.random.default_rng(42)
    eps = 1e-5
    for trial in range(20):
        n_layers = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 17)) for _ in range(n_layers + 1)]
        net = init_dense(widths, rng)
        x = rng.standard_normal((3, widths[0]))
        tgt = rng.standard_normal((3, widths[-1]))

        def loss():
            return float(np.sum((forward(net, x) - tgt) ** 2))

        out, cache = forward_cached(net, x)
        grads, _ = backward(net, cache, 2.0 * (out - tgt))
        for p, g in zip(net.param_list(), grads):
            flat_p, flat_g = p.reshape(-1), g.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + eps
                lp = loss()
                flat_p[i] = orig - eps
                lm = loss()
                flat_p[i] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - flat_g[i]) <= 1e-4 * abs(fd) + 1e-7, \
                    f"trial {trial}: fd={fd} analytic={flat_g[i]}"


def test_optimizer_noop_on_zero_grads(rng):
    net = init_dense([3, 3], rng)
    before = [p.copy() for p in net.param_list()]
    state = OptimizerState(lr=1e-2, weight_decay=0.0)
    optimizer_step(state, net.param_list(), [np.zeros_like(p) for p in net.param_list()])
    for p, q in zip(net.param_list(), before):
        assert np.array_equal(p, q)


def test_warmup_learning_rate():
    state = OptimizerState(lr=1e-4, warmup_steps=3000)
    assert abs(state.effective_lr() - 1e-4 / 3000) < 1e-18
    state.step = 1500
    assert abs(state.effective_lr() - 1e-4 * 1501 / 3000) < 1e-18
    state.step = 3000
    assert state.effective_lr() == 1e-4


def test_adamw_single_step_hand_computed():
    """One update on a scalar parameter, bias correction included."""
    p = np.array([2.0])
    g = np.array([0.5])
    lr, b1, b2, eps, wd = 1e-2, 0.9, 0.9, 1e-8, 0.1
    state = OptimizerState(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    optimizer_step(state, [p], [g])
    m = (1 - b1) * 0.5
    v = (1 - b2) * 0.25
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expect = 2.0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * 2.0)
    assert abs(p[0] - expect) < 1e-14


def test_divergence_error_on_nonfinite_grads(rng):
    net = init_dense([3, 3], rng)
    bad = [np.full_like(p, np.nan) for p in net.param_list()]
    with pytest.raises(DivergenceError):
        optimizer_step(OptimizerState(lr=1e-3), net.param_list(), bad)


def test_training_determinism():
    def run():
        rng = np.random.default_rng(5)
        net = init_dense([4, 8, 2], rng)
        state = OptimizerState(lr=1e-3)
        x = rng.standard_normal((16, 4))
        y = rng.standard_normal((16, 2))
        for _ in range(50):
            out, cache = forward_cached(net, x)
            grads, _ = backward(net, cache, 2.0 * (out - y) / 16)
            optimizer_step(state, net.param_list(), grads)
        return [p.copy() for p in net.param_list()]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_convex_probe_monotone_after_warmup():
    """Linear regression probe: 10-step-window losses strictly decrease."""
    rng = np.random.default_rng(9)
    net = init_dense([4, 1], rng, activation="identity")
    W_true = rng.standard_normal((1, 4))
    x = rng.standard_normal((64, 4))
    y = x @ W_true.T
    state = OptimizerState(lr=5e-3, warmup_steps=20)
    losses = []
    for _ in range(220):
        out, cache = forward_cached(net, x)
        losses.append(float(np.mean((out - y) ** 2)))
        grads, _ = backward(net, cache, 2.0 * (out - y) / 64)
        optimizer_step(state, net.param_list(), grads)
    windows = [np.mean(losses[i:i + 10]) for i in range(20, 220, 10)]
    assert all(b < a for a, b in zip(windows, windows[1:]))


def test_checkpoint_roundtrip(tmp_path, rng):
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal(3)]
    header = {"widths": "4,3", "activation": "silu"}
    path = tmp_path / "x.ckpt"
    save_params(path, header, arrays)
    hdr, back = load_params(path)
    assert hdr["widths"] == "4,3" and hdr["activation"] == "silu"
    assert hdr["version"] == str(netcore.CHECKPOINT_VERSION)
    for a, b in zip(arrays, back):
        assert np.allclose(a.reshape(-1), b, atol=1e-6)  # float32 storage


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not-a-checkpoint\n---\n")
    with pytest.raises(ValueError):
        load_params(path)
