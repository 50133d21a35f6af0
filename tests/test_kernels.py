"""The numpy kernels against the plain formulas they evaluate in place, their
dtype preservation and overflow limits, and the squared-distance and MMD sums
against the direct (n, m, d) formulas."""

import warnings

import numpy as np
import pytest

from diffrouter import _kernels
from diffrouter.metrics import mmd_rbf


# ---------------------------------------------------------------------------
# kernels: in-place evaluation, dtype preservation, overflow limits

def test_numpy_kernels_match_plain_expressions_bitwise(rng):
    """silu returns its output and the gate 1 + tanh(z / 2), silu_grad
    forms the derivative from that gate, and silu_of_half(u) writes silu(2 u)
    into the array it is given, each the plain expression to the bit in
    float32 and float64."""
    for dtype in (np.float32, np.float64):
        z = (30.0 * rng.standard_normal((64, 32))).astype(dtype)
        u = z / 2
        s = (1.0 + np.tanh(u)) / 2
        h, q = _kernels.silu(z)
        assert h.dtype == q.dtype == dtype
        assert np.array_equal(h, u * (1.0 + np.tanh(u)))
        assert np.array_equal(q, 1.0 + np.tanh(u))
        assert np.array_equal(_kernels.silu_grad(z, q), s * (1.0 + z * (1.0 - s)))
        out = np.empty_like(u)
        assert _kernels.silu_of_half(u, out) is out
        assert np.array_equal(out, _kernels.silu(2 * u)[0])
    h = rng.standard_normal((16, 10))
    w = rng.standard_normal((7, 10))
    b = rng.standard_normal(7)
    assert np.array_equal(_kernels.affine(h, w, b), h @ w.T + b)
    h32, w32, b32 = (a.astype(np.float32) for a in (h, w, b))
    assert _kernels.affine(h32, w32, b32).dtype == np.float32


def test_tanh_form_silu_matches_the_logistic_form(rng):
    """The tanh form is z * sigmoid(z) rewritten, sigmoid(z) = (1 + tanh(z/2)) / 2;
    in float64 it agrees with the logistic expression and its derivative to
    rounding over the range where neither saturates."""
    z = np.concatenate([np.linspace(-60.0, 60.0, 4801), 8.0 * rng.standard_normal(4096)])
    s = 1.0 / (1.0 + np.exp(-z))
    h, q = _kernels.silu(z)
    assert np.max(np.abs(h - z * s)) < 1e-13
    assert np.max(np.abs(_kernels.silu_grad(z, q) - s * (1.0 + z * (1.0 - s)))) < 1e-13


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_saturates_without_warning(dtype):
    z = np.array([-1000.0, 1000.0], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, q = _kernels.silu(z)
        g = _kernels.silu_grad(z, q)
    assert y.dtype == dtype and g.dtype == dtype
    assert np.array_equal(y, np.array([0.0, 1000.0], dtype=dtype))
    assert np.array_equal(g, np.array([0.0, 1.0], dtype=dtype))


# ---------------------------------------------------------------------------
# squared distances and MMD sums without (n, m, d) tensors

def _direct_sq_dists(a, b):
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)


def test_sq_dists_matches_direct_formula(rng):
    a = rng.standard_normal((20, 3))
    b = rng.standard_normal((15, 3)) + 1.0
    assert np.allclose(_kernels.sq_dists(a, b), _direct_sq_dists(a, b),
                       rtol=1e-10, atol=1e-12)
    same = _kernels.sq_dists(a, a)
    assert np.all(same >= 0.0)
    assert np.allclose(np.diag(same), 0.0, atol=1e-12)


def test_mmd_terms_match_direct_formula(rng):
    a = rng.standard_normal((30, 3))
    b = rng.standard_normal((40, 3)) + 0.5
    gamma = 0.4
    k_aa = np.exp(-gamma * _direct_sq_dists(a, a))
    k_bb = np.exp(-gamma * _direct_sq_dists(b, b))
    np.fill_diagonal(k_aa, 0.0)
    np.fill_diagonal(k_bb, 0.0)
    want = (k_aa.sum(), k_bb.sum(), np.exp(-gamma * _direct_sq_dists(a, b)).sum())
    got = _kernels.mmd_terms(a, b, gamma)
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_mmd_rbf_median_bandwidth_matches_direct_formula(rng):
    a = rng.standard_normal((60, 4))
    b = rng.standard_normal((50, 4)) + 0.7
    pooled = np.concatenate([a, b])
    dists = np.sqrt(_direct_sq_dists(pooled, pooled))
    h = np.median(dists[np.triu_indices_from(dists, k=1)])
    gamma = 1.0 / (2.0 * h * h)
    k_aa = np.exp(-gamma * _direct_sq_dists(a, a))
    k_bb = np.exp(-gamma * _direct_sq_dists(b, b))
    np.fill_diagonal(k_aa, 0.0)
    np.fill_diagonal(k_bb, 0.0)
    n, m = len(a), len(b)
    want = (k_aa.sum() / (n * (n - 1)) + k_bb.sum() / (m * (m - 1))
            - 2.0 * np.exp(-gamma * _direct_sq_dists(a, b)).sum() / (n * m))
    assert np.isclose(mmd_rbf(a, b), max(want, 0.0), rtol=1e-10, atol=0.0)


def _adamw_plain(p, g, m, v, lr, b1, b2, eps, step):
    """The textbook AdamW step, bias corrections applied to m and v."""
    m[:] = b1 * m + (1.0 - b1) * g
    v[:] = b2 * v + (1.0 - b2) * g * g
    mhat = m / (1.0 - b1**step)
    vhat = v / (1.0 - b2**step)
    p -= lr * (mhat / (np.sqrt(vhat) + eps))


def _adamw_folded(p, g, m, v, lr, b1, b2, eps, step):
    """The folded form as one plain expression per array."""
    c2 = (1.0 - b2**step) ** 0.5
    m[:] = b1 * m + (1.0 - b1) * g
    v[:] = b2 * v + (1.0 - b2) * (g * g)
    p -= (lr * c2 / (1.0 - b1**step)) * (m / (np.sqrt(v) + eps * c2))


def _gradients(rng, dtype, n=4096, steps=5):
    """Gradients over ten decades, so that eps matters for some entries."""
    for _ in range(steps):
        yield (rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 2, size=n)).astype(dtype)


def test_adamw_update_matches_plain_expression_bitwise(rng):
    """The kernel is the folded plain expression, in float32 and in float64."""
    for dtype in (np.float32, np.float64):
        state = [rng.standard_normal(4096).astype(dtype), np.zeros(4096, dtype),
                 np.zeros(4096, dtype)]
        plain = [a.copy() for a in state]
        for step, g in enumerate(_gradients(rng, dtype), start=1):
            _kernels.adamw_update(*state[:1], g, *state[1:], 3e-4, 0.9, 0.99, 1e-8, step)
            _adamw_folded(*plain[:1], g, *plain[1:], 3e-4, 0.9, 0.99, 1e-8, step)
            for a, b in zip(state, plain):
                assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_adamw_update_agrees_with_textbook_step(rng, dtype, rtol):
    """Each step's update, with m and v carried over the steps, agrees in norm
    with the textbook step computed in float64 from the same gradients (per
    entry, float32 m loses digits where b1 m and (1 - b1) g cancel). It is
    applied to a zero vector, so that it is read off p without the rounding
    of p's own magnitude."""
    m, v = np.zeros(4096, dtype), np.zeros(4096, dtype)
    m_ref, v_ref = np.zeros(4096), np.zeros(4096)
    for step, g in enumerate(_gradients(rng, dtype), start=1):
        p, want = np.zeros(4096, dtype), np.zeros(4096)
        _kernels.adamw_update(p, g, m, v, 3e-4, 0.9, 0.99, 1e-8, step)
        _adamw_plain(want, g.astype(np.float64), m_ref, v_ref, 3e-4, 0.9, 0.99, 1e-8, step)
        assert p.dtype == dtype
        assert np.linalg.norm(p - want) <= rtol * np.linalg.norm(want)
