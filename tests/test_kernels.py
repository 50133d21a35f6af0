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
    z = 30.0 * rng.standard_normal((64, 32))
    s = 1.0 / (1.0 + np.exp(-z))
    assert np.array_equal(_kernels.silu(z), z * s)
    assert np.array_equal(_kernels.silu_grad(z), s * (1.0 + z * (1.0 - s)))
    h = rng.standard_normal((16, 10))
    w = rng.standard_normal((7, 10))
    b = rng.standard_normal(7)
    assert np.array_equal(_kernels.affine(h, w, b), h @ w.T + b)
    h32, w32, b32 = (a.astype(np.float32) for a in (h, w, b))
    assert _kernels.affine(h32, w32, b32).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_saturates_without_warning(dtype):
    z = np.array([-1000.0, 1000.0], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = _kernels.silu(z)
        g = _kernels.silu_grad(z)
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
