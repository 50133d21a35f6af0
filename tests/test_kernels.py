"""Parity between the compiled kernels and the pure-numpy fallback, the
env-flag switch itself (exercised in a subprocess), and the numpy kernels
against the plain formulas they evaluate in place."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from diffrouter import _kernels
from diffrouter.metrics import mmd_rbf


@pytest.mark.skipif(not _kernels.USING_NUMBA, reason="numba path not active")
class TestNumbaParity:
    def test_silu(self, rng):
        z = rng.standard_normal((64, 32))
        assert np.allclose(_kernels._silu_nb(z), _kernels._silu_np(z),
                           rtol=1e-14, atol=1e-14)
        assert np.allclose(_kernels._silu_grad_nb(z), _kernels._silu_grad_np(z),
                           rtol=1e-14, atol=1e-14)

    def test_affine(self, rng):
        h = rng.standard_normal((16, 10))
        w = rng.standard_normal((7, 10))
        b = rng.standard_normal(7)
        assert np.allclose(_kernels._affine_nb(h, w, b),
                           _kernels._affine_np(h, w, b), rtol=1e-13, atol=1e-13)

    def test_float32_keeps_float32(self, rng):
        z = rng.standard_normal((16, 10)).astype(np.float32)
        w = rng.standard_normal((7, 10)).astype(np.float32)
        b = rng.standard_normal(7).astype(np.float32)
        for got, ref in ((_kernels.silu(z), _kernels._silu_np(z)),
                         (_kernels.silu_grad(z), _kernels._silu_grad_np(z)),
                         (_kernels.affine(z, w, b), _kernels._affine_np(z, w, b))):
            assert got.dtype == np.float32
            assert np.array_equal(got, ref)

    def test_adamw(self, rng):
        p1 = rng.standard_normal((5, 4))
        g = rng.standard_normal((5, 4))
        m1, v1 = np.zeros_like(p1), np.zeros_like(p1)
        p2, m2, v2 = p1.copy(), m1.copy(), v1.copy()
        for step in range(1, 6):
            _kernels._adamw_update_np(p1, g, m1, v1, 1e-2, 0.9, 0.99, 1e-8, 0.01, step)
            _kernels._adamw_update_nb(p2, g, m2, v2, 1e-2, 0.9, 0.99, 1e-8, 0.01, step)
        assert np.allclose(p1, p2, rtol=1e-12, atol=1e-14)
        assert np.allclose(m1, m2, rtol=1e-12, atol=1e-14)
        assert np.allclose(v1, v2, rtol=1e-12, atol=1e-14)

    def test_mmd_terms(self, rng):
        a = np.ascontiguousarray(rng.standard_normal((30, 3)))
        b = np.ascontiguousarray(rng.standard_normal((40, 3)))
        got = _kernels._mmd_terms_nb(a, b, 0.4)
        ref = _kernels._mmd_terms_np(a, b, 0.4)
        for x, y in zip(got, ref):
            assert abs(x - y) < 1e-9 * max(1.0, abs(y))


def test_env_flag_forces_numpy_fallback():
    env = dict(os.environ, DIFFROUTER_NO_NUMBA="1")
    code = ("from diffrouter import _kernels; "
            "assert not _kernels.USING_NUMBA; "
            "assert _kernels.silu is _kernels._silu_np; "
            "import numpy as np; "
            "from diffrouter.metrics import mmd_rbf; "
            "rng = np.random.default_rng(0); "
            "print(f'{mmd_rbf(rng.standard_normal((50, 2)), rng.standard_normal((50, 2)) + 2.0):.12g}')")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # the fallback gives the same metric value as the active path
    from diffrouter.metrics import mmd_rbf
    rng = np.random.default_rng(0)
    here = mmd_rbf(rng.standard_normal((50, 2)), rng.standard_normal((50, 2)) + 2.0)
    assert abs(float(out.stdout.strip()) - here) < 1e-9


def test_numba_path_sends_only_float64_to_compiled_kernels():
    """With numba active, float64 goes to the compiled kernels and float32 to
    the numpy ones. A stub numba whose njit asserts float64 array arguments
    stands in for numba, which this suite need not have."""
    env = {k: v for k, v in os.environ.items() if k != "DIFFROUTER_NO_NUMBA"}
    code = """
import sys, types
import numpy as np
calls = []
def njit(**kw):
    def deco(f):
        def only_float64(*args):
            assert all(a.dtype == np.float64 for a in args
                       if isinstance(a, np.ndarray)), f.__name__
            calls.append(f.__name__)
            return f(*args)
        return only_float64
    return deco
sys.modules["numba"] = types.ModuleType("numba")
sys.modules["numba"].njit = njit
from diffrouter import _kernels
assert _kernels.USING_NUMBA
rng = np.random.default_rng(0)
for dtype in (np.float32, np.float64):
    z = rng.standard_normal((6, 4)).astype(dtype)
    w = rng.standard_normal((3, 4)).astype(dtype)
    b = rng.standard_normal(3).astype(dtype)
    for got, ref in ((_kernels.silu(z), _kernels._silu_np(z)),
                     (_kernels.silu_grad(z), _kernels._silu_grad_np(z)),
                     (_kernels.affine(z, w, b), _kernels._affine_np(z, w, b))):
        assert got.dtype == dtype
        assert np.allclose(got, ref, rtol=1e-6, atol=0.0)
assert calls == ["_silu_nb", "_silu_grad_nb", "_affine_nb"], calls
"""
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


# ---------------------------------------------------------------------------
# numpy kernels: in-place evaluation, dtype preservation, overflow limits

def test_numpy_kernels_match_plain_expressions_bitwise(rng):
    z = 30.0 * rng.standard_normal((64, 32))
    s = 1.0 / (1.0 + np.exp(-z))
    assert np.array_equal(_kernels._silu_np(z), z * s)
    assert np.array_equal(_kernels._silu_grad_np(z), s * (1.0 + z * (1.0 - s)))
    h = rng.standard_normal((16, 10))
    w = rng.standard_normal((7, 10))
    b = rng.standard_normal(7)
    assert np.array_equal(_kernels._affine_np(h, w, b), h @ w.T + b)
    h32, w32, b32 = (a.astype(np.float32) for a in (h, w, b))
    assert _kernels._affine_np(h32, w32, b32).dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_saturates_without_warning(dtype):
    z = np.array([-1000.0, 1000.0], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = _kernels._silu_np(z)
        g = _kernels._silu_grad_np(z)
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
    got = _kernels._mmd_terms_np(a, b, gamma)
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
