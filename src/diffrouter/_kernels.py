"""Hot numeric kernels with numba-compiled and pure-numpy implementations.

The numba path is used by default when numba imports cleanly; set
DIFFROUTER_NO_NUMBA=1 to force the numpy fallback. The two paths agree to
rounding but are not bit-identical: the numpy MMD sums expand squared
distances as ||a||^2 + ||b||^2 - 2 a.b^T where the numba ones sum direct
differences. The compiled dense kernels serve float64 only, since numba
widens float32 arrays against float64 constants and rejects mixed-dtype
matrix products; float32 inputs take the numpy kernels on either path.
`benchmarks/bench_kernels.py` compares the two.

The numpy kernels compute in the dtype of their inputs (float64 in training,
float32 for checkpoint inference) and reuse one work array through `out=`
ufuncs. Their float64 results are bit-identical to the plain expressions
`h @ w.T + b`, `z * (1 / (1 + exp(-z)))` and `s * (1 + z * (1 - s))`.
"""

import os

import numpy as np


def _sigmoid(z):
    """New array holding 1 / (1 + exp(-z)). exp overflows to inf for very
    negative z, which gives the correct limit 0, so that warning is muted."""
    s = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu_np(z):
    s = _sigmoid(z)
    return np.multiply(z, s, out=s)


def _silu_grad_np(z):
    s = _sigmoid(z)
    out = np.subtract(1.0, s)
    out *= z
    out += 1.0
    out *= s
    return out


def _affine_np(h, w, b):
    out = h @ w.T
    out += b
    return out


def _adamw_update_np(p, g, m, v, lr, b1, b2, eps, wd, step):
    m[:] = b1 * m + (1.0 - b1) * g
    v[:] = b2 * v + (1.0 - b2) * g * g
    mhat = m / (1.0 - b1**step)
    vhat = v / (1.0 - b2**step)
    p -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * p)


def sq_dists(a, b):
    """(n, m) squared Euclidean distances between the rows of a and b, as
    ||a||^2 + ||b||^2 - 2 a.b^T clamped at 0: one BLAS product instead of an
    (n, m, d) difference tensor."""
    out = a @ b.T
    out *= -2.0
    out += np.einsum("ij,ij->i", a, a)[:, None]
    out += np.einsum("ij,ij->i", b, b)[None, :]
    return np.maximum(out, 0.0, out=out)


def _mmd_terms_np(a, b, gamma):
    """Unbiased MMD^2 kernel sums: (sum_xx, sum_yy, sum_xy) with RBF kernel
    exp(-gamma * ||.||^2); diagonal excluded from the same-set sums."""
    sums = []
    for x, y, same in ((a, a, True), (b, b, True), (a, b, False)):
        k = sq_dists(x, y)
        k *= -gamma
        np.exp(k, out=k)
        if same:
            np.fill_diagonal(k, 0.0)
        sums.append(float(k.sum()))
    return tuple(sums)


_DISABLED = os.environ.get("DIFFROUTER_NO_NUMBA", "0") not in ("0", "")

if not _DISABLED:
    try:
        from numba import njit

        @njit(cache=True)
        def _silu_nb(z):
            s = 1.0 / (1.0 + np.exp(-z))
            return z * s

        @njit(cache=True)
        def _silu_grad_nb(z):
            s = 1.0 / (1.0 + np.exp(-z))
            return s * (1.0 + z * (1.0 - s))

        @njit(cache=True)
        def _affine_nb(h, w, b):
            out = h @ w.T
            return out + b

        @njit(cache=True)
        def _adamw_update_nb(p, g, m, v, lr, b1, b2, eps, wd, step):
            n = p.size
            pf = p.reshape(n)
            gf = g.reshape(n)
            mf = m.reshape(n)
            vf = v.reshape(n)
            c1 = 1.0 - b1**step
            c2 = 1.0 - b2**step
            for i in range(n):
                mf[i] = b1 * mf[i] + (1.0 - b1) * gf[i]
                vf[i] = b2 * vf[i] + (1.0 - b2) * gf[i] * gf[i]
                mhat = mf[i] / c1
                vhat = vf[i] / c2
                pf[i] -= lr * (mhat / (np.sqrt(vhat) + eps) + wd * pf[i])

        @njit(cache=True)
        def _mmd_terms_nb(a, b, gamma):
            na, nb, d = a.shape[0], b.shape[0], a.shape[1]
            s_aa = 0.0
            s_bb = 0.0
            s_ab = 0.0
            for i in range(na):
                for j in range(na):
                    if i == j:
                        continue
                    acc = 0.0
                    for k in range(d):
                        diff = a[i, k] - a[j, k]
                        acc += diff * diff
                    s_aa += np.exp(-gamma * acc)
            for i in range(nb):
                for j in range(nb):
                    if i == j:
                        continue
                    acc = 0.0
                    for k in range(d):
                        diff = b[i, k] - b[j, k]
                        acc += diff * diff
                    s_bb += np.exp(-gamma * acc)
            for i in range(na):
                for j in range(nb):
                    acc = 0.0
                    for k in range(d):
                        diff = a[i, k] - b[j, k]
                        acc += diff * diff
                    s_ab += np.exp(-gamma * acc)
            return s_aa, s_bb, s_ab

        USING_NUMBA = True
    except ImportError:  # pragma: no cover - exercised via env flag instead
        USING_NUMBA = False
else:
    USING_NUMBA = False

if USING_NUMBA:
    def silu(z):
        return _silu_nb(z) if z.dtype == np.float64 else _silu_np(z)

    def silu_grad(z):
        return _silu_grad_nb(z) if z.dtype == np.float64 else _silu_grad_np(z)

    def affine(h, w, b):
        if h.dtype == w.dtype == b.dtype == np.float64:
            return _affine_nb(h, w, b)
        return _affine_np(h, w, b)

    adamw_update = _adamw_update_nb
    _mmd_terms = _mmd_terms_nb
else:
    silu = _silu_np
    silu_grad = _silu_grad_np
    affine = _affine_np
    adamw_update = _adamw_update_np
    _mmd_terms = _mmd_terms_np
