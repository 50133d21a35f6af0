"""Hot numeric kernels, in numpy.

The kernels compute in the dtype of their inputs (float64 in training,
float32 for checkpoint inference) and reuse one work array through `out=`
ufuncs. Their float64 results are bit-identical to the plain expressions
`h @ w.T + b`, `z * (1 / (1 + exp(-z)))` and `s * (1 + z * (1 - s))`. The
MMD sums expand squared distances as ||a||^2 + ||b||^2 - 2 a.b^T, so they
agree with the direct double sums to rounding.
"""

import numpy as np

# There is one kernel path; perfbench/run.py records this in its environment block.
USING_NUMBA = False


def _sigmoid(z):
    """New array holding 1 / (1 + exp(-z)). exp overflows to inf for very
    negative z, which gives the correct limit 0, so that warning is muted."""
    s = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def silu(z):
    s = _sigmoid(z)
    return np.multiply(z, s, out=s)


def silu_grad(z):
    s = _sigmoid(z)
    out = np.subtract(1.0, s)
    out *= z
    out += 1.0
    out *= s
    return out


def affine(h, w, b):
    out = h @ w.T
    out += b
    return out


def adamw_update(p, g, m, v, lr, b1, b2, eps, wd, step):
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


def mmd_terms(a, b, gamma):
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
