"""Hot numeric kernels, in numpy.

The kernels compute in the dtype of their inputs (float32 for training,
AdamW included, and for inference; float64 for the gradient checks) and reuse
one work array through `out=` ufuncs.
Their results are bit-identical to the plain expressions `h @ w.T + b`,
`u * q` with u = z / 2 and the gate q = 1 + tanh(u), and
`s * (1 + z * (1 - s))` with s = q / 2. SiLU is z * sigmoid(z), and
sigmoid(z) is (1 + tanh(z / 2)) / 2: the tanh form needs no exp, which can
overflow, and no divide. `silu` returns the gate with its output, and
`silu_grad` takes it, so a backward pass computes no tanh (the derivative is
sigmoid(z) (1 + z (1 - sigmoid(z))), Elfwing et al., arXiv:1702.03118).
Training uses `silu`. A forward-only pass keeps no gate and uses
`silu_of_half`: its caller holds the halved pre-activation u = z / 2 (its
weights prescaled by 0.5, which is exact in binary floating point), so the
SiLU is u (1 + tanh u) in three in-place passes into a caller-owned array,
bit-identical to `silu(z)[0]`.

The MMD sums expand squared distances as
||a||^2 + ||b||^2 - 2 a.b^T, so they agree with the direct double sums to
rounding.
"""

import numpy as np

# There is one kernel path; perfbench/run.py records this in its environment block.
USING_NUMBA = False


def silu(z):
    """(silu(z), q) with the gate q = 1 + tanh(z / 2); the output is written
    into the buffer of z / 2."""
    u = np.multiply(z, 0.5)
    q = np.tanh(u)
    q += 1.0
    u *= q
    return u, q


def silu_of_half(u, out):
    """silu(2 u) written into `out`, of u's shape and dtype, and returned:
    u (1 + tanh u) with no new array."""
    np.tanh(u, out=out)
    out += 1.0
    out *= u
    return out


def silu_grad(z, q):
    """The derivative of SiLU at z from the gate q that `silu(z)` returned."""
    s = np.multiply(q, 0.5)
    out = np.subtract(1.0, s)
    out *= z
    out += 1.0
    out *= s
    return out


def affine(h, w, b):
    out = h @ w.T
    out += b
    return out


def adamw_update(p, g, m, v, lr, b1, b2, eps, step):
    """In-place Adam step on p, m and v, in the dtype of p, with the bias
    corrections folded into two scalars (Kingma & Ba, section 2):
        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g)
        c2 = sqrt(1 - b2^step)
        p -= (lr c2 / (1 - b1^step)) (m / (sqrt(v) + eps c2))
    evaluated in that order through one work array. The result is the
    textbook p -= lr m_hat / (sqrt(v_hat) + eps) up to rounding."""
    c2 = (1.0 - b2**step) ** 0.5
    s = np.multiply(1.0 - b1, g, dtype=p.dtype)
    m *= b1
    m += s
    np.multiply(g, g, out=s)
    s *= 1.0 - b2
    v *= b2
    v += s
    np.sqrt(v, out=s)
    s += eps * c2
    np.divide(m, s, out=s)
    s *= lr * c2 / (1.0 - b1**step)
    p -= s


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
