"""Sample-based evaluation: sliced Wasserstein, RBF-kernel MMD, pairwise RMSE,
and the executable decomposition / bound checks used by `verify-oracle`.

Distributional acceptance thresholds are stated relative to the "oracle
self-distance": the metric value between two independent ground-truth sample
sets of the same size, which acts as the estimator noise floor.

`evaluate_checkpoint` returns one record per direction; the CLI writes them
as the eval report.
"""

from dataclasses import dataclass

import numpy as np

from . import datagen
from ._kernels import mmd_terms, sq_dists
from .datagen import EvalTuples, GaussianInstance
from .sample import TranslationRequest, route_path, translate


# ---------------------------------------------------------------------------
# distances

def sliced_wasserstein(A: np.ndarray, B: np.ndarray, projections: int = 128,
                       rng: np.random.Generator | None = None) -> float:
    """Root-mean-square over random unit projections of the 1-D W2 distance
    between the projected empirical distributions."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if len(A) < 2 or len(B) < 2:
        raise ValueError("need at least 2 samples per set")
    rng = rng or np.random.default_rng(0)
    d = A.shape[1]
    dirs = rng.standard_normal((projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa, pb = _sorted_projections(A, dirs), _sorted_projections(B, dirs)
    if len(A) != len(B):
        q = (np.arange(max(len(A), len(B))) + 0.5) / max(len(A), len(B))
        pa = np.quantile(pa, q, axis=1)
        pb = np.quantile(pb, q, axis=1)
    else:
        pa, pb = pa.T, pb.T
    # the squared gaps as a C-ordered (samples, projections) array, so that
    # the mean over samples adds them row by row
    w2_sq = np.mean(np.subtract(pa, pb, order="C") ** 2, axis=0)
    return float(np.sqrt(np.mean(w2_sq)))


def _sorted_projections(X: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """(projections, samples): row p holds X's projections on dirs[p], sorted
    along the contiguous row."""
    proj = (X @ dirs.T).T.copy()
    proj.sort(axis=1)
    return proj


def mmd_rbf(A: np.ndarray, B: np.ndarray, bandwidth="median") -> float:
    """Unbiased MMD^2 estimate with RBF kernel exp(-||x-y||^2 / (2 h^2)),
    clamped at 0 for reporting. bandwidth: positive float or "median"."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if bandwidth == "median":
        med = _median_distance(np.concatenate([A[:250], B[:250]]))
        bandwidth = med if med > 0 else 1.0
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    s_aa, s_bb, s_ab = mmd_terms(np.ascontiguousarray(A), np.ascontiguousarray(B), gamma)
    n, m = len(A), len(B)
    est = s_aa / (n * (n - 1)) + s_bb / (m * (m - 1)) - 2.0 * s_ab / (n * m)
    return max(float(est), 0.0)


def _median_distance(X: np.ndarray) -> float:
    """np.median of the distances between the rows i < j of X. Only the middle
    one or two squared distances get a square root: sqrt is monotone, so the
    result is the same to the bit. A NaN distance gives NaN, as in np.median."""
    sq = sq_dists(X, X)[~np.tri(len(X), dtype=bool)]  # the pairs i < j, row by row
    lo = (sq.size - 1) // 2  # the lower middle one
    sq.partition(lo)  # no value after sq[lo] is below it, and a NaN sorts after it
    above = sq[lo + 1:].min(initial=np.inf)  # the upper middle one, or NaN
    if np.isnan(above):
        return float("nan")
    mid = sq[lo:lo + 1] if sq.size % 2 else np.array([sq[lo], above])
    return float(np.mean(np.sqrt(mid)))


def oracle_self_distance(inst: GaussianInstance, src: int, tgt: int, x_src: np.ndarray,
                         rng: np.random.Generator, projections: int = 128) -> float:
    """Sliced W2 between two independent analytic conditional sample sets."""
    a = datagen.sample_conditional(inst, src, tgt, x_src, rng)
    b = datagen.sample_conditional(inst, src, tgt, x_src, rng)
    return sliced_wasserstein(a, b, projections=projections, rng=np.random.default_rng(1234))


# ---------------------------------------------------------------------------
# checkpoint evaluation

@dataclass
class MetricsRecord:
    src: int
    tgt: int
    mode: str
    sliced_w2: float
    mmd: float
    rmse: float
    steps: int
    n_samples: int
    seed: int


def eval_workers() -> int:
    """How many reverse chains `evaluate_checkpoint` runs at once: the CPUs
    this process may use divided by the BLAS thread count, which is read,
    never set, from OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else
    MKL_NUM_THREADS. 1 when none is set or the first one set is not a
    positive integer: two chains on an unpinned multi-threaded BLAS ran
    slower than one."""
    import os  # here, like the pool's imports: importing the module imports nothing new

    value = next((os.environ[n] for n in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if n in os.environ), "")
    try:
        blas = int(value)
    except ValueError:  # none set, or not a number
        return 1
    if blas < 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) // blas)


def evaluate_checkpoint(predictor, tuples: EvalTuples, topo, directions, mode: str,
                        sch, *, inst: GaussianInstance | None = None, n_eval: int = 500,
                        seed: int = 0, steps: int = 0,
                        projections: int = 128) -> list[MetricsRecord]:
    """Translate eval-tuple sources for each (src, tgt) direction and compare
    against aligned targets (RMSE) and against the target conditional
    population (sliced W2 and MMD; analytic samples when the instance is
    gaussian-affine, held-out real targets otherwise). One record per
    direction, in order.

    Every target of a source translates the same x_src, so directions share
    a `translate` hop cache: each (src, hop) pair runs one reverse chain,
    K(K-1) chains for all directions of a tree, and each record is the one a
    lone `translate` of its direction gives.

    It runs in three phases. First, in the calling thread and in direction
    order, each direction is validated, its reference set is drawn from the
    one `rng`, and it joins the group of its (src, first hop), or of
    (src, tgt) in direct mode. Two routes that leave one source by different
    hops share no hop of a tree, so each group gets its own hop cache. Then
    the calling thread and up to `eval_workers()` - 1 pool threads translate
    the groups, the largest first. No lock guards the numerics: a chain owns
    its binding, its workspace and its seeded noise stream (see `sample`), a
    group owns its hop cache and its directions' result slots, and the rest
    is only read; numpy releases the GIL inside matrix products and ufunc
    loops, so chains of different groups run at once. Last, the calling
    thread scores the translations in direction order. Scoring stays there
    because each pool thread allocates from a malloc arena of its own, which
    keeps about as much as the thread once used: the scoring arrays, larger
    than a chain's, would raise the peak memory once per thread.

    If a direction fails, the error raised is that of the first failing
    direction in direction order, as a sequential loop raises it: a group
    stops at a direction after a failure seen so far, so a group that starts
    after a failure at an earlier direction translates nothing. Every pool
    thread is joined before this returns or raises."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(seed)
    jobs, groups = [], {}
    for index, (src, tgt) in enumerate(directions):
        x_src = tuples.domain(src)[:n_eval]
        if len(x_src) < 2:
            raise ValueError(f"no evaluation data for direction {src}->{tgt}")
        req = TranslationRequest(x_src=x_src, src=src, tgt=tgt, mode=mode,
                                 steps=steps, seed=seed)
        target_aligned = tuples.domain(tgt)[:n_eval]
        if inst is not None:
            reference = datagen.sample_conditional(inst, src, tgt, x_src, rng)
        else:
            held_out = tuples.domain(tgt)[n_eval:2 * n_eval]
            reference = held_out if len(held_out) >= 2 else target_aligned
        jobs.append((req, target_aligned, reference))
        first_hop = tgt if mode == "direct" else route_path(topo, src, tgt)[1]
        groups.setdefault((src, first_hop), []).append(index)

    results = [None] * len(jobs)
    failures = {}  # direction index -> the error translating it raised
    lock = threading.Lock()
    pending = iter(sorted(groups.values(), key=len, reverse=True))

    def drain():
        while True:
            with lock:
                group = next(pending, None)
            if group is None:
                return
            hops = {}
            for index in group:
                with lock:
                    if index > min(failures, default=index):
                        break  # a sequential loop stops at the earlier failure
                try:
                    results[index] = translate(predictor, jobs[index][0], topo, sch, hops)
                except Exception as exc:  # raised in the calling thread below
                    with lock:
                        failures[index] = exc
                    break

    workers = min(len(groups), eval_workers())
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()

    records = []
    for index, (req, target_aligned, reference) in enumerate(jobs):
        if index in failures:
            raise failures[index]
        x_tgt = results[index].x_tgt
        sw = sliced_wasserstein(x_tgt, reference, projections=projections,
                                rng=np.random.default_rng(seed + 17))
        mmd = mmd_rbf(x_tgt[:250], reference[:250])
        rmse = float(np.sqrt(np.mean((x_tgt - target_aligned) ** 2)))
        records.append(MetricsRecord(
            src=req.src, tgt=req.tgt, mode=mode, sliced_w2=sw, mmd=mmd, rmse=rmse,
            steps=results[index].total_steps, n_samples=len(req.x_src), seed=seed))
    return records


# ---------------------------------------------------------------------------
# executable derivation checks

def nested_vs_direct_kl(inst: GaussianInstance, central: int, src: int,
                        tgt: int) -> tuple[float, float]:
    """Numerical check that the nested-expectation decomposition of the
    expected conditional KL equals its direct form on a 1-D instance.

    The model conditional q(x_tgt | x_src) is the analytic conditional with its
    mean shifted by 0.3 and its variance scaled by 1.2, so the KL is nonzero.
    Returns (nested_value, direct_value), both by trapezoid quadrature.
    """
    grid_points, half_width = 121, 7.0  # per axis; half-width in std devs
    if inst.data_dim != 1:
        raise ValueError("decomposition check uses a 1-D instance")

    def cond(a: int, b: int, x):
        mean, cov = datagen.analytic_conditional(inst, a, b, np.atleast_2d(np.asarray(x, float).reshape(-1, 1)))
        return mean[:, 0], float(cov[0, 0])

    def gauss(x, mean, var):
        return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)

    # marginal of the source domain
    A_s = inst.maps[src][0, 0]
    mu_i = inst.offsets[src][0]
    var_i = A_s * A_s + inst.noise[src] ** 2

    gi = mu_i + np.linspace(-half_width, half_width, grid_points) * np.sqrt(var_i)
    mean_c, var_c = cond(src, central, gi)
    gc = np.linspace(mean_c.min() - half_width * np.sqrt(var_c),
                     mean_c.max() + half_width * np.sqrt(var_c), grid_points)
    mean_j_of_c, var_j_c = cond(central, tgt, gc)
    gj = np.linspace(mean_j_of_c.min() - half_width * np.sqrt(var_j_c),
                     mean_j_of_c.max() + half_width * np.sqrt(var_j_c), grid_points)

    wi = np.gradient(gi)
    wc = np.gradient(gc)
    wj = np.gradient(gj)

    p_i = gauss(gi, mu_i, var_i)                                   # (ni,)
    p_c_given_i = gauss(gc[None, :], mean_c[:, None], var_c)       # (ni, nc)
    p_j_given_c = gauss(gj[None, :], mean_j_of_c[:, None], var_j_c)  # (nc, nj)

    mean_j_of_i, var_j_i = cond(src, tgt, gi)
    p_j_given_i = gauss(gj[None, :], mean_j_of_i[:, None], var_j_i)  # (ni, nj)
    q_mean = mean_j_of_i + 0.3
    q_var = var_j_i * 1.2
    q_j_given_i = gauss(gj[None, :], q_mean[:, None], q_var)

    # inner mixture: integral over x'_c of p(x'_c | x_i) p(x_j | x'_c)
    mix = (p_c_given_i * wc[None, :]) @ p_j_given_c                # (ni, nj)
    log_ratio_nested = np.log(mix + 1e-300) - np.log(q_j_given_i + 1e-300)
    inner_j = p_j_given_c[None, :, :] * log_ratio_nested[:, None, :]  # (ni, nc, nj)
    nested = float(np.einsum("i,i,ic,c,icj,j->", p_i, wi, p_c_given_i, wc, inner_j, wj))

    log_ratio_direct = np.log(p_j_given_i + 1e-300) - np.log(q_j_given_i + 1e-300)
    direct = float(np.einsum("i,i,ij,j->", p_i, wi, p_j_given_i * log_ratio_direct, wj))
    return nested, direct


def pathwise_kl_bound_trial(rng: np.random.Generator) -> tuple[float, float, float]:
    """One MC trial of the pathwise bound: the per-step transition KL sum of
    two linear-Gaussian reverse processes upper-bounds the KL between their
    endpoint marginals.

    Both processes share the prior N(0, 1) and the transition
    x_{t-1} = A_t x_t + b_t + sqrt(v_t) xi; they differ in the shift b_t.
    Returns (per_step_sum_mc, endpoint_kl_mc, endpoint_std_err).
    """
    n_steps, n_samples = 8, 2000
    A = rng.uniform(0.8, 1.0, size=n_steps)
    b_ref = rng.normal(0.0, 0.3, size=n_steps)
    b_mod = b_ref + rng.normal(0.0, 0.25, size=n_steps)
    v = rng.uniform(0.05, 0.3, size=n_steps)

    # marginals of the reference process, from t = n_steps down to 0
    mu, s2 = 0.0, 1.0
    mu_m, s2_m = 0.0, 1.0
    step_sum = 0.0
    x = rng.standard_normal(n_samples)  # samples from the prior
    for t in range(n_steps - 1, -1, -1):
        mean_ref = A[t] * x + b_ref[t]
        mean_mod = A[t] * x + b_mod[t]
        x_next = mean_ref + np.sqrt(v[t]) * rng.standard_normal(n_samples)
        # single-sample log-ratio MC estimate of the expected transition KL
        log_ratio = (-0.5 * (x_next - mean_ref) ** 2 / v[t]
                     + 0.5 * (x_next - mean_mod) ** 2 / v[t])
        step_sum += float(np.mean(log_ratio))
        mu, s2 = A[t] * mu + b_ref[t], A[t] ** 2 * s2 + v[t]
        mu_m, s2_m = A[t] * mu_m + b_mod[t], A[t] ** 2 * s2_m + v[t]
        x = x_next

    # endpoint KL by MC over the reference endpoint samples
    log_p = -0.5 * np.log(2 * np.pi * s2) - 0.5 * (x - mu) ** 2 / s2
    log_q = -0.5 * np.log(2 * np.pi * s2_m) - 0.5 * (x - mu_m) ** 2 / s2_m
    diffs = log_p - log_q
    endpoint = float(np.mean(diffs))
    se = float(np.std(diffs) / np.sqrt(n_samples))
    return step_sum, endpoint, se
