"""Sample-based evaluation: sliced Wasserstein, RBF-kernel MMD, pairwise RMSE,
Gaussian KL utilities, and the executable decomposition / bound checks used by
`verify-oracle`.

Distributional acceptance thresholds are stated relative to the "oracle
self-distance": the metric value between two independent ground-truth sample
sets of the same size, which acts as the estimator noise floor.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import datagen
from ._kernels import mmd_terms, sq_dists
from .datagen import EvalTuples, GaussianInstance
from .sample import TranslationRequest, translate


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
    pa = np.sort(A @ dirs.T, axis=0)
    pb = np.sort(B @ dirs.T, axis=0)
    if len(A) != len(B):
        q = (np.arange(max(len(A), len(B))) + 0.5) / max(len(A), len(B))
        pa = np.quantile(pa, q, axis=0)
        pb = np.quantile(pb, q, axis=0)
    w2_sq = np.mean((pa - pb) ** 2, axis=0)
    return float(np.sqrt(np.mean(w2_sq)))


def mmd_rbf(A: np.ndarray, B: np.ndarray, bandwidth="median") -> float:
    """Unbiased MMD^2 estimate with RBF kernel exp(-||x-y||^2 / (2 h^2)),
    clamped at 0 for reporting. bandwidth: positive float or "median"."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if bandwidth == "median":
        pooled = np.concatenate([A[:250], B[:250]])
        dists = np.sqrt(sq_dists(pooled, pooled))
        med = np.median(dists[np.triu_indices_from(dists, k=1)])
        bandwidth = float(med) if med > 0 else 1.0
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    s_aa, s_bb, s_ab = mmd_terms(np.ascontiguousarray(A), np.ascontiguousarray(B), gamma)
    n, m = len(A), len(B)
    est = s_aa / (n * (n - 1)) + s_bb / (m * (m - 1)) - 2.0 * s_ab / (n * m)
    return max(float(est), 0.0)


def kl_gaussians(m1, C1, m2, C2) -> float:
    """Closed-form KL(N(m1, C1) || N(m2, C2)); scalars accepted for 1-D."""
    m1 = np.atleast_1d(np.asarray(m1, dtype=np.float64))
    m2 = np.atleast_1d(np.asarray(m2, dtype=np.float64))
    C1 = np.atleast_2d(np.asarray(C1, dtype=np.float64))
    C2 = np.atleast_2d(np.asarray(C2, dtype=np.float64))
    d = len(m1)
    for C in (C1, C2):
        if not np.allclose(C, C.T):
            raise ValueError("covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(C) <= 0):
            raise ValueError("covariance must be positive definite")
    C2_inv = np.linalg.inv(C2)
    diff = m2 - m1
    _, logdet1 = np.linalg.slogdet(C1)
    _, logdet2 = np.linalg.slogdet(C2)
    return 0.5 * float(np.trace(C2_inv @ C1) + diff @ C2_inv @ diff - d
                       + logdet2 - logdet1)


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


@dataclass
class MetricsReport:
    records: list[MetricsRecord] = field(default_factory=list)
    config_hash: str = ""
    seed: int = 0


def evaluate_checkpoint(predictor, tuples: EvalTuples, topo, directions, mode: str,
                        sch, *, inst: GaussianInstance | None = None, n_eval: int = 500,
                        seed: int = 0, steps: int = 0, eta: float = 0.0,
                        variant: str = "diffusion", projections: int = 128,
                        config_hash: str = "") -> MetricsReport:
    """Translate eval-tuple sources for each (src, tgt) direction and compare
    against aligned targets (RMSE) and against the target conditional
    population (sliced W2 and MMD; analytic samples when the instance is
    gaussian-affine, held-out real targets otherwise)."""
    report = MetricsReport(config_hash=config_hash, seed=seed)
    rng = np.random.default_rng(seed)
    for src, tgt in directions:
        x_src = tuples.domain(src)[:n_eval]
        if len(x_src) < 2:
            raise ValueError(f"no evaluation data for direction {src}->{tgt}")
        req = TranslationRequest(x_src=x_src, src=src, tgt=tgt, mode=mode,
                                 steps=steps, eta=eta, seed=seed)
        result = translate(predictor, req, topo, sch, variant=variant)
        target_aligned = tuples.domain(tgt)[:n_eval]
        if inst is not None:
            reference = datagen.sample_conditional(inst, src, tgt, x_src, rng)
        else:
            held_out = tuples.domain(tgt)[n_eval:2 * n_eval]
            reference = held_out if len(held_out) >= 2 else target_aligned
        proj_rng = np.random.default_rng(seed + 17)
        sw = sliced_wasserstein(result.x_tgt, reference, projections=projections,
                                rng=proj_rng)
        mmd = mmd_rbf(result.x_tgt[:250], reference[:250])
        rmse = float(np.sqrt(np.mean((result.x_tgt - target_aligned) ** 2)))
        report.records.append(MetricsRecord(
            src=src, tgt=tgt, mode=mode, sliced_w2=sw, mmd=mmd, rmse=rmse,
            steps=result.total_steps, n_samples=len(x_src), seed=seed))
    return report


REPORT_COLUMNS = ["src", "tgt", "mode", "sliced_w2", "mmd", "rmse", "steps",
                  "n_samples", "seed", "config_hash"]


def write_report_csv(path, report: MetricsReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in report.records:
            writer.writerow([r.src, r.tgt, r.mode, f"{r.sliced_w2:.6g}",
                             f"{r.mmd:.6g}", f"{r.rmse:.6g}", r.steps,
                             r.n_samples, r.seed, report.config_hash])


# ---------------------------------------------------------------------------
# executable derivation checks

def nested_vs_direct_kl(inst: GaussianInstance, central: int, src: int, tgt: int,
                        model_mean_shift: float = 0.3, model_var_scale: float = 1.2,
                        grid_points: int = 121, half_width: float = 7.0
                        ) -> tuple[float, float]:
    """Numerical check that the nested-expectation decomposition of the
    expected conditional KL equals its direct form on a 1-D instance.

    The model conditional q(x_tgt | x_src) is the analytic conditional with a
    shifted mean and scaled variance, so the KL is nonzero. Returns
    (nested_value, direct_value), both by trapezoid quadrature.
    """
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
    q_mean = mean_j_of_i + model_mean_shift
    q_var = var_j_i * model_var_scale
    q_j_given_i = gauss(gj[None, :], q_mean[:, None], q_var)

    # inner mixture: integral over x'_c of p(x'_c | x_i) p(x_j | x'_c)
    mix = (p_c_given_i * wc[None, :]) @ p_j_given_c                # (ni, nj)
    log_ratio_nested = np.log(mix + 1e-300) - np.log(q_j_given_i + 1e-300)
    inner_j = p_j_given_c[None, :, :] * log_ratio_nested[:, None, :]  # (ni, nc, nj)
    nested = float(np.einsum("i,i,ic,c,icj,j->", p_i, wi, p_c_given_i, wc, inner_j, wj))

    log_ratio_direct = np.log(p_j_given_i + 1e-300) - np.log(q_j_given_i + 1e-300)
    direct = float(np.einsum("i,i,ij,j->", p_i, wi, p_j_given_i * log_ratio_direct, wj))
    return nested, direct


def pathwise_kl_bound_trial(rng: np.random.Generator, n_steps: int = 8,
                            n_samples: int = 2000) -> tuple[float, float, float]:
    """One MC trial of the pathwise bound: the per-step transition KL sum of
    two linear-Gaussian reverse processes upper-bounds the KL between their
    endpoint marginals.

    Both processes share the prior N(0, 1) and the transition
    x_{t-1} = A_t x_t + b_t + sqrt(v_t) xi; they differ in the shift b_t.
    Returns (per_step_sum_mc, endpoint_kl_mc, endpoint_std_err).
    """
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
