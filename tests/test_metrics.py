import concurrent.futures
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from diffrouter import _kernels, datagen, metrics, sample
from diffrouter.datagen import GaussianInstance, OracleScorePredictor
from diffrouter.metrics import (evaluate_checkpoint, mmd_rbf,
                                nested_vs_direct_kl, oracle_self_distance,
                                pathwise_kl_bound_trial, sliced_wasserstein)
from diffrouter.router import KIND_DIRECT, KIND_PAIRED, init_router
from diffrouter.schedules import build_bridge_schedule, build_diffusion_schedule


# ---------------------------------------------------------------------------
# sliced Wasserstein

def test_sw_identical_sets_zero(rng):
    A = rng.standard_normal((200, 3))
    assert sliced_wasserstein(A, A.copy()) == 0.0


def test_sw_point_masses_1d():
    """Point masses at 0 and at s: every unit projection gives W2 = s."""
    A = np.zeros((10, 1))
    B = np.full((10, 1), 2.0)
    assert abs(sliced_wasserstein(A, B) - 2.0) < 1e-12


def _sw_reference(A, B, projections, seed):
    """Independent per-projection quantile-matching implementation."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((projections, A.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    acc = []
    for v in dirs:
        pa = np.sort(A @ v)
        pb = np.sort(B @ v)
        acc.append(np.mean((pa - pb) ** 2))
    return float(np.sqrt(np.mean(acc)))


def test_sw_matches_projection_oracle(rng):
    A = rng.standard_normal((300, 4))
    B = rng.standard_normal((300, 4)) + 0.5
    got = sliced_wasserstein(A, B, projections=64, rng=np.random.default_rng(3))
    ref = _sw_reference(A, B, 64, 3)
    assert abs(got - ref) < 1e-12


def test_sw_unequal_sizes(rng):
    A = rng.standard_normal((400, 2))
    B = rng.standard_normal((200, 2))
    small = sliced_wasserstein(A, B)
    assert small < 0.25  # same distribution, noise-floor level


def _sw_columns(A, B, projections=128, rng=None):
    """The sort-by-columns form sliced_wasserstein had before it sorted
    contiguous rows: the reference for bit-identity."""
    rng = rng or np.random.default_rng(0)
    dirs = rng.standard_normal((projections, A.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = np.sort(A @ dirs.T, axis=0)
    pb = np.sort(B @ dirs.T, axis=0)
    if len(A) != len(B):
        q = (np.arange(max(len(A), len(B))) + 0.5) / max(len(A), len(B))
        pa = np.quantile(pa, q, axis=0)
        pb = np.quantile(pb, q, axis=0)
    w2_sq = np.mean((pa - pb) ** 2, axis=0)
    return float(np.sqrt(np.mean(w2_sq)))


@pytest.mark.parametrize("n, m, d", [(1000, 1000, 2), (300, 300, 64), (400, 250, 2),
                                     (37, 120, 64), (2, 3, 1)])
def test_sw_rows_match_the_column_form_bitwise(rng, n, m, d):
    """Sorting each projection along a contiguous row changes no bit, for
    equal set sizes and for the quantile path of unequal ones."""
    for seed in range(3):
        A = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2)
        B = rng.standard_normal((m, d)) + 0.5
        got = sliced_wasserstein(A, B, projections=64, rng=np.random.default_rng(seed))
        want = _sw_columns(A, B, projections=64, rng=np.random.default_rng(seed))
        assert got == want


def test_sw_validation(rng):
    with pytest.raises(ValueError):
        sliced_wasserstein(np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        sliced_wasserstein(np.zeros((1, 2)), np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# MMD

def test_mmd_halves_of_same_distribution_near_zero(rng):
    X = rng.standard_normal((400, 2))
    assert mmd_rbf(X[:200], X[200:]) < 0.01


def test_mmd_separated_clusters(rng):
    A = rng.standard_normal((200, 2))
    B = rng.standard_normal((200, 2)) + 10.0
    assert mmd_rbf(A, B) > 0.5


def test_mmd_huge_bandwidth_vanishes(rng):
    A = rng.standard_normal((100, 2))
    B = rng.standard_normal((100, 2)) + 1.0
    assert mmd_rbf(A, B, bandwidth=1e6) < 1e-6


def test_mmd_matches_double_sum_oracle(rng):
    """Scalar double loops over the three kernel sums on small sets."""
    A = rng.standard_normal((40, 3))
    B = rng.standard_normal((50, 3)) + 0.8
    h = 1.3
    gamma = 1.0 / (2 * h * h)

    def k(x, y):
        return np.exp(-gamma * np.sum((x - y) ** 2))

    s_aa = sum(k(A[i], A[j]) for i in range(40) for j in range(40) if i != j)
    s_bb = sum(k(B[i], B[j]) for i in range(50) for j in range(50) if i != j)
    s_ab = sum(k(A[i], B[j]) for i in range(40) for j in range(50))
    expect = max(s_aa / (40 * 39) + s_bb / (50 * 49) - 2 * s_ab / (40 * 50), 0.0)
    assert abs(mmd_rbf(A, B, bandwidth=h) - expect) < 1e-10


def _median_distance_sqrt_all(X):
    """The median bandwidth as mmd_rbf took it before it skipped the square
    roots: the square root of every pair, then np.median."""
    dists = np.sqrt(_kernels.sq_dists(X, X))
    return float(np.median(dists[np.triu_indices_from(dists, k=1)]))


@pytest.mark.parametrize("n_a, n_b", [(3, 3), (3, 4), (250, 250), (60, 50), (2, 2)])
def test_mmd_median_bandwidth_matches_every_square_root_bitwise(rng, n_a, n_b):
    """Pooled sizes 6, 7, 500, 110 and 4 give odd (15, 21, 5995) and even
    (124750, 6) pair counts; the bandwidth and the MMD are the same to the bit
    as with the square root of every pair. So they are when every other row
    of A and of B repeats its first row, which ties many distances, the
    middle ones among them."""
    for _ in range(3):
        A = rng.standard_normal((n_a, 2)) * 10.0 ** rng.uniform(-2, 2)
        B = rng.standard_normal((n_b, 2)) + 0.7
        for tied in (False, True):
            if tied:
                A[1::2], B[1::2] = A[0], B[0]
            pooled = np.concatenate([A[:250], B[:250]])
            h = _median_distance_sqrt_all(pooled)
            assert metrics._median_distance(pooled) == h
            assert mmd_rbf(A, B) == mmd_rbf(A, B, bandwidth=h)


def test_mmd_median_bandwidth_of_a_nan_distance_is_nan():
    """As np.median, a NaN among the distances gives a NaN median."""
    X = np.array([[0.0, 1.0], [np.nan, 0.0], [2.0, 2.0], [1.0, 0.0]])
    assert np.isnan(_median_distance_sqrt_all(X))
    assert np.isnan(metrics._median_distance(X))


def test_mmd_validation(rng):
    with pytest.raises(ValueError):
        mmd_rbf(np.zeros((5, 2)), np.zeros((5, 2)), bandwidth=-1.0)
    with pytest.raises(ValueError):
        mmd_rbf(np.zeros((5, 2)), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# Gaussian KL

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


def test_kl_identical_zero():
    C = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert abs(kl_gaussians(np.ones(2), C, np.ones(2), C)) < 1e-12


def test_kl_unit_shift_half():
    assert abs(kl_gaussians(0.0, 1.0, 1.0, 1.0) - 0.5) < 1e-12


def test_kl_matches_monte_carlo(rng):
    m1, m2 = np.array([0.2, -0.5]), np.array([0.0, 0.3])
    C1 = np.array([[1.0, 0.2], [0.2, 0.8]])
    C2 = np.array([[1.5, -0.1], [-0.1, 1.2]])
    closed = kl_gaussians(m1, C1, m2, C2)
    n = 200_000
    L1 = np.linalg.cholesky(C1)
    x = m1 + rng.standard_normal((n, 2)) @ L1.T

    def logpdf(x, m, C):
        Ci = np.linalg.inv(C)
        _, ld = np.linalg.slogdet(C)
        d = x - m
        return -0.5 * (np.einsum("ni,ij,nj->n", d, Ci, d) + ld + 2 * np.log(2 * np.pi))

    diffs = logpdf(x, m1, C1) - logpdf(x, m2, C2)
    se = np.std(diffs) / np.sqrt(n)
    assert abs(np.mean(diffs) - closed) < 3 * se + 1e-4


def test_kl_validation():
    with pytest.raises(ValueError):
        kl_gaussians(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]),
                     np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        kl_gaussians(np.zeros(2), -np.eye(2), np.zeros(2), np.eye(2))


# ---------------------------------------------------------------------------
# checkpoint evaluation

def test_evaluate_oracle_near_noise_floor(small_star, sch100):
    """The exact-score predictor scores within 1.5x of the oracle
    self-distance; a zero predictor scores far worse."""
    topo, _, tuples, inst = small_star
    oracle = OracleScorePredictor(inst, sch100)
    (rec,) = evaluate_checkpoint(oracle, tuples, topo, [(1, 2)], "indirect",
                                 sch100, inst=inst, n_eval=500, seed=0)
    floor = oracle_self_distance(inst, 1, 2, tuples.domain(1)[:500],
                                 np.random.default_rng(5))
    assert rec.sliced_w2 < 1.5 * floor + 0.02
    assert (rec.src, rec.tgt, rec.steps, rec.mode) == (1, 2, 2 * sch100.T, "indirect")

    zero = lambda x_t, t, x_src, tgt, src: np.zeros_like(np.atleast_2d(x_t))
    bad = evaluate_checkpoint(zero, tuples, topo, [(1, 2)], "indirect",
                              sch100, inst=inst, n_eval=200, seed=0)
    assert bad[0].sliced_w2 > 10 * rec.sliced_w2


@pytest.mark.parametrize("sch", [build_diffusion_schedule(8, eta=0.5),
                                 build_bridge_schedule(8, eta=0.5)],
                         ids=["diffusion", "bridge"])
def test_evaluate_runs_each_hop_once(sch, monkeypatch):
    """All 12 directions of a K=4 chain route over 20 hops but only 12
    distinct (src, hop target) pairs: the eval runs one chain per pair, and
    each record's translation is byte-equal to a lone `translate` of its
    direction. At eta 0.5 every hop draws noise, so a hop seeded by its final
    target would differ."""
    topo, _, tuples, inst = datagen.make_chain_instance(4, 2, 50, seed=3, M=200)
    predictor = lambda x_t, t, x_src, tgt, src: 0.3 * x_t - 0.2 * x_src + 0.1 * (tgt - src)
    name = "sample_chain_diffusion"
    chains, done = [], []
    chain, translate = getattr(sample, name), metrics.translate

    def spy_chain(*args, **kwargs):
        chains.append((args[1].tobytes(), *args[2:4]))  # input, tgt, src
        return chain(*args, **kwargs)

    def spy_translate(*args):
        done.append((args[1], translate(*args)))
        return done[-1][1]

    monkeypatch.setattr(sample, name, spy_chain)
    monkeypatch.setattr(metrics, "translate", spy_translate)
    directions = topo.directions("all")
    records = evaluate_checkpoint(predictor, tuples, topo, directions, "indirect", sch,
                                  inst=inst, n_eval=40, seed=11)
    assert len(chains) == len(set(chains)) == 12, len(chains)  # not one per route hop: 20
    assert [(r.src, r.tgt) for r in records] == directions
    # each direction is translated once; the groups of a pool run in their own order
    assert sorted((q.src, q.tgt) for q, _ in done) == sorted(directions)
    for req, got in done:
        fresh = sample.translate(predictor, req, topo, sch)
        assert got.x_tgt.tobytes() == fresh.x_tgt.tobytes()
        assert [a.tobytes() for a in got.intermediates] == \
            [a.tobytes() for a in fresh.intermediates]
        assert got.total_steps == fresh.total_steps == 8 * abs(req.tgt - req.src)


def _lone_records(predictor, tuples, topo, directions, mode, sch, inst, n_eval, seed):
    """The records of a sequential loop that runs one lone `translate` per
    direction: the reference for the grouped, pooled eval."""
    rng = np.random.default_rng(seed)
    records = []
    for src, tgt in directions:
        x_src = tuples.domain(src)[:n_eval]
        req = sample.TranslationRequest(x_src=x_src, src=src, tgt=tgt, mode=mode, seed=seed)
        result = sample.translate(predictor, req, topo, sch)
        out = result.x_tgt
        target = tuples.domain(tgt)[:n_eval]
        if inst is not None:
            reference = datagen.sample_conditional(inst, src, tgt, x_src, rng)
        else:
            reference = tuples.domain(tgt)[n_eval:2 * n_eval]
        records.append(metrics.MetricsRecord(
            src=src, tgt=tgt, mode=mode,
            sliced_w2=sliced_wasserstein(out, reference, rng=np.random.default_rng(seed + 17)),
            mmd=mmd_rbf(out[:250], reference[:250]),
            rmse=float(np.sqrt(np.mean((out - target) ** 2))),
            steps=result.total_steps, n_samples=len(x_src), seed=seed))
    return records


def _float32_router(K, kind):
    params = init_router(2, K, 8, [16, 16], np.random.default_rng(4))
    return replace(params, flat=params.flat.astype(np.float32), kind=kind)


EVAL_TREES = {"chain5": lambda: datagen.make_chain_instance(5, 2, 50, seed=3, M=200),
              "star3": lambda: datagen.make_star_instance(3, 2, 50, seed=3, M=200)}


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("mode, which", [("indirect", "all"), ("direct", "nonedges")])
@pytest.mark.parametrize("tree", sorted(EVAL_TREES))
@pytest.mark.parametrize("predictor", ["router", "oracle"])
def test_pooled_eval_matches_one_lone_translate_per_direction(
        predictor, tree, mode, which, workers, monkeypatch):
    """Whatever the pool size, each record equals, field by field, the one a
    sequential loop of lone `translate`s gives, and every pool thread is
    joined; 4 workers, more than the cores, switch threads every 10 us. The
    router uses held-out targets as the reference, the oracle the analytic
    conditional."""
    topo, _, tuples, inst = EVAL_TREES[tree]()
    sch = build_diffusion_schedule(8, eta=0.5)
    if predictor == "router":
        predictor, inst = _float32_router(topo.K, KIND_DIRECT), None
    else:
        predictor = OracleScorePredictor(inst, sch)
    directions = topo.directions(which)
    monkeypatch.setattr(metrics, "eval_workers", lambda: workers)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = evaluate_checkpoint(predictor, tuples, topo, directions, mode, sch, inst=inst,
                                  n_eval=40, seed=5)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert got == _lone_records(predictor, tuples, topo, directions, mode, sch, inst, 40, 5)


@pytest.mark.parametrize("workers", [1, 2])
def test_pooled_eval_failure_cancels_the_groups_not_started(workers, monkeypatch):
    """A direct eval of a paired-only checkpoint fails in every group: the
    caller gets the error the sequential loop raises first, at most one
    group per thread translated anything, and the threads are joined."""
    topo, _, tuples, _ = EVAL_TREES["chain5"]()
    sch = build_diffusion_schedule(8)
    params = _float32_router(5, KIND_PAIRED)
    directions = topo.directions("nonedges")
    with pytest.raises(ValueError) as lone:
        _lone_records(params, tuples, topo, directions, "direct", sch, None, 40, 5)
    calls, translate = [], metrics.translate

    def spy_translate(*args):
        calls.append(args[1])
        return translate(*args)

    monkeypatch.setattr(metrics, "translate", spy_translate)
    monkeypatch.setattr(metrics, "eval_workers", lambda: workers)
    threads = threading.active_count()
    with pytest.raises(ValueError) as pooled:
        evaluate_checkpoint(params, tuples, topo, directions, "direct", sch, n_eval=40, seed=5)
    assert threading.active_count() == threads
    assert str(pooled.value) == str(lone.value)
    assert 1 <= len(calls) <= workers < len(directions)


@pytest.mark.parametrize("workers", [1, 2])
def test_pooled_eval_raises_the_first_failure_in_direction_order(workers, monkeypatch):
    """On a K=5 chain the hops 2->1 and 1->0 fail. Direction 1->0 (index 4)
    is a group of one, run last; the larger groups submitted first fail at
    later directions (4->1, 3->1, 2->1). The sequential loop's error is
    1->0's, and so is the pooled one's."""
    topo, _, tuples, inst = EVAL_TREES["chain5"]()
    sch = build_diffusion_schedule(8)

    def predictor(x_t, t, x_src, tgt, src):
        if (src, tgt) in {(1, 0), (2, 1)}:
            raise ValueError(f"hop {src}->{tgt} fails")
        return 0.3 * x_t - 0.2 * x_src

    directions = topo.directions("all")
    with pytest.raises(ValueError, match="hop 1->0") as lone:
        _lone_records(predictor, tuples, topo, directions, "indirect", sch, inst, 40, 5)
    monkeypatch.setattr(metrics, "eval_workers", lambda: workers)
    threads = threading.active_count()
    with pytest.raises(ValueError) as pooled:
        evaluate_checkpoint(predictor, tuples, topo, directions, "indirect", sch, inst=inst,
                            n_eval=40, seed=5)
    assert threading.active_count() == threads
    assert str(pooled.value) == str(lone.value)


@pytest.mark.parametrize("directions, groups", [
    ([(1, 0), (1, 2)], 1),  # both routes leave leaf 1 by the centre
    ([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)], 4),
])
def test_pool_is_never_larger_than_the_number_of_groups(directions, groups, monkeypatch):
    """With 8 workers allowed, the calling thread and one pool thread per
    further group translate: a lone group starts no thread."""
    topo, _, tuples, inst = EVAL_TREES["star3"]()
    sch = build_diffusion_schedule(8)
    submitted = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(metrics, "eval_workers", lambda: 8)
    evaluate_checkpoint(OracleScorePredictor(inst, sch), tuples, topo, directions,
                        "indirect", sch, inst=inst, n_eval=40)
    assert len(submitted) == groups - 1


@pytest.mark.parametrize("env, cpus, workers", [
    ({}, 2, 1),  # BLAS unpinned: its own threads already use the cores
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 2),
    ({"MKL_NUM_THREADS": "1"}, 3, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),  # OpenBLAS's own first
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "-3"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": ""}, 2, 1),
])
def test_eval_workers_divides_the_cpus_by_the_blas_threads(env, cpus, workers, monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert metrics.eval_workers() == workers


def test_evaluate_requires_data(small_star, sch100):
    topo, _, tuples, inst = small_star
    empty = datagen.EvalTuples(samples=tuples.samples[:1])
    oracle = OracleScorePredictor(inst, sch100)
    with pytest.raises(ValueError):
        evaluate_checkpoint(oracle, empty, topo, [(1, 2)], "indirect", sch100)


# ---------------------------------------------------------------------------
# executable derivation checks

def _check_instance_1d():
    rng = np.random.default_rng(21)
    maps = [np.array([[1.0]]), np.array([[0.9]]), np.array([[-0.7]])]
    return GaussianInstance(maps=maps,
                            offsets=[np.zeros(1), np.array([0.2]), np.array([-0.1])],
                            noise=[1e-3, 0.4, 0.5], latent_dim=1)


def test_nested_equals_direct_decomposition():
    """When the central domain is a near-deterministic view of the latent,
    the nested-expectation KL agrees with the direct one."""
    inst = _check_instance_1d()
    nested, direct = nested_vs_direct_kl(inst, 0, 1, 2)
    assert direct > 0.01  # the perturbed model is genuinely wrong
    assert abs(nested - direct) < 1e-3


def test_decomposition_gap_when_central_uninformative():
    """With a noisy central domain the nested form exceeds the direct one
    (extra conditioning is lost), confirming the check has teeth."""
    inst = _check_instance_1d()
    inst.noise[0] = 1.0
    nested, direct = nested_vs_direct_kl(inst, 0, 1, 2)
    assert nested > direct + 1e-3


def test_decomposition_requires_1d():
    inst = GaussianInstance(maps=[np.eye(2)] * 3, offsets=[np.zeros(2)] * 3,
                            noise=[0.1, 0.1, 0.1], latent_dim=2)
    with pytest.raises(ValueError):
        nested_vs_direct_kl(inst, 0, 1, 2)


def test_pathwise_bound_holds_over_trials():
    rng = np.random.default_rng(0)
    for _ in range(20):
        step_sum, endpoint, se = pathwise_kl_bound_trial(rng)
        assert step_sum >= endpoint - 3 * se - 1e-6
