import itertools
from dataclasses import replace

import numpy as np
import pytest

from diffrouter import datagen, metrics, router
from diffrouter.datagen import OracleScorePredictor, Topology
from diffrouter.router import KIND_DIRECT, condition, init_router
from diffrouter.sample import (TranslationRequest, reverse_step_diffusion, route_path,
                               sample_chain_diffusion, translate)
from diffrouter.schedules import build_bridge_schedule, build_diffusion_schedule
from diffrouter.train import TrainConfig, train


def _zero_predictor(x_t, t, x_src, tgt, src):
    return np.zeros_like(np.asarray(x_t, dtype=float))


def test_route_path_star():
    topo = Topology(K=3, edges=((1, 0), (2, 0)), central=0)
    assert route_path(topo, 1, 2) == [1, 0, 2]
    assert route_path(topo, 2, 2) == [2]


def test_route_path_chain():
    topo = Topology(K=4, edges=((0, 1), (1, 2), (2, 3)))
    assert route_path(topo, 0, 3) == [0, 1, 2, 3]
    assert route_path(topo, 3, 1) == [3, 2, 1]


def test_route_path_label_validation():
    topo = Topology(K=3, edges=((1, 0), (2, 0)), central=0)
    with pytest.raises(ValueError):
        route_path(topo, 0, 3)


def _all_simple_paths(adj, src, tgt, K):
    out = []

    def walk(node, seen, path):
        if node == tgt:
            out.append(path[:])
            return
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                walk(nxt, seen, path)
                path.pop()
                seen.remove(nxt)

    walk(src, {src}, [src])
    return out


def test_route_path_uniqueness_brute_force():
    """On random trees with K <= 6 the returned path is the unique simple path."""
    rng = np.random.default_rng(4)
    for K in range(2, 7):
        for _ in range(10):
            edges = tuple((k, int(rng.integers(0, k))) for k in range(1, K))
            topo = Topology(K=K, edges=edges)
            adj = topo.adjacency()
            for src, tgt in itertools.permutations(range(K), 2):
                paths = _all_simple_paths(adj, src, tgt, K)
                assert len(paths) == 1
                assert route_path(topo, src, tgt) == paths[0]


def test_reverse_step_zero_predictor_rescales(sch100, rng):
    """eta = 0, zero noise estimate: pure (a_prev / a_t) rescaling."""
    x = rng.standard_normal(3)
    out = reverse_step_diffusion(condition(_zero_predictor, x, 1, 0), x, 50, sch100, rng)
    assert np.allclose(out, (sch100.alpha[49] / sch100.alpha[50]) * x)


def test_reverse_step_deterministic_at_eta_zero(sch100, rng):
    x = rng.standard_normal(3)
    a = reverse_step_diffusion(condition(_zero_predictor, x, 1, 0), x, 10, sch100,
                               np.random.default_rng(1))
    b = reverse_step_diffusion(condition(_zero_predictor, x, 1, 0), x, 10, sch100,
                               np.random.default_rng(2))
    assert np.array_equal(a, b)  # no randomness consumed


def test_reverse_step_t_range(sch100, rng):
    with pytest.raises(ValueError):
        reverse_step_diffusion(condition(_zero_predictor, np.zeros(2), 1, 0),
                               np.zeros(2), 0, sch100, rng)


def test_bridge_step_checks_t_prev_first(rng):
    """A t_prev outside [0, t) is refused before any table is read: -1 would
    read alpha[-1], 25 past the end of a T=20 table."""
    sch = build_bridge_schedule(20)
    y = rng.standard_normal(2)
    for t, t_prev in ((20, -1), (10, 25)):
        with pytest.raises(ValueError, match=rf"t_prev={t_prev} must lie in \[0, {t}\)"):
            reverse_step_diffusion(condition(_zero_predictor, y, 1, 0), y, t, sch, rng,
                                   t_prev=t_prev, y=y)


def test_oracle_chain_matches_analytic_marginal(small_star, sch100):
    """Exact-score sampling reproduces the analytic conditional within
    sliced-W2 < 0.05 on 5000 samples."""
    _, _, tuples, inst = small_star
    oracle = OracleScorePredictor(inst, sch100)
    rng = np.random.default_rng(2)
    x_src = np.tile(tuples.domain(1)[0], (5000, 1))
    out, n_steps = sample_chain_diffusion(oracle, x_src, 0, 1, sch100, rng)
    assert n_steps == sch100.T
    ref = datagen.sample_conditional(inst, 1, 0, x_src, rng)
    sw = metrics.sliced_wasserstein(out, ref, rng=np.random.default_rng(0))
    assert sw < 0.05


def test_bridge_oracle_chain_matches_analytic_conditional(small_star):
    """The exact bridge score, sampled at eta = 1 from the source endpoint,
    reproduces the analytic conditional within sliced-W2 < 0.05 on 5000
    samples."""
    _, _, tuples, inst = small_star
    sch = build_bridge_schedule(100, eta=1.0)
    oracle = OracleScorePredictor(inst, sch)
    rng = np.random.default_rng(2)
    x_src = np.tile(tuples.domain(1)[0], (5000, 1))
    out, n_steps = sample_chain_diffusion(oracle, x_src, 0, 1, sch, rng)
    assert n_steps == sch.T
    ref = datagen.sample_conditional(inst, 1, 0, x_src, rng)
    sw = metrics.sliced_wasserstein(out, ref, rng=np.random.default_rng(0))
    assert sw < 0.05


def test_bridge_start_state_is_endpoint(rng):
    sch = build_bridge_schedule(20, eta=0.0)
    y = rng.standard_normal(2)
    out = reverse_step_diffusion(condition(_zero_predictor, y, 1, 0), y, 20, sch, rng, y=y)
    expect = (sch.alpha[19] + sch.beta[19]) * y
    assert np.allclose(out, expect)
    with pytest.raises(ValueError, match="y=x_src"):
        reverse_step_diffusion(condition(_zero_predictor, y, 1, 0), y, 20, sch, rng)


def test_bridge_deterministic_flow_at_eta_zero(rng):
    sch = build_bridge_schedule(20, eta=0.0)
    y = rng.standard_normal(2)
    a, na = sample_chain_diffusion(_zero_predictor, y, 1, 0, sch,
                                   np.random.default_rng(1))
    b, nb = sample_chain_diffusion(_zero_predictor, y, 1, 0, sch,
                                   np.random.default_rng(2))
    assert np.array_equal(a, b) and na == nb == 20


def test_bridge_output_in_target_support():
    """After paired bridge training on glyphs, reverse-pass outputs land near
    the target training set (nearest-neighbor support check)."""
    from diffrouter.train import TrainConfig, train
    topo, datasets, tuples, _ = datagen.make_star_instance(
        2, 64, 2000, seed=9, family="glyphs", M=200)
    sch = build_bridge_schedule(50)
    cfg = TrainConfig(regime="paired-only", steps=8000,
                      hidden=(128, 128), seed=4, warmup_steps=300)
    result = train(cfg, topo, datasets, sch)
    rng = np.random.default_rng(0)
    y = tuples.domain(1)[:100]
    out, _ = sample_chain_diffusion(result.params, y, 0, 1, sch, rng)
    target_train = datasets[0].side(0)

    def nn_dist(X):
        return np.median([np.min(np.linalg.norm(target_train - x, axis=1))
                          for x in X])

    noise = rng.standard_normal((100, 64)) * (
        np.linalg.norm(target_train, axis=1).mean() / 8.0)
    # closer to the target set than both the raw sources and matched-scale noise
    assert nn_dist(out) < 0.7 * nn_dist(y)
    assert nn_dist(out) < 0.6 * nn_dist(noise)


def test_translate_step_accounting_star(small_star, sch100):
    topo, _, tuples, inst = small_star
    oracle = OracleScorePredictor(inst, sch100)
    x = tuples.domain(1)[:3]
    indirect = translate(oracle, TranslationRequest(x_src=x, src=1, tgt=2), topo, sch100)
    assert indirect.total_steps == 2 * sch100.T
    assert len(indirect.intermediates) == 1  # exactly one central sample


def test_translate_direct_refused_on_paired_checkpoint(small_star, sch100, rng):
    topo, _, tuples, _ = small_star
    params = init_router(2, 3, 100, [8], rng)  # kind defaults to paired-only
    req = TranslationRequest(x_src=tuples.domain(1)[:2], src=1, tgt=2, mode="direct")
    with pytest.raises(ValueError, match="paired-only"):
        translate(params, req, topo, sch100)
    params.kind = KIND_DIRECT
    result = translate(params, req, topo, sch100)
    assert result.total_steps == sch100.T


def test_translate_determinism(small_star, sch100, rng):
    topo, _, tuples, _ = small_star
    params = init_router(2, 3, 100, [8], rng)
    req = TranslationRequest(x_src=tuples.domain(1)[:4], src=1, tgt=0, seed=123)
    a = translate(params, req, topo, sch100)
    b = translate(params, req, topo, sch100)
    assert np.array_equal(a.x_tgt, b.x_tgt)


def test_translate_step_skipping(small_star, sch100, rng):
    topo, _, tuples, _ = small_star
    params = init_router(2, 3, 100, [8], rng)
    req = TranslationRequest(x_src=tuples.domain(1)[:2], src=1, tgt=0, steps=10)
    result = translate(params, req, topo, sch100)
    assert result.total_steps == 10


@pytest.mark.parametrize("bridge", [False, True])
def test_each_hop_binds_the_router_once(small_star, rng, monkeypatch, bridge):
    """A translation conditions the router once per hop: each hop's steps
    share one binding of its source sample and labels."""
    topo, _, tuples, _ = small_star
    sch = build_bridge_schedule(10) if bridge else build_diffusion_schedule(10)
    params = init_router(2, 3, 10, [8], rng)
    conds, calls = [], []
    predict = router.predict_noise

    def spy(bound, x_t, t):
        if not any(b is bound for b in conds):
            conds.append(bound)
        calls.append(t)
        return predict(bound, x_t, t)

    monkeypatch.setattr(router, "predict_noise", spy)
    req = TranslationRequest(x_src=tuples.domain(1)[:5], src=1, tgt=2)
    assert translate(params, req, topo, sch).total_steps == 20
    # the bridge's t = T step uses the endpoint, not the network
    assert len(conds) == 2 and len(calls) == (18 if bridge else 20)


def test_request_validation():
    with pytest.raises(ValueError):
        TranslationRequest(x_src=np.zeros(2), src=1, tgt=1)
    with pytest.raises(ValueError):
        TranslationRequest(x_src=np.zeros(2), src=0, tgt=1, mode="sideways")


def test_float32_checkpoint_translation_tracks_float64(small_star, sch100, tmp_path):
    """A loaded (float32) checkpoint samples with float64 chain state; its
    indirect translation stays within 1e-4 of the same weights run in
    float64 with the same seed (measured gap: ~2e-6 on outputs of scale 1)."""
    topo, datasets, tuples, _ = small_star
    cfg = TrainConfig(regime="paired-only", steps=1200, batch_size=64,
                      hidden=(32, 32), seed=0, warmup_steps=100, lr=1e-3)
    path = tmp_path / "p.ckpt"
    router.save_checkpoint(path, train(cfg, topo, datasets, sch100).params)
    loaded, _ = router.load_checkpoint(path)
    req = TranslationRequest(x_src=tuples.domain(1)[:200], src=1, tgt=2, seed=3)
    got = translate(loaded, req, topo, sch100)
    wide = replace(loaded, flat=loaded.flat.astype(np.float64))
    want = translate(wide, req, topo, sch100)
    assert got.total_steps == 200
    assert got.x_tgt.dtype == np.float64
    assert np.max(np.abs(got.x_tgt - want.x_tgt)) < 1e-4
