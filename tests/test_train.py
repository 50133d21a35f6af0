import csv
import importlib
from dataclasses import replace

import numpy as np
import pytest

from diffrouter import datagen, metrics, netcore, router
from diffrouter.datagen import OracleScorePredictor
from diffrouter.netcore import DivergenceError, optimizer_step
from diffrouter.router import freeze, init_router
from diffrouter.schedules import build_bridge_schedule, build_diffusion_schedule
from diffrouter.train import (TrainConfig, final_loss_step, paired_loss_step,
                              train, tweedie_refine, unpaired_loss_step)


@pytest.fixture()
def setup(small_star, rng):
    topo, datasets, tuples, inst = small_star
    params = init_router(2, 3, 100, [16, 16], np.random.default_rng(1))
    return topo, datasets, tuples, inst, params


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lambda1=-1)
    with pytest.raises(ValueError):
        TrainConfig(n_refine=-1)
    with pytest.raises(ValueError):
        TrainConfig(regime="other")


def test_paired_loss_zero_for_perfect_predictor(setup, sch100):
    """Replay the step's rng draws to hand the true noise back as prediction."""
    topo, datasets, *_ , params = setup
    ds = datasets[0]
    idx = np.arange(32)
    zeta = np.tile([1, 0], 16)
    replay = np.random.default_rng(77)
    t = replay.integers(1, 101, size=32)
    eps = replay.standard_normal((32, 2))
    calls = []

    def perfect(x_t, t_m, x_src, tgt, src):
        calls.append(t_m)
        return eps

    loss, grads = paired_loss_step(params, ds, idx, sch100,
                                   np.random.default_rng(77), zeta=zeta,
                                   predict_fn=perfect)
    assert loss == 0.0 and grads is None
    assert len(calls) == 1 and np.array_equal(calls[0], t)


def test_paired_loss_zeta_selects_direction(setup, sch100, rng):
    """zeta = 1 rows predict the a side from the b side, zeta = 0 rows the
    reverse, each with its own labels, in one call."""
    topo, datasets, *_ , params = setup
    ds = datasets[0]
    a, b = ds.edge
    zeta = np.tile([1, 0, 0, 1], 4)
    seen = []

    def spy(x_t, t_m, x_src, tgt, src):
        seen.append((x_src, tgt, src))
        return np.zeros_like(x_t)

    paired_loss_step(params, ds, np.arange(16), sch100, rng, zeta=zeta, predict_fn=spy)
    ((x_src, tgt, src),) = seen
    assert np.array_equal(tgt, np.where(zeta == 1, a, b))
    assert np.array_equal(src, np.where(zeta == 1, b, a))
    assert np.array_equal(x_src, np.where(zeta[:, None] == 1, ds.x_b[:16], ds.x_a[:16]))


def test_paired_step_is_one_forward_and_one_backward(setup, sch100, monkeypatch):
    topo, datasets, *_ = setup
    calls = []
    for name in ("forward_cached", "backward"):
        def spy(*args, _inner=getattr(router, name), _name=name):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(router, name, spy)
    cfg = TrainConfig(regime="paired-only", steps=6, batch_size=16, hidden=(8,), seed=2)
    train(cfg, topo, datasets, sch100)
    assert calls == ["forward_cached", "backward"] * 6


def test_paired_loss_zero_predictor_near_d(setup, sch100):
    """Zero prediction: expected loss is E ||eps||^2 = d, within 5%."""
    topo, datasets, *_ , params = setup
    ds = datasets[0]
    rng = np.random.default_rng(3)
    losses = []
    for _ in range(40):
        idx = rng.integers(0, len(ds), size=256)
        loss, _ = paired_loss_step(
            params, ds, idx, sch100, rng,
            predict_fn=lambda *a: np.zeros((np.atleast_2d(a[0]).shape[0], 2)))
        losses.append(loss)
    assert abs(np.mean(losses) - 2.0) < 0.1


def test_paired_loss_rejects_non_edge(setup, sch100, rng):
    topo, datasets, *_ , params = setup
    bad = datagen.PairedDataset(edge=(1, 2), x_a=datasets[0].x_a,
                                x_b=datasets[0].x_b,
                                latent_indices=datasets[0].latent_indices)
    with pytest.raises(ValueError, match="not a topology edge"):
        paired_loss_step(params, bad, np.arange(8), sch100, rng, topo=topo)


def test_zeta_fraction_balanced(setup, sch100):
    topo, datasets, *_ , params = setup
    ds = datasets[0]
    rng = np.random.default_rng(5)
    tgts = []

    def spy(x_t, t_m, x_src, tgt, src):
        tgts.append(tgt)
        return np.zeros_like(x_t)

    n_steps, B = 80, 128
    for _ in range(n_steps):
        paired_loss_step(params, ds, rng.integers(0, len(ds), B), sch100, rng,
                         predict_fn=spy)
    labels = np.concatenate(tgts)
    assert labels.shape == (n_steps * B,)
    frac = np.mean(labels == ds.edge[0])  # zeta = 1 rows target the a side
    sigma = 0.5 / np.sqrt(n_steps * B)
    assert abs(frac - 0.5) < 3 * sigma + 0.01


def test_bridge_corruption_used(setup, rng):
    """With the bridge variant at t = T the corrupted state equals the pair."""
    topo, datasets, *_ , params = setup
    sch = build_bridge_schedule(100)
    seen = {}

    def spy(x_t, t_m, x_src, tgt, src):
        seen["x_t"] = x_t
        seen["x_src"] = x_src
        return np.zeros_like(x_t)

    class FixedT:
        def __init__(self, inner):
            self.inner = inner

        def integers(self, lo, hi, size=None):
            if hi == 101:
                return np.full(size, 100)  # force t = T
            return self.inner.integers(lo, hi, size=size)

        def standard_normal(self, *a, **k):
            return self.inner.standard_normal(*a, **k)

    paired_loss_step(params, datasets[0], np.arange(8), sch, FixedT(rng),
                     zeta=np.ones(8, dtype=int),
                     predict_fn=spy)
    assert np.allclose(seen["x_t"], seen["x_src"])  # alpha_T=0, beta_T=1, sigma_T=0


def test_tweedie_refine_basics(sch100, rng):
    x = rng.standard_normal((4, 2))
    x_c = rng.standard_normal((4, 2))
    out0 = tweedie_refine(lambda *a: np.zeros((4, 2)), x, 50, x_c, 1, 0, 0,
                          sch100, rng)
    assert np.array_equal(out0, x)
    seeded = np.random.default_rng(9)
    expect = x + sch100.sigma[50] * np.random.default_rng(9).standard_normal((4, 2))
    out1 = tweedie_refine(lambda *a: np.zeros((4, 2)), x, 50, x_c, 1, 0, 1,
                          sch100, seeded)
    assert np.allclose(out1, expect)
    with pytest.raises(ValueError):
        tweedie_refine(lambda *a: 0, x, 50, x_c, 1, 0, -1, sch100, rng)


def test_unpaired_refuses_bridge(setup, rng):
    topo, datasets, *_ , params = setup
    sch = build_bridge_schedule(100)
    cfg = TrainConfig(regime="finetune")
    ref = freeze(params)
    ds = datasets[0]
    with pytest.raises(ValueError, match="bridge"):
        unpaired_loss_step(params, ref, ds.x_a[:8], ds.x_b[:8], 1, 0, 2,
                           datasets[1].side(2), sch, cfg, rng, topo)


def test_unpaired_refuses_adjacent_pair(setup, sch100, rng):
    topo, datasets, *_ , params = setup
    cfg = TrainConfig(regime="finetune")
    ref = freeze(params)
    ds = datasets[0]
    with pytest.raises(ValueError, match="edge"):
        unpaired_loss_step(params, ref, ds.x_a[:8], ds.x_b[:8], 1, 0, 0,
                           datasets[0].side(0), sch100, cfg, rng, topo)


def test_unpaired_zero_nets_zero_loss(setup, sch100, rng):
    topo, datasets, *_, params = setup
    for w in params.backbone.weights:
        w[:] = 0
    for b in params.backbone.biases:
        b[:] = 0
    ref = freeze(params)
    cfg = TrainConfig(regime="finetune", n_refine=0)
    ds = datasets[0]
    loss, grads = unpaired_loss_step(params, ref, ds.x_a[:8], ds.x_b[:8],
                                     1, 0, 2, datasets[1].side(2), sch100,
                                     cfg, rng, topo)
    assert loss == 0.0


def test_gradient_isolation_of_reference(setup, sch100, rng):
    """The frozen reference never changes when the student is updated."""
    from diffrouter.netcore import OptimizerState, optimizer_step
    topo, datasets, tuples, inst, params = setup
    ref = freeze(params)
    ref_before = [p.copy() for p in ref.param_list()]
    cfg = TrainConfig(regime="finetune", n_refine=1, batch_size=16)
    ds = datasets[0]
    opt = OptimizerState(lr=1e-2)
    for _ in range(5):
        loss, grads = unpaired_loss_step(params, ref, ds.x_a[:16], ds.x_b[:16],
                                         1, 0, 2, datasets[1].side(2), sch100,
                                         cfg, rng, topo)
        optimizer_step(opt, [params.flat], [grads])
    for p, q in zip(ref.param_list(), ref_before):
        assert np.array_equal(p, q)
    # the student did move
    assert any(not np.array_equal(p, q)
               for p, q in zip(params.param_list(), ref_before))


def test_final_loss_requires_a_coefficient(setup, sch100, rng):
    topo, datasets, *_, params = setup
    cfg = TrainConfig(regime="finetune", lambda1=0.0, lambda2=0.0)
    ds = datasets[0]
    unpaired = (ds.x_a[:4], ds.x_b[:4], 1, 0, 2, datasets[1].side(2))
    with pytest.raises(ValueError, match="coefficient"):
        final_loss_step(params, freeze(params), ds, unpaired, cfg, sch100,
                        rng, topo)


def test_final_loss_lambda1_zero_is_pure_paired(setup, sch100, rng):
    topo, datasets, *_, params = setup
    cfg = TrainConfig(regime="finetune", lambda1=0.0, lambda2=1.0, batch_size=8)
    ds = datasets[0]
    unpaired = (ds.x_a[:4], ds.x_b[:4], 1, 0, 2, datasets[1].side(2))
    total, l_u, l_p, grads = final_loss_step(params, freeze(params), ds,
                                             unpaired, cfg, sch100, rng, topo)
    assert l_u == 0.0 and total == l_p


def test_train_determinism(setup, sch100):
    topo, datasets, *_ = setup
    cfg = TrainConfig(regime="paired-only", steps=60, batch_size=16,
                      hidden=(16,), seed=12, log_window=20)
    a = train(cfg, topo, datasets, sch100)
    b = train(cfg, topo, datasets, sch100)
    for p, q in zip(a.params.param_list(), b.params.param_list()):
        assert np.array_equal(p, q)
    assert a.log_rows == b.log_rows


def test_train_logs_trailing_partial_window(setup, sch100):
    topo, datasets, *_ = setup
    cfg = TrainConfig(regime="paired-only", steps=50, batch_size=16,
                      hidden=(16,), seed=12, log_window=20)
    steps = sorted({row[0] for row in train(cfg, topo, datasets, sch100).log_rows})
    assert steps == [20, 40, 50]
    short = TrainConfig(regime="paired-only", steps=5, batch_size=16,
                        hidden=(16,), seed=12, log_window=20)
    assert {row[0] for row in train(short, topo, datasets, sch100).log_rows} == {5}


def test_train_from_loaded_checkpoint_is_float64(setup, sch100, tmp_path):
    """A float32 checkpoint trains on as its exact float64 widening."""
    topo, datasets, *_, params = setup
    path = tmp_path / "p.ckpt"
    router.save_checkpoint(path, params)
    loaded, _ = router.load_checkpoint(path)
    cfg = TrainConfig(regime="finetune", steps=10, batch_size=16, seed=4,
                      n_refine=1, hidden=(16, 16))
    a = train(cfg, topo, datasets, sch100, init_params=loaded)
    for p in params.param_list():
        p[...] = p.astype(np.float32)  # the values the file holds, kept float64
    b = train(cfg, topo, datasets, sch100, init_params=params)
    for p, q in zip(a.params.param_list(), b.params.param_list()):
        assert p.dtype == np.float64 and np.array_equal(p, q)
    assert all(p.dtype == np.float32 for p in loaded.param_list())


def test_training_computes_in_float32_over_float64_master(setup, sch100, rng, monkeypatch):
    """A float32 fwd+bwd gives the float64 gradient to a relative 1e-4;
    train() keeps the master vector and the AdamW state in float64, widens
    each gradient for the update and distils from a float32 teacher."""
    topo, datasets, *_, params = setup
    narrow = replace(params, flat=params.flat.astype(np.float32))
    x_t, x_src = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
    t = rng.integers(1, 101, size=64)
    g_out = rng.standard_normal((64, 2)) / 64
    grads = []
    for p in (params, narrow):
        _, cache = router.forward_cached(p, x_t, t, x_src, 1, 0)
        grads.append(router.backward(p, cache, g_out))
    wide, low = grads
    assert wide.dtype == np.float64 and low.dtype == np.float32
    assert np.linalg.norm(low - wide) <= 1e-4 * np.linalg.norm(wide)
    net_grads, gx = netcore.backward(narrow.backbone, cache[0], g_out)
    assert {a.dtype for a in net_grads} == {gx.dtype} == {np.dtype(np.float32)}

    states, teachers = [], []

    def spy_step(state, ps, gs):
        assert [a.dtype for a in ps + gs] == [np.float64, np.float64]
        states.append(state)
        optimizer_step(state, ps, gs)

    def spy_freeze(p):
        teachers.append(freeze(p))
        return teachers[-1]

    train_mod = importlib.import_module("diffrouter.train")  # the package exports train()
    monkeypatch.setattr(train_mod, "optimizer_step", spy_step)
    monkeypatch.setattr(train_mod, "freeze", spy_freeze)
    cfg = TrainConfig(regime="finetune", steps=10, batch_size=16, seed=4,
                      n_refine=1, hidden=(16, 16))
    result = train(cfg, topo, datasets, sch100, init_params=params)
    assert result.params.flat.dtype == np.float64
    assert len(states) == 10 and all(state is states[0] for state in states)
    opt = states[0]
    assert opt.step == 10 and [a.dtype for a in opt.m + opt.v] == [np.float64] * 2
    assert teachers and all(p.dtype == np.float32 for p in teachers[0].param_list())
    assert np.array_equal(teachers[0].flat, params.flat.astype(np.float32))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_aborts(setup, sch100):
    topo, datasets, *_ = setup
    cfg = TrainConfig(regime="paired-only", steps=50, batch_size=8,
                      hidden=(16,), seed=0, lr=1e100, warmup_steps=0)
    with pytest.raises(DivergenceError):
        train(cfg, topo, datasets, sch100)


def test_chain_curriculum_ordering(sch100, tmp_path):
    """Distance-2 direct mappings are trained before distance-3 ones."""
    topo, datasets, tuples, inst = datagen.make_chain_instance(4, 2, 300,
                                                              seed=13, M=100)
    pre = TrainConfig(regime="paired-only", steps=60, batch_size=16,
                      hidden=(16,), seed=0, log_window=20)
    base = train(pre, topo, datasets, sch100)
    cfg = TrainConfig(regime="finetune", steps=120, batch_size=16,
                      hidden=(16,), seed=0, log_window=20, n_refine=1)
    log_path = tmp_path / "log.csv"
    result = train(cfg, topo, datasets, sch100, init_params=base.params,
                   log_path=log_path)
    first_seen = {}
    for step, direction, *_ in result.log_rows:
        if direction.startswith("unpaired") and direction not in first_seen:
            first_seen[direction] = step
    dist2 = [v for k, v in first_seen.items() if k in ("unpaired:0->2",
             "unpaired:2->0", "unpaired:1->3", "unpaired:3->1")]
    dist3 = [v for k, v in first_seen.items() if k in ("unpaired:0->3",
             "unpaired:3->0")]
    assert dist2 and dist3
    assert max(dist2) < min(dist3)
    with open(log_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "direction", "loss", "lr"]
    assert len(rows) > 1


def test_train_rejects_foreign_dataset(setup, sch100):
    topo, datasets, *_ = setup
    bad = datagen.PairedDataset(edge=(1, 2), x_a=datasets[0].x_a,
                                x_b=datasets[0].x_b,
                                latent_indices=datasets[0].latent_indices)
    cfg = TrainConfig(regime="paired-only", steps=5, hidden=(8,))
    with pytest.raises(ValueError):
        train(cfg, topo, datasets + [bad], sch100)


def test_unpaired_loss_decreases_during_finetune(small_star, sch100):
    """Finetuning from a paired-only checkpoint drives the distillation loss
    down: the final-quarter windowed average is below the first-quarter one."""
    topo, datasets, tuples, inst = small_star
    pre = TrainConfig(regime="paired-only", steps=1200, batch_size=64,
                      hidden=(48, 48), seed=3, warmup_steps=300)
    base = train(pre, topo, datasets, sch100)
    cfg = TrainConfig(regime="finetune", steps=800, batch_size=64,
                      hidden=(48, 48), seed=3, n_refine=1, finetune_lr=1e-3,
                      log_window=50, lambda2=0.0)
    result = train(cfg, topo, datasets, sch100, init_params=base.params)
    vals = [(step, loss) for step, direction, loss, _ in result.log_rows
            if direction.startswith("unpaired")]
    steps = [s for s, _ in vals]
    lo, hi = min(steps), max(steps)
    first = np.mean([v for s, v in vals if s <= lo + (hi - lo) / 4])
    last = np.mean([v for s, v in vals if s >= hi - (hi - lo) / 4])
    assert last < 0.6 * first


def test_refinement_converges_at_per_row_steps():
    """Acceptance 10's monotone convergence at the mixed t training uses:
    3 x 4000 rows with t shuffled over {25, 50, 75}, refined by the oracle in
    one call. Each t group's sliced W2 to its noisy conditional falls strictly
    over n in {0, 1, 3, 5, 7}."""
    rng = np.random.default_rng(0)
    d = 2
    A0 = 6.0 * np.linalg.qr(rng.standard_normal((d, d)))[0]
    A1 = 6.0 * (np.linalg.qr(rng.standard_normal((d, d)))[0]
                + 0.2 * rng.standard_normal((d, d)))
    inst = datagen.GaussianInstance(maps=[A0, A1],
                                    offsets=[np.zeros(d), rng.normal(0, 2, d)],
                                    noise=[6.0, 1.0], latent_dim=d)
    sch = build_diffusion_schedule(100, profile="cosine")
    oracle = OracleScorePredictor(inst, sch)
    x_c = A0 @ np.array([1.5, -1.0])
    M, levels = 4000, (25, 50, 75)
    t = np.random.default_rng(3).permutation(np.repeat(levels, M))
    gen = np.random.default_rng(42)
    x0 = (gen.standard_normal((3 * M, d)) @ A1.T + inst.offsets[1]
          + 1.0 * gen.standard_normal((3 * M, d)))
    base = (sch.a[t][:, None] * x0
            + sch.sigma[t][:, None] * np.random.default_rng(8).standard_normal((3 * M, d)))
    refs = {}
    for level in levels:
        mean, cov = datagen.noisy_conditional(inst, 0, 1, x_c, sch.a[level], sch.sigma[level])
        noise = np.random.default_rng(7).standard_normal((M, d))
        refs[level] = mean + noise @ np.linalg.cholesky(cov).T
    vals = {level: [] for level in levels}
    for n in (0, 1, 3, 5, 7):
        # one shared stream per n so successive snapshots are coupled
        refined = tweedie_refine(oracle, base, t, np.broadcast_to(x_c, (3 * M, d)), 1, 0,
                                 n, sch, np.random.default_rng(100))
        for level in levels:
            vals[level].append(metrics.sliced_wasserstein(
                refined[t == level], refs[level], rng=np.random.default_rng(0)))
    for level, v in vals.items():
        assert all(b < a for a, b in zip(v, v[1:])), (level, v)
