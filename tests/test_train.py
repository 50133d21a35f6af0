import importlib
from dataclasses import replace

import numpy as np
import pytest

from diffrouter import datagen, metrics, netcore, router
from diffrouter.datagen import OracleScorePredictor
from diffrouter.netcore import DivergenceError, optimizer_step
from diffrouter.router import condition, freeze, init_router
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
    out0 = tweedie_refine(condition(lambda *a: np.zeros((4, 2)), x_c, 1, 0), x, 50,
                          sch100, rng, n=0)
    assert np.array_equal(out0, x)
    seeded = np.random.default_rng(9)
    expect = x + sch100.sigma[50] * np.random.default_rng(9).standard_normal((4, 2))
    out1 = tweedie_refine(condition(lambda *a: np.zeros((4, 2)), x_c, 1, 0), x, 50,
                          sch100, seeded, n=1)
    assert np.allclose(out1, expect)
    with pytest.raises(ValueError):
        tweedie_refine(condition(lambda *a: 0, x_c, 1, 0), x, 50, sch100, rng, n=-1)


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


def test_unpaired_step_binds_the_teacher_once(setup, sch100, rng, monkeypatch):
    """The n refine iterations and the final teacher query share t, x_c and
    the labels: one conditioning serves all n + 1 teacher calls, each over
    the whole batch, and only the student's pass builds the full input."""
    topo, datasets, *_, params = setup
    ref = freeze(params)
    cfg = TrainConfig(regime="finetune", n_refine=3)
    ds = datasets[0]
    conds, rows, built = [], [], []
    predict, build = router.predict_noise, router.backbone_input

    def spy_predict(bound, x_t, t):
        assert bound.params is ref
        if not any(b is bound for b in conds):
            conds.append(bound)
        rows.append(len(x_t))
        return predict(bound, x_t, t)

    def spy_build(p, *args):
        built.append(p)
        return build(p, *args)

    monkeypatch.setattr(router, "predict_noise", spy_predict)
    monkeypatch.setattr(router, "backbone_input", spy_build)
    unpaired_loss_step(params, ref, ds.x_a[:16], ds.x_b[:16], 1, 0, 2,
                       datasets[1].side(2), sch100, cfg, rng, topo)
    assert len(conds) == 1 and rows == [16] * 4
    assert len(built) == 1 and built[0] is params


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
        optimizer_step(opt, params.flat, grads)
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


@pytest.mark.parametrize("lambda1, lambda2", [(1.0, 0.5), (0.0, 1.0), (1.0, 0.0)])
def test_combined_step_is_one_forward_and_one_backward(setup, sch100, monkeypatch,
                                                      lambda1, lambda2):
    """Each combined step is one student pass over the rows of its positive
    terms: no teacher call when lambda1 = 0, no rehearsal rows when
    lambda2 = 0, and the log holds only the terms computed."""
    topo, datasets, *_, params = setup
    calls, teacher_rows = [], []
    forward, backward, predict = router.forward_cached, router.backward, router.predict_noise

    def spy_forward(p, x_t, *args):
        calls.append(("forward_cached", len(x_t)))
        return forward(p, x_t, *args)

    def spy_backward(*args):
        calls.append(("backward", len(args[2])))
        return backward(*args)

    def spy_predict(p, x_t, *args):
        teacher_rows.append(len(x_t))
        return predict(p, x_t, *args)

    monkeypatch.setattr(router, "forward_cached", spy_forward)
    monkeypatch.setattr(router, "backward", spy_backward)
    monkeypatch.setattr(router, "predict_noise", spy_predict)
    cfg = TrainConfig(regime="finetune", steps=4, batch_size=16, seed=2, n_refine=2,
                      lambda1=lambda1, lambda2=lambda2)
    log_rows = train(cfg, topo, datasets, sch100, init_params=params).log_rows
    rows = 16 * ((lambda1 > 0) + (lambda2 > 0))
    assert calls == [("forward_cached", rows), ("backward", rows)] * 4
    assert teacher_rows == ([16] * 3 * 4 if lambda1 > 0 else [])
    terms = {direction.split(":")[0] for _, direction, *_ in log_rows}
    computed = {term for term, lam in (("unpaired", lambda1), ("paired", lambda2)) if lam > 0}
    assert terms == computed | {"total"}


def test_combined_gradient_is_the_weighted_sum_of_the_terms(setup, sch100):
    """In float64, with the draws replayed, the one-pass combined step gives
    lambda1 g_u + lambda2 g_p of the two terms' own steps, and their losses."""
    topo, datasets, *_, params = setup
    ref = freeze(params)
    ref.flat += 0.05 * np.random.default_rng(4).standard_normal(ref.flat.shape)
    cfg = TrainConfig(regime="finetune", lambda1=0.7, lambda2=1.3, batch_size=24, n_refine=2)
    ds = datasets[0]
    unpaired = (ds.x_a[:16], ds.x_b[:16], 1, 0, 2, datasets[1].side(2))
    total, l_u, l_p, grads = final_loss_step(params, ref, datasets[1], unpaired, cfg,
                                             sch100, np.random.default_rng(8), topo)
    replay = np.random.default_rng(8)
    want_u, g_u = unpaired_loss_step(params, ref, *unpaired, sch100, cfg, replay, topo)
    idx = replay.integers(0, len(datasets[1]), size=cfg.batch_size)
    want_p, g_p = paired_loss_step(params, datasets[1], idx, sch100, replay, topo=topo)
    want = 0.7 * g_u + 1.3 * g_p
    assert grads.dtype == np.float64
    assert np.linalg.norm(grads - want) <= 1e-12 * np.linalg.norm(want)
    assert l_u == pytest.approx(want_u, rel=1e-12) and l_p == pytest.approx(want_p, rel=1e-12)
    assert total == pytest.approx(0.7 * want_u + 1.3 * want_p, rel=1e-12)


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


def test_train_from_loaded_checkpoint_is_float32(setup, sch100, tmp_path):
    """A float32 checkpoint trains on in float32 from the values it stores, as
    float64 parameters do from their float32 rounding; train() copies its
    initial parameters and leaves them as they were."""
    topo, datasets, *_, params = setup
    path = tmp_path / "p.ckpt"
    router.save_checkpoint(path, params)
    loaded, _ = router.load_checkpoint(path)
    kept = loaded.flat.copy()
    cfg = TrainConfig(regime="finetune", steps=10, batch_size=16, seed=4,
                      n_refine=1, hidden=(16, 16))
    a = train(cfg, topo, datasets, sch100, init_params=loaded)
    b = train(cfg, topo, datasets, sch100, init_params=params)
    for p, q in zip(a.params.param_list(), b.params.param_list()):
        assert p.dtype == np.float32 and np.array_equal(p, q)
    assert all(p.dtype == np.float32 for p in loaded.param_list())
    assert np.array_equal(loaded.flat, kept)


def test_training_updates_params_flat_in_float32(setup, sch100, rng, monkeypatch):
    """A float32 fwd+bwd gives the float64 gradient to a relative 1e-4;
    train() runs AdamW in place on the returned `params.flat`, with float32
    gradients, moments and parameters, and distils from a float32 teacher."""
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
    net_grads, gz = netcore.backward(narrow.backbone, cache[0], g_out)
    assert {a.dtype for a in net_grads} == {gz.dtype} == {np.dtype(np.float32)}

    states, updated, teachers = [], [], []

    def spy_step(state, p, g):
        assert p.dtype == g.dtype == np.float32
        states.append(state)
        updated.append(p)
        optimizer_step(state, p, g)

    def spy_freeze(p):
        teachers.append(freeze(p))
        return teachers[-1]

    train_mod = importlib.import_module("diffrouter.train")  # the package exports train()
    monkeypatch.setattr(train_mod, "optimizer_step", spy_step)
    monkeypatch.setattr(train_mod, "freeze", spy_freeze)
    cfg = TrainConfig(regime="finetune", steps=10, batch_size=16, seed=4,
                      n_refine=1, hidden=(16, 16))
    result = train(cfg, topo, datasets, sch100, init_params=params)
    assert len(updated) == 10 and all(p is result.params.flat for p in updated)
    assert result.params.flat.dtype == np.float32
    assert len(states) == 10 and all(state is states[0] for state in states)
    opt = states[0]
    assert opt.step == 10 and opt.m.dtype == opt.v.dtype == np.float32
    assert teachers and all(p.dtype == np.float32 for p in teachers[0].param_list())
    assert np.array_equal(teachers[0].flat, params.flat.astype(np.float32))
    assert not np.shares_memory(teachers[0].flat, result.params.flat)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_aborts(setup, sch100):
    topo, datasets, *_ = setup
    cfg = TrainConfig(regime="paired-only", steps=50, batch_size=8,
                      hidden=(16,), seed=0, lr=1e100, warmup_steps=0)
    with pytest.raises(DivergenceError):
        train(cfg, topo, datasets, sch100)


def test_chain_curriculum_ordering(sch100):
    """Distance-2 direct mappings are trained before distance-3 ones."""
    topo, datasets, tuples, inst = datagen.make_chain_instance(4, 2, 300,
                                                              seed=13, M=100)
    pre = TrainConfig(regime="paired-only", steps=60, batch_size=16,
                      hidden=(16,), seed=0, log_window=20)
    base = train(pre, topo, datasets, sch100)
    cfg = TrainConfig(regime="finetune", steps=120, batch_size=16,
                      hidden=(16,), seed=0, log_window=20, n_refine=1)
    result = train(cfg, topo, datasets, sch100, init_params=base.params)
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


def test_chain_without_curriculum_trains_every_direction_at_once(sch100):
    """With the curriculum off, one phase holds every non-edge direction, so
    the first log window of a K=4 chain already shows all six."""
    topo, datasets, *_ = datagen.make_chain_instance(4, 2, 300, seed=13, M=100)
    pre = TrainConfig(regime="paired-only", steps=20, batch_size=16, hidden=(16,), seed=0)
    base = train(pre, topo, datasets, sch100)
    cfg = TrainConfig(regime="finetune", steps=24, batch_size=16, hidden=(16,), seed=0,
                      log_window=6, n_refine=1, curriculum=False)
    result = train(cfg, topo, datasets, sch100, init_params=base.params)
    first = {d for step, d, *_ in result.log_rows if step == 6 and d.startswith("unpaired")}
    assert first == {f"unpaired:{i}->{j}" for i, j in topo.directions("nonedges")}


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
    base = (sch.alpha[t][:, None] * x0
            + sch.sigma[t][:, None] * np.random.default_rng(8).standard_normal((3 * M, d)))
    refs = {}
    for level in levels:
        mean, cov = datagen.noisy_conditional(inst, 0, 1, x_c, sch.alpha[level], sch.sigma[level])
        noise = np.random.default_rng(7).standard_normal((M, d))
        refs[level] = mean + noise @ np.linalg.cholesky(cov).T
    vals = {level: [] for level in levels}
    for n in (0, 1, 3, 5, 7):
        # one shared stream per n so successive snapshots are coupled
        refined = tweedie_refine(condition(oracle, np.broadcast_to(x_c, (3 * M, d)), 1, 0),
                                 base, t, sch, np.random.default_rng(100), n=n)
        for level in levels:
            vals[level].append(metrics.sliced_wasserstein(
                refined[t == level], refs[level], rng=np.random.default_rng(0)))
    for level, v in vals.items():
        assert all(b < a for a, b in zip(v, v[1:])), (level, v)
