"""End-to-end acceptance suite.

Each test asserts one headline property of the package and prints a single
uncaptured PASS/FAIL line so the result is visible in the test log. The
heavier scenarios share session-scoped training fixtures.
"""

import numpy as np
import pytest

from diffrouter import datagen, metrics
from diffrouter.datagen import (GaussianInstance, OracleScorePredictor,
                                Topology, make_star_instance)
from diffrouter.netcore import backward, forward, forward_cached, init_dense
from diffrouter.router import KIND_DIRECT, condition, init_router
from diffrouter.sample import TranslationRequest, translate
from diffrouter.schedules import (build_bridge_schedule,
                                  build_diffusion_schedule)
from diffrouter.train import (TrainConfig, train, tweedie_refine,
                              unpaired_loss_step)


def _report(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {num} failed: {label} {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures

@pytest.fixture(scope="session")
def star20k():
    return make_star_instance(3, 2, 20000, 7)


@pytest.fixture(scope="session")
def sch100():
    return build_diffusion_schedule(100)


@pytest.fixture(scope="session")
def paired20k(star20k, sch100):
    topo, datasets, _, _ = star20k
    cfg = TrainConfig(regime="paired-only", steps=20000,
                      hidden=(128, 128, 128), seed=0)
    return train(cfg, topo, datasets, sch100).params


def _direct_sw(params, star, sch, directions, n_eval):
    topo, _, tuples, inst = star
    vals = []
    for src, tgt in directions:
        xs = tuples.domain(src)[:n_eval]
        req = TranslationRequest(x_src=xs, src=src, tgt=tgt, mode="direct")
        res = translate(params, req, topo, sch)
        ref = datagen.sample_conditional(inst, src, tgt, xs,
                                         np.random.default_rng(5))
        vals.append(metrics.sliced_wasserstein(res.x_tgt, ref,
                                               rng=np.random.default_rng(0)))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------

def test_acceptance_1_gradient_correctness(capsys):
    """20 random small nets: every parameter gradient within 1e-4 relative of
    central finite differences."""
    rng = np.random.default_rng(42)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        n_layers = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 17)) for _ in range(n_layers + 1)]
        net = init_dense(widths, rng)
        x = rng.standard_normal((3, widths[0]))
        tgt = rng.standard_normal((3, widths[-1]))
        out, cache = forward_cached(net, x)
        grads, _ = backward(net, cache, 2.0 * (out - tgt))
        for p, g in zip(net.param_list(), grads):
            fp, fg = p.reshape(-1), g.reshape(-1)
            for i in range(fp.size):
                orig = fp[i]
                fp[i] = orig + eps
                lp = float(np.sum((forward(net, x) - tgt) ** 2))
                fp[i] = orig - eps
                lm = float(np.sum((forward(net, x) - tgt) ** 2))
                fp[i] = orig
                fd = (lp - lm) / (2 * eps)
                rel = abs(fd - fg[i]) / max(abs(fd), 1e-3)
                worst = max(worst, rel)
    _report(capsys, 1, "gradients match finite differences", worst < 1e-4,
            f"worst relative error {worst:.2e}")


def test_acceptance_2_schedule_invariants(capsys):
    ok = True
    for T in (10, 100, 1000):
        for profile in ("linear", "cosine"):
            sch = build_diffusion_schedule(T, profile=profile)
            ok &= abs(sch.alpha[0] - 1.0) < 1e-12 and abs(sch.sigma[0]) < 1e-12
            ok &= bool(np.all(np.diff(sch.alpha) < 0))
            ok &= bool(np.all(np.diff(sch.sigma) > 0))
            ok &= bool(np.allclose(sch.alpha ** 2 + sch.sigma ** 2, 1.0, atol=1e-12))
            ok &= sch.alpha[T] < 0.05
        br = build_bridge_schedule(T)
        ok &= bool(np.allclose(br.alpha + br.beta, 1.0, atol=1e-12))
        ok &= abs(br.alpha[0] - 1.0) < 1e-12 and abs(br.alpha[T]) < 1e-12
        ok &= abs(br.sigma[0]) < 1e-12 and abs(br.sigma[T]) < 1e-12
        ok &= bool(np.all(br.sigma[1:T] > 0))
    _report(capsys, 2, "schedule boundary and monotonicity invariants", ok)


def test_acceptance_3_oracle_derivation_checks(capsys):
    rng = np.random.default_rng(0)
    inst = datagen._make_gaussian_instance(3, 1, rng, central=0,
                                           central_noise=1e-3)
    nested, direct = metrics.nested_vs_direct_kl(inst, central=0, src=1, tgt=2)
    diff = abs(nested - direct)
    trial_rng = np.random.default_rng(1)
    holds = sum(1 for _ in range(100)
                if (lambda r: r[0] >= r[1] - 2.0 * r[2])(
                    metrics.pathwise_kl_bound_trial(trial_rng)))
    ok = diff < 1e-3 and holds >= 95
    _report(capsys, 3, "KL decomposition and pathwise bound", ok,
            f"decomposition diff {diff:.2e}, bound holds {holds}/100")


def test_acceptance_4_indirect_translation_quality(capsys, star20k, sch100,
                                                   paired20k):
    """Every direction on the K=3 star within 3x of the oracle noise floor
    (sliced W2) and 3x of the conditional std (pairwise RMSE)."""
    topo, _, tuples, inst = star20k
    rng = np.random.default_rng(0)
    worst_sw, worst_rmse = 0.0, 0.0
    for src, tgt in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 2), (2, 1)]:
        xs = tuples.domain(src)[:500]
        req = TranslationRequest(x_src=xs, src=src, tgt=tgt, mode="indirect")
        out = translate(paired20k, req, topo, sch100)
        ref = datagen.sample_conditional(inst, src, tgt, xs, rng)
        sw = metrics.sliced_wasserstein(out.x_tgt, ref,
                                        rng=np.random.default_rng(0))
        base = metrics.oracle_self_distance(inst, src, tgt, xs, rng)
        rmse = float(np.sqrt(np.mean((out.x_tgt - tuples.domain(tgt)[:500]) ** 2)))
        _, C = datagen.analytic_conditional(inst, src, tgt, xs)
        cond_std = float(np.sqrt(np.trace(C) / C.shape[0]))
        worst_sw = max(worst_sw, sw / base)
        worst_rmse = max(worst_rmse, rmse / cond_std)
    ok = worst_sw <= 3.0 and worst_rmse <= 3.0
    _report(capsys, 4, "indirect translation quality on the K=3 star", ok,
            f"worst sliced-W2 ratio {worst_sw:.2f}, worst RMSE ratio {worst_rmse:.2f}")


def test_acceptance_5_refinement_trend(capsys, star20k, sch100, paired20k):
    """More refinement iterations improve the distilled direct translator:
    n=5 strictly beats n=0 with at most one inversion along n in {0,1,3,5}."""
    topo, datasets, _, _ = star20k
    vals = []
    for n in (0, 1, 3, 5):
        cfg = TrainConfig(regime="finetune", steps=4000, n_refine=n, seed=1)
        res = train(cfg, topo, datasets, sch100, init_params=paired20k)
        vals.append(_direct_sw(res.params, star20k, sch100,
                               [(1, 2), (2, 1)], 2000))
    inversions = sum(1 for a, b in zip(vals, vals[1:]) if b > a)
    ok = vals[-1] < vals[0] and inversions <= 1
    _report(capsys, 5, "refinement-iteration quality trend", ok,
            "sliced-W2 " + " ".join(f"{v:.4f}" for v in vals))


def test_acceptance_6_rehearsal_collapse(capsys, star20k, sch100, paired20k):
    """Dropping the paired rehearsal term makes the finetuned model forget the
    edge directions: sliced-W2 degrades by at least 5x."""
    topo, datasets, _, _ = star20k
    edges = [(1, 0), (0, 1), (2, 0), (0, 2)]
    sw = {}
    for lam2 in (0.0, 1.0):
        cfg = TrainConfig(regime="finetune", steps=12000, n_refine=0,
                          lambda2=lam2, seed=1, finetune_lr=1e-3)
        res = train(cfg, topo, datasets, sch100, init_params=paired20k)
        sw[lam2] = _direct_sw(res.params, star20k, sch100, edges, 500)
    ratio = sw[0.0] / sw[1.0]
    _report(capsys, 6, "edge-direction collapse without rehearsal",
            ratio >= 5.0, f"{sw[0.0]:.4f} vs {sw[1.0]:.4f}, ratio {ratio:.1f}x")


def test_acceptance_7_step_count_contract(capsys, sch100):
    """Direct translation halves the star's denoising steps and cuts the
    4-chain endpoints to a third."""
    rng = np.random.default_rng(0)
    star = Topology(K=3, edges=((1, 0), (2, 0)), central=0)
    chain = Topology(K=4, edges=((0, 1), (1, 2), (2, 3)))
    params = init_router(2, 4, 100, [8], rng)
    params.kind = KIND_DIRECT
    x = rng.standard_normal((4, 2))
    star_ind = translate(params, TranslationRequest(x_src=x, src=1, tgt=2), star, sch100)
    star_dir = translate(params, TranslationRequest(x_src=x, src=1, tgt=2, mode="direct"), star, sch100)
    chain_ind = translate(params, TranslationRequest(x_src=x, src=0, tgt=3), chain, sch100)
    chain_dir = translate(params, TranslationRequest(x_src=x, src=0, tgt=3, mode="direct"), chain, sch100)
    ok = (star_ind.total_steps == 2 * star_dir.total_steps
          and chain_ind.total_steps == 3 * chain_dir.total_steps)
    _report(capsys, 7, "direct-translation step-count contract", ok,
            f"star {star_ind.total_steps}/{star_dir.total_steps}, "
            f"chain {chain_ind.total_steps}/{chain_dir.total_steps}")


def test_acceptance_8_from_scratch_loss_shape(capsys, star20k, sch100):
    """With a near-zero output layer at init, the from-scratch distillation
    loss starts near zero and rises before falling."""
    topo, datasets, _, _ = star20k
    cfg = TrainConfig(regime="from-scratch", steps=12000, seed=2,
                      log_window=50, out_scale=0.02, warmup_steps=300)
    res = train(cfg, topo, datasets, sch100)
    rows = [(s, l) for s, d, l, _ in res.log_rows if d.startswith("unpaired")]
    xs = np.array([s for s, _ in rows])
    ys = np.array([l for _, l in rows])
    initial = ys[0]
    early_max = ys[xs <= cfg.steps // 10].max()
    ok = early_max > 2.0 * initial
    _report(capsys, 8, "from-scratch loss rises from near zero", ok,
            f"initial {initial:.3g}, max in first 10% {early_max:.3g}")


def test_acceptance_9_bridge_refusal_and_parity(capsys):
    """Unpaired finetuning is refused for the bridge variant; paired bridge
    training on glyphs stays within 2x of the diffusion variant's quality."""
    topo, dss, tuples, _ = make_star_instance(3, 64, 4000, 11,
                                              family="glyphs", M=2000)
    # refusal
    sch_b = build_bridge_schedule(100)
    params = init_router(64, 3, 100, [16], np.random.default_rng(0))
    from diffrouter.router import freeze
    refused = False
    try:
        unpaired_loss_step(params, freeze(params), dss[0].x_a[:4], dss[0].x_b[:4],
                           1, 0, 2, dss[1].side(2), sch_b,
                           TrainConfig(regime="finetune"),
                           np.random.default_rng(0), topo)
    except ValueError as exc:
        refused = "bridge" in str(exc)

    def edge_sw(steps, hidden, sch):
        cfg = TrainConfig(regime="paired-only", steps=steps, seed=3, hidden=hidden)
        res = train(cfg, topo, dss, sch)
        vals = []
        for src, tgt in [(1, 0), (0, 1)]:
            xs = tuples.domain(src)[:500]
            req = TranslationRequest(x_src=xs, src=src, tgt=tgt, mode="indirect")
            out = translate(res.params, req, topo, sch)
            ref = tuples.domain(tgt)[500:1000]
            vals.append(metrics.sliced_wasserstein(out.x_tgt, ref,
                                                   rng=np.random.default_rng(0)))
        return float(np.mean(vals))

    sw_diff = edge_sw(25000, (192, 192, 192), build_diffusion_schedule(100))
    sw_bridge = edge_sw(5000, (128, 128, 128), sch_b)
    ok = refused and sw_bridge <= 2.0 * sw_diff
    _report(capsys, 9, "bridge finetune refusal and paired-quality parity", ok,
            f"refused={refused}, bridge {sw_bridge:.3f} vs diffusion {sw_diff:.3f}")


def test_acceptance_10_refinement_distribution_convergence(capsys):
    """Iterative refinement of an unconditional noisy population converges
    monotonically to the conditional noisy population at each of three
    noise levels, over n in {0,1,3,5,7} iterations."""
    rng = np.random.default_rng(0)
    d = 2
    A0 = 6.0 * np.linalg.qr(rng.standard_normal((d, d)))[0]
    A1 = 6.0 * (np.linalg.qr(rng.standard_normal((d, d)))[0]
                + 0.2 * rng.standard_normal((d, d)))
    inst = GaussianInstance(maps=[A0, A1],
                            offsets=[np.zeros(d), rng.normal(0, 2, d)],
                            noise=[6.0, 1.0], latent_dim=d)
    sch = build_diffusion_schedule(100, profile="cosine")
    oracle = OracleScorePredictor(inst, sch)
    x_c = A0 @ np.array([1.5, -1.0])
    M = 4000
    gen = np.random.default_rng(42)
    x0 = (gen.standard_normal((M, d)) @ A1.T + inst.offsets[1]
          + 1.0 * gen.standard_normal((M, d)))
    all_ok = True
    details = []
    for t in (25, 50, 75):
        mean, cov = datagen.noisy_conditional(inst, 0, 1, x_c,
                                              sch.alpha[t], sch.sigma[t])
        chol = np.linalg.cholesky(cov)
        ref = mean + np.random.default_rng(7).standard_normal((M, d)) @ chol.T
        base = sch.alpha[t] * x0 + sch.sigma[t] * np.random.default_rng(8).standard_normal((M, d))
        vals = []
        for n in (0, 1, 3, 5, 7):
            # one shared stream per n so successive snapshots are coupled
            r = np.random.default_rng(100)
            refined = tweedie_refine(condition(oracle, np.broadcast_to(x_c, (M, d)), 1, 0),
                                     base, t, sch, r, n=n)
            vals.append(metrics.sliced_wasserstein(
                refined, np.atleast_2d(ref), rng=np.random.default_rng(0)))
        mono = all(b < a for a, b in zip(vals, vals[1:]))
        all_ok &= mono
        details.append(f"t={t} " + ">".join(f"{v:.3f}" for v in vals))
    _report(capsys, 10, "refinement converges monotonically to the conditional",
            all_ok, "; ".join(details))
