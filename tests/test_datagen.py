import re

import numpy as np
import pytest

from diffrouter import datagen
from diffrouter.datagen import (GaussianInstance, Topology, analytic_conditional,
                                load_eval_tuples, load_paired_dataset,
                                make_chain_instance, make_star_instance,
                                noisy_conditional, partial_correlation,
                                sample_conditional, save_eval_tuples,
                                save_paired_dataset)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(K=3, edges=((0, 1),))  # wrong edge count
    with pytest.raises(ValueError):
        Topology(K=4, edges=((0, 1), (0, 1), (2, 3)))  # disconnected
    with pytest.raises(ValueError):
        Topology(K=3, edges=((0, 1), (1, 2)), central=0)  # star violation
    topo = Topology(K=3, edges=((1, 0), (2, 0)), central=0)
    assert topo.is_edge(0, 1) and topo.is_edge(1, 0)
    assert not topo.is_edge(1, 2)


def test_topology_constructors_and_directions():
    star = Topology.star(4, 2)
    assert star.edges == ((0, 2), (1, 2), (3, 2)) and star.central == 2
    assert star.directions("all") == [(i, j) for i in range(4) for j in range(4) if i != j]
    assert star.directions("edges") == [(0, 2), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)]
    assert star.directions("nonedges") == [(0, 1), (0, 3), (1, 0), (1, 3), (3, 0), (3, 1)]
    chain = Topology.chain(4)
    assert chain.edges == ((0, 1), (1, 2), (2, 3)) and chain.central is None
    assert chain.directions("nonedges") == [(0, 2), (0, 3), (1, 3), (2, 0), (3, 0), (3, 1)]
    with pytest.raises(ValueError, match="unknown direction set 'some'"):
        chain.directions("some")
    with pytest.raises(ValueError, match="star topology needs at least 2 domains"):
        Topology.star(1, 0)
    with pytest.raises(ValueError, match="central domain 4 out of range"):
        Topology.star(4, 4)
    with pytest.raises(ValueError, match="chain topology needs at least 3 domains"):
        Topology.chain(2)
    # an edge to an unknown domain is refused as a label, not a KeyError
    with pytest.raises(ValueError, match=r"domain label 5 out of range \[0, 3\)"):
        Topology(K=3, edges=((0, 1), (1, 5)))


def test_star_k2_degenerates():
    topo, datasets, tuples, inst = make_star_instance(2, 2, 100, seed=1, M=50)
    assert len(datasets) == 1 and topo.edges == ((1, 0),)


def test_star_errors():
    with pytest.raises(ValueError):
        make_star_instance(1, 2, 10, seed=0)
    with pytest.raises(ValueError):
        make_star_instance(3, 2, 10, seed=0, family="nope")
    with pytest.raises(ValueError):
        make_star_instance(3, 3, 10, seed=0, family="moons-warp")  # needs d=2
    with pytest.raises(ValueError):
        make_star_instance(3, 2, 10, seed=0, family="glyphs")  # needs d=64


def test_chain_topology():
    topo, datasets, tuples, inst = make_chain_instance(4, 2, 100, seed=2, M=50)
    assert topo.edges == ((0, 1), (1, 2), (2, 3))
    assert inst is not None
    with pytest.raises(ValueError):
        make_chain_instance(2, 2, 100, seed=2)


def test_latent_disjointness(small_star):
    _, datasets, tuples, _ = small_star
    sets = [set(ds.latent_indices.tolist()) for ds in datasets]
    sets.append(set(tuples.latent_indices.tolist()))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert not sets[i] & sets[j]


def test_partial_correlation_given_central():
    topo, datasets, tuples, inst = make_star_instance(3, 2, 500, seed=3, M=10000)
    rho = partial_correlation(tuples.domain(1), tuples.domain(2), tuples.domain(0))
    assert rho < 0.05


def test_determinism():
    a = make_star_instance(3, 2, 200, seed=11, M=100)
    b = make_star_instance(3, 2, 200, seed=11, M=100)
    for da, db in zip(a[1], b[1]):
        assert np.array_equal(da.x_a, db.x_a) and np.array_equal(da.x_b, db.x_b)
    assert np.array_equal(a[2].samples, b[2].samples)


def test_glyph_domains():
    topo, datasets, tuples, inst = make_star_instance(3, 64, 50, seed=5,
                                                      family="glyphs", M=20)
    assert inst is None
    assert tuples.samples.shape == (20, 3, 64)
    # the edge-filter view has no energy where the base glyph is flat
    base = tuples.domain(0)
    edges = tuples.domain(1)
    assert edges.shape == base.shape
    assert np.all(np.isfinite(edges))


def test_moons_instance():
    topo, datasets, tuples, inst = make_star_instance(3, 2, 200, seed=6,
                                                      family="moons-warp", M=100)
    assert inst is None
    assert datasets[0].x_a.shape == (200, 2)


def _hand_conditional_1d(g_s, s_s, g_t, s_t, x):
    """Textbook posterior for x_s = g_s z + s_s e, x_t = g_t z + s_t e, z ~ N(0,1)."""
    var_s = g_s ** 2 + s_s ** 2
    cov_ts = g_t * g_s
    mean = cov_ts / var_s * x
    var = g_t ** 2 + s_t ** 2 - cov_ts ** 2 / var_s
    return mean, var


def test_analytic_conditional_1d_hand_solved():
    inst = GaussianInstance(maps=[np.array([[1.4]]), np.array([[-0.8]])],
                            offsets=[np.zeros(1), np.zeros(1)],
                            noise=[0.3, 0.5], latent_dim=1)
    x = np.array([[0.7]])
    mean, cov = analytic_conditional(inst, 0, 1, x)
    hm, hv = _hand_conditional_1d(1.4, 0.3, -0.8, 0.5, 0.7)
    assert abs(mean[0, 0] - hm) < 1e-12
    assert abs(cov[0, 0] - hv) < 1e-12


def test_analytic_conditional_deterministic_copy():
    inst = GaussianInstance(maps=[np.eye(2), np.eye(2)],
                            offsets=[np.zeros(2), np.zeros(2)],
                            noise=[1e-6, 1e-6], latent_dim=2)
    x = np.array([[0.3, -1.1]])
    mean, cov = analytic_conditional(inst, 0, 1, x)
    assert np.allclose(mean[0], x[0], atol=1e-5)
    assert np.max(np.abs(cov)) < 1e-5


def test_analytic_conditional_monte_carlo(small_star):
    """Empirical conditional mean from regression on 10^5 joint draws matches
    the analytic gain within 3 standard errors."""
    _, _, _, inst = small_star
    rng = np.random.default_rng(8)
    n = 100_000
    z = rng.standard_normal((n, inst.latent_dim))
    views = inst.sample_domains(z, rng)
    xs, xt = views[:, 1, :], views[:, 2, :]
    x0 = xs.mean(axis=0) + 0.5
    mean_a, cov_a = analytic_conditional(inst, 1, 2, x0)
    # local MC estimate: weight samples by a narrow kernel around x0
    w = np.exp(-0.5 * np.sum((xs - x0) ** 2, axis=1) / 0.05 ** 2)
    w /= w.sum()
    mc_mean = w @ xt
    n_eff = 1.0 / np.sum(w ** 2)
    se = np.sqrt(np.diag(cov_a) / n_eff)
    assert np.all(np.abs(mc_mean - mean_a) < 3.5 * se + 0.02)


def test_singular_instance_rejected():
    inst = GaussianInstance(maps=[np.zeros((2, 2)), np.eye(2)],
                            offsets=[np.zeros(2), np.zeros(2)],
                            noise=[0.0, 0.1], latent_dim=2)
    with pytest.raises(ValueError):
        analytic_conditional(inst, 0, 1, np.zeros((1, 2)))


def test_sample_conditional_moments(small_star, rng):
    _, _, _, inst = small_star
    x0 = np.zeros((1, 2))
    mean, cov = analytic_conditional(inst, 1, 0, x0)
    draws = sample_conditional(inst, 1, 0, np.tile(x0, (20000, 1)), rng)
    assert np.allclose(draws.mean(axis=0), mean[0], atol=0.05)
    assert np.allclose(np.cov(draws.T), cov, atol=0.05)


def test_noisy_conditional_formula(small_star):
    _, _, _, inst = small_star
    x0 = np.ones(2)
    mean, cov = analytic_conditional(inst, 0, 1, x0)
    nm, nc = noisy_conditional(inst, 0, 1, x0, 0.6, 0.8)
    assert np.allclose(nm, 0.6 * mean)
    assert np.allclose(nc, 0.36 * cov + 0.64 * np.eye(2))


def test_eval_tuples_not_accepted_by_training(small_star, sch100, rng):
    """Training operations only take PairedDataset; passing EvalTuples fails."""
    from diffrouter.train import paired_loss_step
    topo, datasets, tuples, _ = small_star
    params_rng = np.random.default_rng(0)
    from diffrouter.router import init_router
    params = init_router(2, 3, 100, [8], params_rng)
    with pytest.raises(AttributeError):
        paired_loss_step(params, tuples, np.arange(4), sch100, rng)


def test_oracle_takes_per_row_steps(small_star, sch100, rng):
    """A per-row t equals row-by-row scalar calls, so the oracle can be the
    teacher of the unpaired loss, which draws one step per row."""
    from diffrouter.router import init_router
    from diffrouter.train import TrainConfig, unpaired_loss_step
    topo, datasets, _, inst = small_star
    oracle = datagen.OracleScorePredictor(inst, sch100)
    ds = datasets[0]
    x_t = rng.standard_normal((12, 2))
    t = np.array([5, 90, 5, 1, 100, 90, 33, 5, 1, 60, 60, 7])
    x_src = ds.side(0)[:12]
    batch = oracle(x_t, t, x_src, 1, 0)
    rows = [oracle(x_t[r], t[r], x_src[r], 1, 0) for r in range(12)]
    assert np.allclose(batch, rows, rtol=1e-12, atol=0.0)

    params = init_router(2, 3, 100, [8], np.random.default_rng(0))
    loss, grads = unpaired_loss_step(params, oracle, ds.side(1)[:16], ds.side(0)[:16],
                                     1, 0, 2, datasets[1].side(2), sch100,
                                     TrainConfig(regime="finetune"), rng, topo)
    assert np.isfinite(loss) and loss > 0.0
    assert np.all(np.isfinite(grads))


def test_eval_tuples_domain_refuses_unknown_label(small_star):
    _, _, tuples, _ = small_star
    assert tuples.domain(2).shape == (len(tuples), 2)
    for k in (3, -1):  # -1 would wrap around to the last domain
        with pytest.raises(ValueError, match=rf"domain label {k} out of range \[0, 3\)"):
            tuples.domain(k)


def test_dataset_roundtrip(tmp_path, small_star):
    _, datasets, tuples, _ = small_star
    p = tmp_path / "d.bin"
    save_paired_dataset(p, datasets[0], {"family": "gaussian-affine"})
    back = load_paired_dataset(p)
    assert back.edge == datasets[0].edge
    assert np.allclose(back.x_a, datasets[0].x_a, atol=1e-6)
    assert np.array_equal(back.latent_indices, datasets[0].latent_indices)
    q = tmp_path / "e.bin"
    save_eval_tuples(q, tuples, {})
    back_t = load_eval_tuples(q)
    assert np.allclose(back_t.samples, tuples.samples, atol=1e-6)


def test_save_refuses_latent_index_float32_cannot_hold(tmp_path):
    """Latent indices are stored as float32, exact only below 2**24."""
    x = np.zeros((2, 2))
    edge = tmp_path / "edge.bin"
    ok = datagen.PairedDataset(edge=(1, 0), x_a=x, x_b=x,
                               latent_indices=np.array([0, 2**24 - 1]))
    save_paired_dataset(edge, ok, {})
    assert np.array_equal(load_paired_dataset(edge).latent_indices, [0, 2**24 - 1])
    edge.unlink()
    big = datagen.PairedDataset(edge=(1, 0), x_a=x, x_b=x,
                                latent_indices=np.array([0, 2**24]))
    with pytest.raises(ValueError, match=re.escape(f"{edge}: latent index 16777216 "
                                                   "is not below 2**24")):
        save_paired_dataset(edge, big, {})
    assert not edge.exists()
    evals = tmp_path / "eval.bin"
    tuples = datagen.EvalTuples(samples=np.zeros((2, 3, 2)),
                                latent_indices=np.array([2**24 + 5, 1]))
    with pytest.raises(ValueError, match=re.escape(f"{evals}: latent index 16777221")):
        save_eval_tuples(evals, tuples, {})
    assert not evals.exists()


def test_dataset_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"something-else\n---\n")
    with pytest.raises(ValueError):
        load_paired_dataset(p)


def test_instance_dict_roundtrip(small_star):
    _, _, _, inst = small_star
    back = datagen.instance_from_dict(datagen.instance_to_dict(inst))
    for a, b in zip(inst.maps, back.maps):
        assert np.allclose(a, b)
    assert back.noise == inst.noise
