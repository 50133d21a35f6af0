import numpy as np
import pytest

from diffrouter import router
from diffrouter.router import (backbone_input, backward, forward_cached, freeze,
                               init_router, load_checkpoint, predict_noise,
                               save_checkpoint, time_features, topology_hash)


@pytest.fixture()
def params(rng):
    return init_router(2, 3, 100, [16, 16], rng)


def test_input_width_invariant(params, rng):
    inp = backbone_input(params, rng.standard_normal(2), 5, rng.standard_normal(2), 1, 0)
    assert inp.shape[1] == 2 * 2 + params.time_dim + 2 * params.emb_dim
    assert inp.shape[1] == params.backbone.widths[0]
    assert params.backbone.widths[-1] == 2


def test_zero_backbone_outputs_zero(params, rng):
    for w in params.backbone.weights:
        w[:] = 0
    for b in params.backbone.biases:
        b[:] = 0
    out = predict_noise(params, rng.standard_normal(2), 7, rng.standard_normal(2), 2, 1)
    assert np.array_equal(out, np.zeros(2))


def test_label_swap_changes_output(params, rng):
    x_t = rng.standard_normal(2)
    x_src = rng.standard_normal(2)
    a = predict_noise(params, x_t, 10, x_src, 1, 0)
    b = predict_noise(params, x_t, 10, x_src, 0, 1)
    assert np.linalg.norm(a - b) > 0


def test_conditioning_completeness(params, rng):
    """Perturbing each named argument changes the backbone input."""
    x_t = rng.standard_normal(2)
    x_src = rng.standard_normal(2)
    base = backbone_input(params, x_t, 10, x_src, 1, 0)
    variants = [
        backbone_input(params, x_t + 0.1, 10, x_src, 1, 0),
        backbone_input(params, x_t, 11, x_src, 1, 0),
        backbone_input(params, x_t, 10, x_src + 0.1, 1, 0),
        backbone_input(params, x_t, 10, x_src, 2, 0),
        backbone_input(params, x_t, 10, x_src, 1, 2),
    ]
    for v in variants:
        assert not np.array_equal(base, v)


def test_predict_matches_scalar_reference(params, rng):
    """Rebuild the concatenated input by hand and evaluate layer by layer."""
    x_t = rng.standard_normal(2)
    x_src = rng.standard_normal(2)
    t = 37
    tf = time_features(t, 100, params.time_dim)
    inp = np.concatenate([x_t, x_src, tf, params.domain_emb[2], params.domain_emb[0]])
    h = inp
    for li, (W, b) in enumerate(zip(params.backbone.weights, params.backbone.biases)):
        z = W @ h + b
        h = z / (1.0 + np.exp(-z)) if li < len(params.backbone.weights) - 1 else z
    assert np.allclose(predict_noise(params, x_t, t, x_src, 2, 0), h, atol=1e-12)


def test_per_row_time(params, rng):
    x_t = rng.standard_normal((4, 2))
    x_src = rng.standard_normal((4, 2))
    t = np.array([1, 10, 50, 100])
    batch = predict_noise(params, x_t, t, x_src, 1, 0)
    for i in range(4):
        row = predict_noise(params, x_t[i], int(t[i]), x_src[i], 1, 0)
        assert np.allclose(batch[i], row, atol=1e-12)


def test_per_row_labels(params, rng):
    x_t = rng.standard_normal((5, 2))
    x_src = rng.standard_normal((5, 2))
    t = np.array([1, 10, 50, 100, 7])
    tgt, src = np.array([1, 0, 2, 1, 2]), np.array([0, 1, 0, 2, 1])
    batch = predict_noise(params, x_t, t, x_src, tgt, src)
    for i in range(5):
        row = predict_noise(params, x_t[i], int(t[i]), x_src[i], int(tgt[i]), int(src[i]))
        assert np.allclose(batch[i], row, atol=1e-12)


def test_mixed_label_backward_is_sum_of_single_label_passes(params, rng):
    x_t = rng.standard_normal((12, 2))
    x_src = rng.standard_normal((12, 2))
    t = rng.integers(1, 101, size=12)
    g_out = rng.standard_normal((12, 2))
    tgt, src = np.tile([1, 0, 2], 4), np.tile([0, 1, 0, 2], 3)
    _, cache = forward_cached(params, x_t, t, x_src, tgt, src)
    mixed = backward(params, cache, g_out)
    assert mixed.dtype == np.float64 and mixed.shape == params.flat.shape
    total = np.zeros_like(params.flat)
    for pair in set(zip(tgt.tolist(), src.tolist())):
        rows = (tgt == pair[0]) & (src == pair[1])
        _, cache = forward_cached(params, x_t[rows], t[rows], x_src[rows], *pair)
        total += backward(params, cache, g_out[rows])
    assert np.linalg.norm(mixed - total) <= 1e-12 * np.linalg.norm(total)


def test_label_and_dim_validation(params, rng):
    with pytest.raises(ValueError):
        predict_noise(params, rng.standard_normal(2), 1, rng.standard_normal(2), 3, 0)
    with pytest.raises(ValueError):
        predict_noise(params, rng.standard_normal(2), 1, rng.standard_normal(2), -1, 0)
    with pytest.raises(ValueError):
        predict_noise(params, rng.standard_normal(3), 1, rng.standard_normal(2), 1, 0)
    x = rng.standard_normal((3, 2))
    for tgt, bad in ((np.array([1, 3, 4]), 3), (np.array([0, -1, 2]), -1)):
        with pytest.raises(ValueError, match=rf"^domain label {bad} out of range \[0, 3\)$"):
            predict_noise(params, x, 1, x, tgt, 0)
        with pytest.raises(ValueError, match=rf"^domain label {bad} out of range \[0, 3\)$"):
            predict_noise(params, x, 1, x, 0, tgt)


def test_freeze_semantics(params, rng):
    x_t = rng.standard_normal((100, 2))
    x_src = rng.standard_normal((100, 2))
    frozen = freeze(params)
    at_freeze = frozen(x_t, 5, x_src, 1, 0)
    assert np.allclose(at_freeze, predict_noise(params, x_t, 5, x_src, 1, 0))
    for w in params.backbone.weights:
        w += 1.0
    params.domain_emb += 1.0
    assert np.array_equal(frozen(x_t, 5, x_src, 1, 0), at_freeze)


def test_embedding_gradients_finite_difference(params, rng):
    x_t = rng.standard_normal((5, 2))
    x_src = rng.standard_normal((5, 2))
    g_out = rng.standard_normal((5, 2))
    pred, cache = forward_cached(params, x_t, 9, x_src, 1, 0)
    emb_grad = backward(params, cache, g_out)[-params.domain_emb.size:].reshape(
        params.domain_emb.shape)  # the embedding table is the vector's tail
    eps = 1e-6
    for k in (0, 1):
        for e in range(params.emb_dim):
            orig = params.domain_emb[k, e]
            params.domain_emb[k, e] = orig + eps
            lp = float(np.sum(predict_noise(params, x_t, 9, x_src, 1, 0) * g_out))
            params.domain_emb[k, e] = orig - eps
            lm = float(np.sum(predict_noise(params, x_t, 9, x_src, 1, 0) * g_out))
            params.domain_emb[k, e] = orig
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - emb_grad[k, e]) < 1e-5 * max(1.0, abs(fd))
    assert np.all(emb_grad[2] == 0)  # label 2 unused this pass


def test_checkpoint_roundtrip(tmp_path, params, rng):
    params.kind = router.KIND_DIRECT
    path = tmp_path / "r.ckpt"
    save_checkpoint(path, params, extra_header={"topology": topology_hash([(1, 0), (2, 0)])})
    back, header = load_checkpoint(path)
    assert back.kind == router.KIND_DIRECT
    assert back.n_domains == 3 and back.data_dim == 2
    assert header["topology"] == topology_hash([(0, 2), (0, 1)])  # order-insensitive
    x_t = rng.standard_normal((8, 2))
    x_src = rng.standard_normal((8, 2))
    a = predict_noise(params, x_t, 3, x_src, 1, 2)
    b = predict_noise(back, x_t, 3, x_src, 1, 2)
    assert np.max(np.abs(a - b)) < 1e-5  # float32 storage


def test_out_scale_shrinks_output_layer(rng):
    a = init_router(2, 3, 100, [8], np.random.default_rng(3))
    b = init_router(2, 3, 100, [8], np.random.default_rng(3), out_scale=0.01)
    assert np.allclose(b.backbone.weights[-1], 0.01 * a.backbone.weights[-1])
    assert np.array_equal(a.backbone.weights[0], b.backbone.weights[0])


def test_loaded_checkpoint_runs_in_float32(tmp_path, params, rng):
    path = tmp_path / "r.ckpt"
    save_checkpoint(path, params)
    back, _ = load_checkpoint(path)
    assert all(p.dtype == np.float32 for p in back.param_list())
    wide = router.as_float64(back)
    for p, q in zip(back.param_list(), wide.param_list()):
        assert q.dtype == np.float64 and np.array_equal(p, q)
        assert not np.shares_memory(p, q)
    x_t = rng.standard_normal((8, 2))
    x_src = rng.standard_normal((8, 2))
    assert backbone_input(back, x_t, 3, x_src, 1, 2).dtype == np.float32
    b = predict_noise(back, x_t, 3, x_src, 1, 2)
    assert b.dtype == np.float64
    assert np.max(np.abs(predict_noise(wide, x_t, 3, x_src, 1, 2) - b)) < 1e-5
