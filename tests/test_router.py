import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diffrouter import _kernels, netcore, router
from diffrouter.router import (backbone_input, backward, condition, forward_cached,
                               freeze, init_router, load_checkpoint, save_checkpoint,
                               time_features, topology_hash)


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
    out = params(rng.standard_normal(2), 7, rng.standard_normal(2), 2, 1)
    assert np.array_equal(out, np.zeros(2))


def test_label_swap_changes_output(params, rng):
    x_t = rng.standard_normal(2)
    x_src = rng.standard_normal(2)
    a = params(x_t, 10, x_src, 1, 0)
    b = params(x_t, 10, x_src, 0, 1)
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
    assert np.allclose(params(x_t, t, x_src, 2, 0), h, atol=1e-12)


def test_per_row_time(params, rng):
    x_t = rng.standard_normal((4, 2))
    x_src = rng.standard_normal((4, 2))
    t = np.array([1, 10, 50, 100])
    batch = params(x_t, t, x_src, 1, 0)
    for i in range(4):
        row = params(x_t[i], int(t[i]), x_src[i], 1, 0)
        assert np.allclose(batch[i], row, atol=1e-12)


def test_per_row_labels(params, rng):
    x_t = rng.standard_normal((5, 2))
    x_src = rng.standard_normal((5, 2))
    t = np.array([1, 10, 50, 100, 7])
    tgt, src = np.array([1, 0, 2, 1, 2]), np.array([0, 1, 0, 2, 1])
    batch = params(x_t, t, x_src, tgt, src)
    for i in range(5):
        row = params(x_t[i], int(t[i]), x_src[i], int(tgt[i]), int(src[i]))
        assert np.allclose(batch[i], row, atol=1e-12)


def _full_input_forward(params, x_t, t, x_src, tgt, src):
    inp = backbone_input(params, x_t, t, np.broadcast_to(x_src, np.shape(x_t)), tgt, src)
    return netcore.forward(params.backbone, inp).astype(np.float64)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [2, 64])
@pytest.mark.parametrize("per_row_t", [False, True])
@pytest.mark.parametrize("per_row_labels", [False, True])
def test_bound_predictor_matches_full_input_forward(dtype, d, per_row_t, per_row_labels):
    """The layer-0 split (x_t columns per call, the rest bound once) against
    the whole concatenated input through every layer: equal to rtol 1e-12 in
    float64, within 1e-5 absolute in float32."""
    rng = np.random.default_rng(d)
    params = init_router(d, 4, 50, [32, 32], rng)
    params = replace(params, flat=params.flat.astype(dtype))
    B = 40
    x_t, x_src = rng.standard_normal((B, d)), rng.standard_normal((B, d))
    t = rng.integers(0, 51, size=B) if per_row_t else 17
    tgt, src = ((rng.integers(0, 4, size=B), rng.integers(0, 4, size=B))
                if per_row_labels else (3, 1))

    def close(got, want):
        assert got.dtype == np.float64 and got.shape == want.shape
        if dtype == np.float64:
            return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        return np.max(np.abs(got - want)) <= 1e-5

    want = _full_input_forward(params, x_t, t, x_src, tgt, src)
    assert close(condition(params, x_src, tgt, src)(x_t, t), want)
    assert close(params(x_t, t, x_src, tgt, src), want)
    if not per_row_t and not per_row_labels:  # bound to one source vector
        one = condition(params, x_src[0], tgt, src)
        assert close(one(x_t[0], t), want[0])
        assert close(one(x_t, t), _full_input_forward(params, x_t, t, x_src[0], tgt, src))


def _unhalved_bound_forward(params, x_t, t, x_src, tgt, src):
    """The layer-0 split with a new array per layer and no halving: x_t
    times its columns of w0 plus the bound block, plus row t of the time
    block, then `_kernels.silu` and `_kernels.affine` layer by layer."""
    net = params.backbone
    w0, b0 = net.weights[0], net.biases[0]
    d, E = params.data_dim, params.emb_dim
    lo = 2 * d + params.time_dim
    x_src = np.atleast_2d(np.asarray(x_src, dtype=w0.dtype))
    emb = params.domain_emb
    base = (_kernels.affine(x_src, w0[:, d:2 * d], b0)
            + (emb @ w0[:, lo:lo + E].T)[tgt] + (emb @ w0[:, lo + E:].T)[src])
    time_rows = router.time_table(params.n_timesteps, params.time_dim).astype(w0.dtype)
    time_rows = time_rows @ w0[:, 2 * d:lo].T
    z = _kernels.affine(np.atleast_2d(np.asarray(x_t, dtype=w0.dtype)), w0[:, :d], base)
    z += time_rows[t]
    for w, b in zip(net.weights[1:], net.biases[1:]):
        h = _kernels.silu(z)[0] if net.activation == "silu" else z
        z = _kernels.affine(h, w, b)
    return z.astype(np.float64)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [2, 64])
@pytest.mark.parametrize("per_row_t", [False, True])
@pytest.mark.parametrize("per_row_labels", [False, True])
@pytest.mark.parametrize("activation", ["silu", "identity"])
def test_bound_predictor_matches_the_unhalved_split_bitwise(dtype, d, per_row_t,
                                                            per_row_labels, activation):
    """The halved in-place forward pass equals the unhalved split to the bit
    at 1 (a single source vector), 40, 128 and 1000 rows, and a binding's
    second call equals its first."""
    rng = np.random.default_rng(d)
    params = init_router(d, 4, 50, [32, 32], rng, activation=activation)
    params = replace(params, flat=params.flat.astype(dtype))
    for B in (1, 40, 128, 1000):
        x_t, x_src = rng.standard_normal((B, d)), rng.standard_normal((B, d))
        t = rng.integers(0, 51, size=B) if per_row_t else 17
        tgt, src = ((rng.integers(0, 4, size=B), rng.integers(0, 4, size=B))
                    if per_row_labels else (3, 1))
        x_src = x_src[0] if B == 1 else x_src
        want = _unhalved_bound_forward(params, x_t, t, x_src, tgt, src)
        bound = condition(params, x_src, tgt, src)
        assert np.array_equal(bound(x_t, t), want)
        assert np.array_equal(bound(x_t, t), want)
        if B == 1:
            assert np.array_equal(bound(x_t[0], t), want[0])


def test_binding_is_a_snapshot_of_the_parameters(rng):
    """A binding copies every array it reads when it is made: after an
    in-place change to params.flat it still answers as the network it was
    bound to, bit for bit."""
    params = init_router(2, 3, 50, [16, 16], rng)
    params = replace(params, flat=params.flat.astype(np.float32))
    x_t, x_src = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
    before = freeze(params)
    bound = condition(params, x_src, 1, 0)
    params.flat += 0.05
    got = bound(x_t, 9)
    assert np.array_equal(got, condition(before, x_src, 1, 0)(x_t, 9))
    assert not np.array_equal(got, condition(freeze(params), x_src, 1, 0)(x_t, 9))


@pytest.mark.parametrize("per_row_t", [False, True])
def test_warm_binding_call_allocates_less_than_one_hidden_array(per_row_t):
    """A warm binding's call on 1000 rows (hidden 128 x 3, float32) writes
    its layers into the binding's workspace: its traced allocation peak stays
    below one (B, H) array. Its result is a new array that a later call does
    not overwrite."""
    rng = np.random.default_rng(1)
    params = init_router(2, 5, 100, [128, 128, 128], rng)
    params = replace(params, flat=params.flat.astype(np.float32))
    B = 1000
    x_src = rng.standard_normal((B, 2))
    t = rng.integers(0, 101, size=B) if per_row_t else 40
    bound = condition(params, x_src, 2, 1)
    first = bound(rng.standard_normal((B, 2)), t)
    kept = first.copy()
    x_t = rng.standard_normal((B, 2))
    tracemalloc.start()
    try:
        second = bound(x_t, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B * 128 * np.dtype(np.float32).itemsize
    assert np.array_equal(first, kept) and not np.array_equal(first, second)


def test_binding_serves_calls_of_other_row_counts(params, rng):
    """The workspace follows the call: a binding to one source vector serves
    batches of growing and shrinking size, each equal to a fresh binding's
    answer. A batch binding refuses x_t of another row count and then still
    answers its own."""
    x_src = rng.standard_normal((40, 2))
    one = condition(params, x_src[0], 1, 0)
    for B in (40, 1000, 7, 1200):
        x_t = rng.standard_normal((B, 2))
        assert np.array_equal(one(x_t, 5), condition(params, x_src[0], 1, 0)(x_t, 5))
    batch = condition(params, x_src, 1, 0)
    for B in (1, 39):
        with pytest.raises(ValueError):
            batch(rng.standard_normal((B, 2)), 5)
    x_t = rng.standard_normal((40, 2))
    assert np.array_equal(batch(x_t, 5), condition(params, x_src, 1, 0)(x_t, 5))


def test_bound_predictor_keeps_the_checks(params, rng):
    """The binding checks the labels and x_src's width once; each call checks
    x_t's width and its steps; the messages are those of the full input."""
    x, x3 = rng.standard_normal((3, 2)), rng.standard_normal((3, 3))
    for tgt, src, bad in ((3, 0, 3), (0, -1, -1), (np.array([1, 4, 0]), 0, 4)):
        with pytest.raises(ValueError, match=rf"^domain label {bad} out of range \[0, 3\)$"):
            condition(params, x, tgt, src)
    with pytest.raises(ValueError, match="^expected data dimension 2, got 3$"):
        condition(params, x3, 1, 0)
    bound = condition(params, x, 1, 0)
    with pytest.raises(ValueError, match="^expected data dimension 2, got 3$"):
        bound(x3, 5)
    for t in (-1, 101, np.array([3, -1, 0]), 2.0):
        with pytest.raises(ValueError, match=r"^time steps must be integers in \[0, 100\]$"):
            bound(x, t)
    with pytest.raises(ValueError, match="^expected data dimension 2, got 3 / 2$"):
        backbone_input(params, x3, 5, x, 1, 0)


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


@pytest.mark.parametrize("labels", [2, np.int64(1), np.array([0, 2, 1, 2, 0, 0, 1])])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_hot_equals_the_broadcast_form(labels, dtype):
    """The (K, B) indicator of an int label or of per-row labels equals the
    comparison against the labels broadcast to the rows."""
    rows = np.zeros((7, 5), dtype)
    want = (np.arange(3)[:, None] == np.broadcast_to(labels, rows.shape[:1])).astype(dtype)
    got = router._one_hot(labels, 3, rows)
    assert got.dtype == want.dtype and got.shape == (3, 7)
    assert np.array_equal(got, want)


def test_label_and_dim_validation(params, rng):
    with pytest.raises(ValueError):
        params(rng.standard_normal(2), 1, rng.standard_normal(2), 3, 0)
    with pytest.raises(ValueError):
        params(rng.standard_normal(2), 1, rng.standard_normal(2), -1, 0)
    with pytest.raises(ValueError):
        params(rng.standard_normal(3), 1, rng.standard_normal(2), 1, 0)
    x = rng.standard_normal((3, 2))
    for tgt, bad in ((np.array([1, 3, 4]), 3), (np.array([0, -1, 2]), -1)):
        with pytest.raises(ValueError, match=rf"^domain label {bad} out of range \[0, 3\)$"):
            params(x, 1, x, tgt, 0)
        with pytest.raises(ValueError, match=rf"^domain label {bad} out of range \[0, 3\)$"):
            params(x, 1, x, 0, tgt)


def test_freeze_semantics(params, rng):
    x_t = rng.standard_normal((100, 2))
    x_src = rng.standard_normal((100, 2))
    frozen = freeze(params)
    at_freeze = frozen(x_t, 5, x_src, 1, 0)
    assert np.allclose(at_freeze, params(x_t, 5, x_src, 1, 0))
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
            lp = float(np.sum(params(x_t, 9, x_src, 1, 0) * g_out))
            params.domain_emb[k, e] = orig - eps
            lm = float(np.sum(params(x_t, 9, x_src, 1, 0) * g_out))
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
    a = params(x_t, 3, x_src, 1, 2)
    b = back(x_t, 3, x_src, 1, 2)
    assert np.max(np.abs(a - b)) < 1e-5  # float32 storage


def test_shape_is_read_off_the_arrays(tmp_path, rng):
    params = init_router(3, 4, 10, [8], rng, time_dim=6, emb_dim=5)
    assert (params.data_dim, params.n_domains, params.time_dim) == (3, 4, 6)
    assert params.backbone.widths[0] == 2 * 3 + 6 + 2 * 5
    save_checkpoint(tmp_path / "r.ckpt", params)
    back, header = load_checkpoint(tmp_path / "r.ckpt")
    assert (back.data_dim, back.n_domains, back.time_dim) == (3, 4, 6)
    assert (header["data_dim"], header["n_domains"], header["time_dim"]) == ("3", "4", "6")
    with pytest.raises(TypeError):  # the shape is not a setting
        router.RouterParams(backbone=params.backbone, domain_emb=params.domain_emb,
                            n_timesteps=10, data_dim=3, n_domains=4, time_dim=6)


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
    wide = replace(back, flat=back.flat.astype(np.float64))
    for p, q in zip(back.param_list(), wide.param_list()):
        assert q.dtype == np.float64 and np.array_equal(p, q)
        assert not np.shares_memory(p, q)
    x_t = rng.standard_normal((8, 2))
    x_src = rng.standard_normal((8, 2))
    assert backbone_input(back, x_t, 3, x_src, 1, 2).dtype == np.float32
    b = back(x_t, 3, x_src, 1, 2)
    assert b.dtype == np.float64
    assert np.max(np.abs(wide(x_t, 3, x_src, 1, 2) - b)) < 1e-5
