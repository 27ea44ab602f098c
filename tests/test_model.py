import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hcgst.graph import build_graph, k_hop_adjacency, make_partition
from hcgst.model import (TrainConfig, TrainingRows, _cross_entropy_rows, _one_blas_thread,
                         _openblas_thread_calls, dual_loss_and_grads, forward, gradient_check,
                         init_params, predict, softmax_rows, train_dual)
from hcgst.orchestrator import RunConfig, run_self_training
from hcgst.synth import SynthConfig, generate_graph

EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
_VIEWS = ("w1", "w2", "w_main", "w_pseudo")  # the weight matrices, views of ModelParams.flat


def _graph(edges, n, labels=None, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return build_graph(edges, rng.standard_normal((n, d)), labels)


def _two_blob_graph(seed=0, n=20, c=4):
    # two feature blobs per pair of classes, ring-ish wiring inside blocks
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % c
    feats = np.zeros((n, 3))
    feats[labels < 2, 0] = 2.0
    feats[labels >= 2, 0] = -2.0
    feats[:, 1] = labels % 2
    feats += 0.3 * rng.standard_normal((n, 3))
    edges = [(i, (i + c) % n) for i in range(n)] + [(i, (i + 1) % n) for i in range(0, n, 2)]
    return build_graph(edges, feats, labels)


def test_init_deterministic():
    a = init_params(5, 8, 3, seed=42)
    b = init_params(5, 8, 3, seed=42)
    assert np.array_equal(a.flat, b.flat)


def test_params_are_views_of_one_vector_through_copy_and_pickle():
    p = init_params(5, 8, 3, seed=0)
    assert p.flat.shape == (5 * 8 + 8 * 8 + 2 * 8 * 3,)
    p.flat[0] = 7.0
    assert p.w1[0, 0] == 7.0
    q = p.copy()
    assert not np.shares_memory(q.flat, p.flat)
    r = pickle.loads(pickle.dumps(p))
    r.flat[-1] = 9.0
    assert r.w_pseudo[-1, -1] == 9.0 and p.w_pseudo[-1, -1] != 9.0
    for copied in (q, r):
        assert all(np.shares_memory(getattr(copied, key), copied.flat) for key in _VIEWS)
    assert np.array_equal(q.flat, p.flat) and np.array_equal(r.flat[:-1], p.flat[:-1])


def test_init_rejects_zero_width():
    with pytest.raises(ValueError):
        init_params(5, 0, 3, seed=0)


@pytest.mark.parametrize("settings, message", [
    ({"epochs": 0}, "epochs must be >= 1, got 0"),
    ({"learning_rate": 0.0}, "learning_rate must be positive, got 0.0"),
    ({"learning_rate": -0.01}, "learning_rate must be positive, got -0.01"),
    ({"weight_decay": -1e-4}, "weight_decay must be >= 0, got -0.0001"),
    ({"learning_rate": float("nan")}, "learning_rate must be positive, got nan"),
    ({"weight_decay": float("nan")}, "weight_decay must be >= 0, got nan"),
    ({"learning_rate": float("inf")}, "learning_rate must be positive, got inf"),
    ({"weight_decay": float("inf")}, "weight_decay must be >= 0, got inf"),
])
def test_train_config_rejects_out_of_range_settings(settings, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**settings)


def test_init_seeds_differ():
    a = init_params(5, 8, 3, seed=1)
    b = init_params(5, 8, 3, seed=2)
    assert not np.array_equal(a.flat, b.flat)


def test_softmax_examples():
    assert softmax_rows([[0.0, 0.0]])[0].tolist() == [0.5, 0.5]
    big = softmax_rows([[1000.0, 0.0]])[0]
    assert np.all(np.isfinite(big))
    assert big[0] == pytest.approx(1.0)
    ln2 = softmax_rows([[np.log(2.0), 0.0]])[0]
    assert ln2 == pytest.approx([2 / 3, 1 / 3])


def test_softmax_rows_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        softmax_rows(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("shape", [(3,), (2, 0)])
def test_softmax_rows_rejects_logits_without_columns(shape):
    with pytest.raises(ValueError, match="at least one column"):
        softmax_rows(np.zeros(shape))


def test_soft_rows_sum_to_one():
    rng = np.random.default_rng(3)
    soft = softmax_rows(rng.standard_normal((50, 6)) * 10)
    assert np.max(np.abs(soft.sum(axis=1) - 1.0)) <= 1e-9


def test_forward_no_edges_equals_per_row_mlp():
    g = _graph([], n=6, d=4)
    params = init_params(4, 5, 3, seed=1)
    out = forward(params, k_hop_adjacency(g, 1), g.features)
    act1 = np.maximum(g.features @ params.w1, 0.0)
    logits = (act1 @ params.w2) @ params.w_main
    assert np.allclose(out, logits, atol=1e-12)


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(5)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 10, size=(20, 2))]
    g = _graph(edges, n=10, d=4, seed=5)
    params = init_params(4, 6, 3, seed=2)
    out = forward(params, k_hop_adjacency(g, 1), g.features)

    perm = rng.permutation(10)
    edges_p = [(int(perm[a]), int(perm[b])) for a, b in edges]
    g_p = build_graph(edges_p, g.features[np.argsort(perm)])
    out_p = forward(params, k_hop_adjacency(g_p, 1), g_p.features)
    assert np.allclose(out, out_p[perm], atol=1e-10)


def _dense_norm(binary):
    with_loops = binary + np.eye(binary.shape[0])
    d = with_loops.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * with_loops * inv[None, :]


def test_forward_two_hop_path_matches_dense_oracle():
    g = _graph([(0, 1), (1, 2), (2, 3)], n=4, d=3, seed=7)
    params = init_params(3, 4, 2, seed=3)

    b1 = np.zeros((4, 4))
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        b1[a, b] = b1[b, a] = 1.0
    b2 = np.zeros((4, 4))
    for a, b in [(0, 2), (1, 3)]:
        b2[a, b] = b2[b, a] = 1.0

    for k, dense in ((1, _dense_norm(b1)), (2, _dense_norm(b2))):
        act1 = np.maximum(dense @ g.features @ params.w1, 0.0)
        expected = ((dense @ act1) @ params.w2) @ params.w_main
        out = forward(params, k_hop_adjacency(g, k), g.features)
        assert np.allclose(out, expected, atol=1e-10)

    one = forward(params, k_hop_adjacency(g, 1), g.features)
    two = forward(params, k_hop_adjacency(g, 2), g.features)
    assert not np.allclose(one, two)


def test_forward_rejects_node_count_mismatch():
    g = _graph([(0, 1)], n=2, d=3)
    params = init_params(3, 4, 2, seed=0)
    with pytest.raises(ValueError):
        forward(params, k_hop_adjacency(g, 1), np.zeros((5, 3)))


def test_forward_rejects_feature_dim_mismatch():
    g = _graph([(0, 1)], n=2, d=3)
    with pytest.raises(ValueError, match="feature dim 3 does not match model input dim 5"):
        forward(init_params(5, 4, 2, seed=0), k_hop_adjacency(g, 1), g.features)


def test_predict_ignores_pseudo_head():
    g = _graph([(0, 1), (1, 2)], n=3, d=3)
    params = init_params(3, 4, 2, seed=9)
    base = predict(params, k_hop_adjacency(g, 1), g.features)
    params.w_pseudo[:] = np.random.default_rng(0).standard_normal(params.w_pseudo.shape) * 100
    assert np.array_equal(base, predict(params, k_hop_adjacency(g, 1), g.features))


def test_predict_tie_breaks_to_lowest_class():
    g = _graph([(0, 1)], n=2, d=3)
    params = init_params(3, 4, 3, seed=0)
    params.w_main[:] = 0.0  # all logits tie at zero
    assert predict(params, k_hop_adjacency(g, 1), g.features).tolist() == [0, 0]


def test_lambda_zero_matches_single_head_gradients():
    g = _two_blob_graph()
    view = k_hop_adjacency(g, 1)
    params = init_params(3, 5, 4, seed=4)
    main_idx = np.arange(0, 20, 2)
    pseudo_idx = np.arange(1, 20, 2)
    _, dual, _ = dual_loss_and_grads(params, TrainingRows(view, g.features, 5, 4, main_idx, g.labels[main_idx],
                                                          pseudo_idx, g.labels[pseudo_idx]), 0.0, 5e-4)
    _, single, _ = dual_loss_and_grads(params, TrainingRows(view, g.features, 5, 4, main_idx, g.labels[main_idx],
                                                            EMPTY[0], EMPTY[1]), 0.0, 5e-4)
    for key in ("w1", "w2", "w_main"):
        assert np.allclose(getattr(dual, key), getattr(single, key), atol=1e-15)
    assert np.all(dual.w_pseudo == 0.0)


def test_empty_leftover_reduces_to_main_term():
    g = _two_blob_graph()
    view = k_hop_adjacency(g, 1)
    params = init_params(3, 5, 4, seed=4)
    idx = np.arange(10)
    tr = TrainingRows(view, g.features, 5, 4, idx, g.labels[idx], EMPTY[0], EMPTY[1])
    loss, _, zm = dual_loss_and_grads(params, tr, 0.09, 0.0)
    rows = zm[tr.main_pos] - zm[tr.main_pos].max(axis=1, keepdims=True)
    ce = np.mean(np.log(np.exp(rows).sum(axis=1)) - rows[np.arange(10), g.labels[idx]])
    assert loss == pytest.approx(ce, abs=1e-12)


def test_training_loss_decreases_on_two_blob_graph():
    g = _two_blob_graph()
    view = k_hop_adjacency(g, 1)
    idx = np.arange(20)

    def loss_after(epochs):
        trained = init_params(3, 8, 4, 6)  # epochs = 0: the initial parameters
        if epochs:
            cfg = TrainConfig(epochs=epochs, learning_rate=0.01, weight_decay=0.0)
            trained = train_dual(trained, g, view, (idx, g.labels), EMPTY, EMPTY, cfg, 0.09)
        val, _, _ = dual_loss_and_grads(trained, TrainingRows(view, g.features, 8, 4, idx, g.labels,
                                                              EMPTY[0], EMPTY[1]), 0.0, 0.0)
        return val

    losses = [loss_after(e) for e in range(11)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_rejects_empty_clean_set():
    g = _two_blob_graph()
    with pytest.raises(ValueError, match="non-empty"):
        train_dual(init_params(3, 4, 4, 0), g, k_hop_adjacency(g, 1), EMPTY, EMPTY, EMPTY,
                   TrainConfig(epochs=1), 0.09)


@pytest.mark.parametrize("position, name", [(0, "clean set"), (1, "consistent pseudo set"),
                                            (2, "leftover set"), (3, "validation set")])
def test_train_rejects_nodes_and_labels_of_different_lengths(position, name):
    g = _two_blob_graph()
    sets = [(np.array([0, 1]), g.labels[:2]), EMPTY, EMPTY, None]
    sets[position] = (np.array([2, 3, 4]), g.labels[2:4])
    with pytest.raises(ValueError, match=f"{name}: nodes and labels must be co-indexed"):
        train_dual(init_params(3, 4, 4, 0), g, k_hop_adjacency(g, 1), *sets[:3],
                   TrainConfig(epochs=1), 0.09, validation=sets[3])


def test_train_rejects_a_non_finite_loss():
    # a finite weight decay whose penalty overflows: the loss is inf at the first epoch
    g = _two_blob_graph()
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="non-finite training loss at epoch 0"):
        train_dual(init_params(3, 4, 4, 0), g, k_hop_adjacency(g, 1), (np.array([0, 1]), g.labels[:2]),
                   EMPTY, EMPTY, TrainConfig(epochs=1, weight_decay=1e308), 0.09)


def test_train_rejects_label_out_of_range():
    g = _two_blob_graph()
    with pytest.raises(ValueError, match="outside"):
        train_dual(init_params(3, 4, 4, 0), g, k_hop_adjacency(g, 1),
                   (np.array([0]), np.array([9])), EMPTY, EMPTY, TrainConfig(epochs=1), 0.09)


@pytest.mark.parametrize("bad", [-1, 20])
@pytest.mark.parametrize("position, name", [(0, "clean set"), (1, "consistent pseudo set"),
                                            (2, "leftover set"), (3, "validation set")])
def test_train_rejects_node_out_of_range(position, name, bad):
    g = _two_blob_graph()  # n = 20
    sets = [(np.array([0]), g.labels[:1]), EMPTY, EMPTY, EMPTY]
    sets[position] = (np.array([5, bad]), np.array([1, 1]))
    with pytest.raises(ValueError, match=f"{name} node {bad} outside"):
        train_dual(init_params(3, 4, 4, 0), g, k_hop_adjacency(g, 1), *sets[:3],
                   TrainConfig(epochs=1), 0.09, validation=sets[3])


def test_train_empty_validation_is_no_validation():
    g = _two_blob_graph()
    args = (g, k_hop_adjacency(g, 1), (np.arange(0, 20, 2), g.labels[::2]), EMPTY, EMPTY,
            TrainConfig(epochs=20), 0.09)
    none = train_dual(init_params(3, 4, 4, 0), *args, validation=None)
    empty = train_dual(init_params(3, 4, 4, 0), *args, validation=EMPTY)
    assert np.array_equal(none.flat, empty.flat)


def test_train_rejects_overlapping_sets():
    g = _two_blob_graph()
    pair = (np.array([0, 1]), g.labels[:2])
    with pytest.raises(ValueError, match="disjoint"):
        train_dual(init_params(3, 4, 4, 0), g, k_hop_adjacency(g, 1), pair, pair, EMPTY,
                   TrainConfig(epochs=1), 0.09)


def _reference_single_head(graph, view, nodes, y, cfg, hidden, seed):
    """Independent plain supervised trainer; must match train_dual bit for bit."""
    init = init_params(graph.d, hidden, graph.c, seed)
    w = {"w1": init.w1.copy(), "w2": init.w2.copy(), "w_main": init.w_main.copy()}
    m = {k: np.zeros_like(v) for k, v in w.items()}
    v = {k: np.zeros_like(val) for k, val in w.items()}
    a_hat = view.norm
    x = graph.features
    b1, b2, eps = 0.9, 0.999, 1e-8
    for epoch in range(cfg.epochs):
        # the linear second layer folded into the head: logits Â·(act1·(W2·W_main))
        x1 = a_hat @ x
        pre1 = x1 @ w["w1"]
        act1 = np.maximum(pre1, 0.0)
        v_head = w["w2"] @ w["w_main"]
        zm = a_hat @ (act1 @ v_head)
        rows = softmax_rows(zm[nodes])
        rows[np.arange(len(y)), y] -= 1.0
        dzm = np.zeros_like(zm)
        dzm[nodes] = rows / len(y)
        grads = {}
        d_p = a_hat @ dzm  # Â is symmetric: the backward pass through Â·dZ
        d_v = act1.T @ d_p
        grads["w_main"] = w["w2"].T @ d_v + cfg.weight_decay * w["w_main"]
        grads["w2"] = d_v @ w["w_main"].T + cfg.weight_decay * w["w2"]
        dact1 = d_p @ v_head.T
        grads["w1"] = x1.T @ (dact1 * (pre1 > 0)) + cfg.weight_decay * w["w1"]
        t = epoch + 1
        for key, g in grads.items():
            m[key] = b1 * m[key] + (1 - b1) * g
            v[key] = b2 * v[key] + (1 - b2) * g * g
            w[key] -= cfg.learning_rate * (m[key] / (1 - b1**t)) / (np.sqrt(v[key] / (1 - b2**t)) + eps)
    return w


def test_dual_with_zero_lambda_bit_identical_to_single_head():
    g = _two_blob_graph(seed=2)
    view = k_hop_adjacency(g, 1)
    nodes = np.arange(0, 20, 2)
    cfg = TrainConfig(epochs=40, learning_rate=0.01, weight_decay=5e-4)
    trained = train_dual(init_params(3, 6, 4, 11), g, view, (nodes, g.labels[nodes]),
                         EMPTY, EMPTY, cfg, lambda_dual=0.0)
    ref = _reference_single_head(g, view, nodes, g.labels[nodes], cfg, hidden=6, seed=11)
    assert np.array_equal(trained.w1, ref["w1"])
    assert np.array_equal(trained.w2, ref["w2"])
    assert np.array_equal(trained.w_main, ref["w_main"])


def test_best_epoch_selection_uses_validation():
    g = _two_blob_graph(seed=3)
    view = k_hop_adjacency(g, 1)
    nodes = np.arange(0, 20, 2)
    val = (np.arange(1, 20, 4), g.labels[1:20:4])
    cfg = TrainConfig(epochs=60, learning_rate=0.02, weight_decay=0.0)
    best = train_dual(init_params(3, 6, 4, 1), g, view, (nodes, g.labels[nodes]), EMPTY, EMPTY,
                      cfg, 0.09, validation=val)
    preds = predict(best, view, g.features)
    acc_best = np.mean(preds[val[0]] == val[1])
    final = train_dual(init_params(3, 6, 4, 1), g, view, (nodes, g.labels[nodes]), EMPTY, EMPTY,
                       cfg, 0.09)
    acc_final = np.mean(predict(final, view, g.features)[val[0]] == val[1])
    assert acc_best >= acc_final


def _reference_dual_loss_and_grads(params, view, x, main_idx, main_y, left_idx, left_y, lam, wd):
    """Independent full-graph loss, gradients and main logits: a dense Â, every row aggregated."""
    a_hat = view.norm.toarray()
    x1 = a_hat @ x
    pre1 = x1 @ params.w1
    x2 = a_hat @ np.maximum(pre1, 0.0)
    h = x2 @ params.w2
    zm, zp = h @ params.w_main, h @ params.w_pseudo

    def ce(z, idx, y):
        if len(idx) == 0:
            return 0.0, np.zeros_like(z)
        sm = softmax_rows(z[idx])
        loss = -np.mean(np.log(sm[np.arange(len(y)), y]))
        sm[np.arange(len(y)), y] -= 1.0
        dz = np.zeros_like(z)
        dz[idx] = sm / len(y)
        return loss, dz

    loss_m, dzm = ce(zm, main_idx, main_y)
    loss_p, dzp = ce(zp, left_idx, left_y)
    dzp = lam * dzp
    dh = dzm @ params.w_main.T + dzp @ params.w_pseudo.T
    dpre1 = (a_hat.T @ (dh @ params.w2.T)) * (pre1 > 0)
    grads = {"w1": x1.T @ dpre1 + wd * params.w1, "w2": x2.T @ dh + wd * params.w2,
             "w_main": h.T @ dzm + wd * params.w_main, "w_pseudo": h.T @ dzp}
    loss = loss_m + lam * loss_p + 0.5 * wd * sum(np.sum(getattr(params, k) ** 2)
                                                  for k in ("w1", "w2", "w_main"))
    return loss, grads, zm


@st.composite
def _training_problems(draw):
    n = draw(st.integers(3, 12))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    d, hidden, c = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(2, 4))
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    n_main = draw(st.integers(1, n))
    n_left = draw(st.integers(0, n - n_main))
    n_val = draw(st.integers(0, n - n_main - n_left))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = build_graph(edges, rng.standard_normal((n, d)))
    y = rng.integers(0, c, size=n)
    main = order[:n_main]
    left = order[n_main:n_main + n_left]
    val = order[n_main + n_left:n_main + n_left + n_val]
    return g, init_params(d, hidden, c, int(rng.integers(1000))), y, main, left, val


@settings(max_examples=80, deadline=None)
@given(_training_problems(), st.sampled_from([0.0, 0.09, 1.0]))
def test_row_restricted_loss_matches_full_graph_reference(problem, lam):
    g, params, y, main, left, val = problem
    view = k_hop_adjacency(g, 1)
    tr = TrainingRows(view, g.features, *params.w_main.shape, main, y[main], left, y[left], val)
    loss, grads, zm = dual_loss_and_grads(params, tr, lam, 5e-4)
    ref_loss, ref_grads, ref_zm = _reference_dual_loss_and_grads(
        params, view, g.features, main, y[main], left, y[left], lam, 5e-4)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for key, ref in ref_grads.items():
        assert np.max(np.abs(getattr(grads, key) - ref)) <= 1e-12 * np.max(np.abs(ref))
    for pos, idx in ((tr.main_pos, main), (tr.left_pos, left), (tr.val_pos, val)):
        assert np.max(np.abs(zm[pos] - ref_zm[idx]), initial=0.0) <= 1e-12 * np.max(np.abs(ref_zm))


def _plain_cross_entropy_rows(logits_rows, y):
    shifted = logits_rows - logits_rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1)
    losses = np.log(z) - shifted[np.arange(len(y)), y]
    grad_rows = e / z[:, None]
    grad_rows[np.arange(len(y)), y] -= 1.0
    return float(losses.mean()), grad_rows / len(y)


def _plain_dual_loss_and_grads(params, tr, main_y, left_y, lam, wd):
    """dual_loss_and_grads with no work arrays or stored transposes, reading only
    x1, a_rows and the positions of ``tr``: the bits the fast version must keep."""
    pre1 = tr.x1 @ params.w1
    act1 = np.maximum(pre1, 0.0)
    c = params.w_main.shape[1]
    pseudo_on = len(tr.left_pos) > 0
    heads = np.hstack([params.w_main, params.w_pseudo]) if pseudo_on else params.w_main
    v = params.w2 @ heads
    z = tr.a_rows @ (act1 @ v)
    zm = z[:, :c]
    loss, d_rows = _plain_cross_entropy_rows(zm[tr.main_pos], main_y)
    dz = np.zeros_like(z)
    dz[tr.main_pos, :c] = d_rows
    if pseudo_on:
        loss_pseudo, d_rows_p = _plain_cross_entropy_rows(z[tr.left_pos, c:], left_y)
        loss += lam * loss_pseudo
        dz[tr.left_pos, c:] = lam * d_rows_p
    s = tr.a_rows.T @ dz
    t = act1.T @ s
    d_heads = params.w2.T @ t
    dact1 = (s @ v.T) * (pre1 > 0)
    loss += 0.5 * wd * (np.sum(params.w1**2) + np.sum(params.w2**2) + np.sum(params.w_main**2))
    grads = {"w1": tr.x1.T @ dact1 + wd * params.w1, "w2": t @ heads.T + wd * params.w2,
             "w_main": d_heads[:, :c] + wd * params.w_main,
             "w_pseudo": d_heads[:, c:] if pseudo_on else np.zeros_like(params.w_pseudo)}
    return loss, grads, zm


@settings(max_examples=80, deadline=None)
@given(_training_problems(), st.sampled_from([0.0, 0.09, 1.0]))
def test_loss_and_grads_bit_identical_to_plain_version(problem, lam):
    g, params, y, main, left, val = problem
    tr = TrainingRows(k_hop_adjacency(g, 1), g.features, *params.w_main.shape, main, y[main], left, y[left], val)
    for _ in range(2):  # the second call reuses the work arrays of the first
        with _one_blas_thread():  # as train_dual runs
            loss, grads, zm = dual_loss_and_grads(params, tr, lam, 5e-4)
            want_loss, want_grads, want_zm = _plain_dual_loss_and_grads(params, tr, y[main], y[left], lam, 5e-4)
        assert loss == want_loss
        assert np.array_equal(zm, want_zm)
        for key, want in want_grads.items():
            assert np.array_equal(getattr(grads, key), want), key


def _plain_train_dual(params, rows, main_y, left_y, val_y, cfg, lam):
    """train_dual's loop with one Adam update per matrix and the plain loss."""
    cur = params.copy()
    state_m = {k: np.zeros_like(getattr(cur, k)) for k in _VIEWS}
    state_v = {k: np.zeros_like(getattr(cur, k)) for k in _VIEWS}
    best = None
    for epoch in range(cfg.epochs + 1):
        _, grads, zm = _plain_dual_loss_and_grads(cur, rows, main_y, left_y, lam, cfg.weight_decay)
        acc = float(np.mean(np.argmax(zm[rows.val_pos], axis=1) == val_y))
        if best is None or acc >= best[0]:
            best = (acc, cur.copy())
        if epoch == cfg.epochs:
            break
        t = epoch + 1
        for key, g in grads.items():
            state_m[key] = 0.9 * state_m[key] + (1 - 0.9) * g
            state_v[key] = 0.999 * state_v[key] + (1 - 0.999) * g * g
            m_hat = state_m[key] / (1 - 0.9**t)
            v_hat = state_v[key] / (1 - 0.999**t)
            view = getattr(cur, key)
            view -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return best[1]


def test_train_dual_bit_identical_to_plain_loop():
    g, (main, _, left), val = _large_training_problem()
    view = k_hop_adjacency(g, 1)
    cfg = TrainConfig(epochs=20, learning_rate=0.01)
    init = init_params(g.d, 32, g.c, 0)
    trained = train_dual(init, g, view, main, EMPTY, left, cfg, 0.09, validation=val)
    rows = TrainingRows(view, g.features, 32, g.c, *main, *left, val[0])
    with _one_blas_thread():  # as train_dual runs
        want = _plain_train_dual(init, rows, main[1], left[1], val[1], cfg, 0.09)
    assert np.array_equal(trained.flat, want.flat)


@pytest.mark.parametrize("lam", [0.0, 0.09, 1.0])
def test_gradient_check_tiny_instances(lam):
    g = _graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], n=5, d=3, seed=8,
               labels=[0, 1, 0, 1, 1])
    params = init_params(3, 4, 2, seed=5)
    err = gradient_check(params, g, TrainConfig(weight_decay=5e-4), lambda_dual=lam)
    assert err <= 1e-4


def test_gradient_check_rejects_unlabelled_graph():
    g = _graph([(0, 1), (1, 2)], n=3)
    with pytest.raises(ValueError, match="labelled"):
        gradient_check(init_params(3, 4, 2, seed=0), g, TrainConfig(), lambda_dual=0.09)


def test_train_rejects_negative_lambda_dual():
    g = _two_blob_graph()
    for bad in (-0.1, float("nan")):  # NaN too: it fails every comparison
        with pytest.raises(ValueError, match=f"lambda_dual must be >= 0, got {bad}"):
            train_dual(init_params(3, 4, 4, 0), g, k_hop_adjacency(g, 1), (np.array([0]), g.labels[:1]),
                       EMPTY, EMPTY, TrainConfig(epochs=1), bad)


def test_gradient_finite_at_zero_params():
    g = _graph([(0, 1), (1, 2)], n=3, d=3, seed=1, labels=[0, 1, 0])
    params = init_params(3, 4, 2, seed=0)
    params.flat[:] = 0.0
    tr = TrainingRows(k_hop_adjacency(g, 1), g.features, 4, 2, np.array([0, 2]), np.array([0, 0]),
                      np.array([1]), np.array([1]))
    _, grads, _ = dual_loss_and_grads(params, tr, 0.09, 5e-4)
    assert np.all(np.isfinite(grads.flat))


@pytest.mark.parametrize("hidden, c", [(5, 2), (6, 4), (5, 8)])
@pytest.mark.parametrize("with_leftover", [False, True])
def test_rows_reject_a_model_of_another_shape(hidden, c, with_leftover):
    g = _two_blob_graph()
    idx = np.arange(0, 20, 2)
    left = (idx + 1, g.labels[idx + 1]) if with_leftover else EMPTY
    tr = TrainingRows(k_hop_adjacency(g, 1), g.features, 5, 4, idx, g.labels[idx], *left)
    message = f"model of hidden {hidden}, c {c} does not match training rows built for hidden 5, c 4"
    with pytest.raises(ValueError, match=re.escape(message)):
        dual_loss_and_grads(init_params(3, hidden, c, seed=0), tr, 0.09, 5e-4)


def _two_exp_cross_entropy(logits_rows, y):
    # the cross entropy as it was before the fused version, which must match it bit for bit
    shifted = logits_rows - logits_rows.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    losses = log_z - shifted[np.arange(len(y)), y]
    grad_rows = softmax_rows(logits_rows)
    grad_rows[np.arange(len(y)), y] -= 1.0
    return float(losses.mean()), grad_rows / len(y)


@st.composite
def _logit_rows(draw):
    r, c = draw(st.integers(1, 12)), draw(st.integers(1, 12))  # c >= 8: pairwise row sums
    finite = st.floats(-1e300, 1e300) | st.floats(-50, 50)
    elements = finite | st.sampled_from([np.nan, np.inf, -np.inf]) if draw(st.booleans()) else finite
    logits = draw(arrays(np.float64, (r, c), elements=elements))
    return logits, np.array(draw(st.lists(st.integers(0, c - 1), min_size=r, max_size=r)))


@settings(max_examples=300, deadline=None)
@given(_logit_rows())
def test_fused_cross_entropy_equals_two_exp_version(problem):
    logits, y = problem
    label_at = np.arange(len(y)) * logits.shape[1] + y  # flat positions of the labels
    with np.errstate(all="ignore"):
        try:
            want = _two_exp_cross_entropy(logits, y)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                _cross_entropy_rows(logits, label_at, [len(y)])
            return
    (loss,), grad = _cross_entropy_rows(logits, label_at, [len(y)])
    assert loss == want[0]
    assert np.array_equal(grad, want[1])


def _max_axis_softmax(logits):
    # softmax_rows as it was before it shared the cross entropy's column-loop row max
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain non-finite entries")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(_logit_rows())
def test_softmax_rows_equals_max_axis_version(problem):
    logits, _ = problem
    with np.errstate(all="ignore"):
        try:
            want = _max_axis_softmax(logits)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                softmax_rows(logits)
            return
        assert np.array_equal(softmax_rows(logits), want)


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count; the caller's count is put back after."""
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy has no bundled OpenBLAS, so training does not pin its threads")
    get, set_ = calls
    before = get()
    yield get, set_
    set_(before)


def _set_two_threads(get, set_):
    set_(2)
    if get() != 2:
        pytest.skip("OpenBLAS runs at most one thread on this host")


def _large_training_problem():
    # n >= 2k: from here on, two OpenBLAS threads split the sums of x.T @ y differently than one
    g = generate_graph(SynthConfig(n=2000, seed=3))
    order = np.random.default_rng(3).permutation(g.n)
    main, left, val = order[:40], order[40:1240], order[1240:1340]
    return g, ((main, g.labels[main]), EMPTY, (left, g.labels[left])), (val, g.labels[val])


def test_train_dual_bits_do_not_depend_on_caller_blas_threads(blas_threads):
    get, set_ = blas_threads
    g, train_sets, val = _large_training_problem()
    view = k_hop_adjacency(g, 1)
    _set_two_threads(get, set_)
    trained = []
    for threads in (2, 1):
        set_(threads)
        trained.append(train_dual(init_params(g.d, 32, g.c, 0), g, view, *train_sets,
                                  TrainConfig(epochs=5), 0.09, validation=val))
    assert np.array_equal(trained[0].flat, trained[1].flat)


def test_blas_thread_count_is_restored(blas_threads):
    get, set_ = blas_threads
    _set_two_threads(get, set_)
    g, train_sets, val = _large_training_problem()
    view = k_hop_adjacency(g, 1)
    train_dual(init_params(g.d, 8, g.c, 0), g, view, *train_sets, TrainConfig(epochs=2), 0.09)
    assert get() == 2
    with pytest.raises(RuntimeError, match="non-finite"), np.errstate(all="ignore"):
        train_dual(init_params(g.d, 8, g.c, 0), g, view, *train_sets,
                   TrainConfig(epochs=50, learning_rate=1e200), 0.09)
    assert get() == 2
    partition = make_partition(g.n, train_sets[0][0], val[0])
    run_self_training(g, partition, RunConfig(stages=1, train=TrainConfig(epochs=2)))
    assert get() == 2


def _traced_peak(call):
    """Traced bytes at the peak of ``call()`` above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("what, ratio", [("forward", 1.75), ("no leftover", 2.5), ("half leftover", 3.5)])
def test_traced_peak_in_units_of_the_hidden_activation(what, ratio):
    # forward's ReLU runs in place, and training writes d act1 into act1's buffer, so neither
    # holds a second n x hidden float64 array
    g = generate_graph(SynthConfig(n=2000, seed=7))
    view = k_hop_adjacency(g, 1)
    params = init_params(g.d, 32, g.c, 0)
    order = np.random.default_rng(0).permutation(g.n)
    main, half = order[:100], order[100:100 + g.n // 2]
    left = (half, g.labels[half]) if what == "half leftover" else EMPTY
    if what == "forward":
        peak = _traced_peak(lambda: forward(params, view, g.features))
    else:
        peak = _traced_peak(lambda: train_dual(params, g, view, (main, g.labels[main]), EMPTY, left,
                                               TrainConfig(epochs=3), 0.09))
    assert peak <= ratio * g.n * 32 * 8
