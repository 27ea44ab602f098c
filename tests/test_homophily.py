import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcgst.graph import build_graph, true_homophily_profile
from hcgst.homophily import (bin_distribution, estimate_homophily_profile,
                             estimate_node_homophily, target_distribution)


def _graph(edges, n, labels=None, d=2):
    return build_graph(edges, np.zeros((n, d)), labels)


def _random_graph(seed, n=30, c=3):
    rng = np.random.default_rng(seed)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(3 * n, 2))]
    labels = rng.integers(0, c, size=n)
    return build_graph(edges, rng.standard_normal((n, 4)), labels)


def _row(adj, v):
    return adj.indices[adj.indptr[v]:adj.indptr[v + 1]]


def _one_hot(labels, c):
    out = np.zeros((len(labels), c))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def test_estimate_identical_soft_labels():
    g = _graph([(0, 1), (0, 2)], n=3)
    soft = np.tile([0.2, 0.8], (3, 1))
    assert estimate_node_homophily(soft, g, 0) == pytest.approx(1.0)


def test_estimate_orthogonal_one_hots():
    g = _graph([(0, 1)], n=2)
    soft = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert estimate_node_homophily(soft, g, 0) == pytest.approx(0.0)


def test_estimate_mixed_neighbors():
    # cosine((1,0),(1,0)) = 1 and cosine((1,0),(0,1)) = 0, mean 0.5
    g = _graph([(0, 1), (0, 2)], n=3)
    soft = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert estimate_node_homophily(soft, g, 0) == pytest.approx(0.5)


def test_estimate_isolated_node_is_zero():
    g = _graph([(0, 1)], n=3)
    soft = np.full((3, 2), 0.5)
    assert estimate_node_homophily(soft, g, 2) == 0.0


def test_estimate_rejects_zero_norm_row():
    g = _graph([(0, 1)], n=2)
    soft = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="node 1"):
        estimate_node_homophily(soft, g, 0)


@pytest.mark.parametrize("bad", [-1, 3])
def test_estimate_rejects_override_node_outside_the_graph(bad):
    g = _graph([(0, 1), (1, 2)], n=3)
    with pytest.raises(ValueError, match=f"override node {bad} outside"):
        estimate_homophily_profile(np.full((3, 2), 0.5), g, {bad: 0})


@pytest.mark.parametrize("seed", range(5))
def test_one_hot_estimate_matches_definition(seed):
    g = _random_graph(seed)
    soft = _one_hot(g.labels, g.c)
    truth = true_homophily_profile(g)
    est = estimate_homophily_profile(soft, g)
    assert np.max(np.abs(est - truth)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_estimator_monotone_in_agreeing_neighbor(seed):
    # copying the node's own soft label onto one neighbor never lowers the estimate
    rng = np.random.default_rng(seed)
    g = _random_graph(seed)
    soft = rng.random((g.n, g.c)) + 1e-3
    node = next(v for v in range(g.n) if _row(g.adj, v).size > 0)
    before = estimate_node_homophily(soft, g, node)
    bumped = soft.copy()
    bumped[_row(g.adj, node)[0]] = soft[node]
    after = estimate_node_homophily(bumped, g, node)
    assert after >= before - 1e-12


def test_bin_examples():
    assert bin_distribution([0.0, 0.05], 10).tolist() == [2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert bin_distribution([1.0], 10).tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert bin_distribution([0.05, 0.15, 0.15, 0.95], 10).tolist() == \
        [1, 2, 0, 0, 0, 0, 0, 0, 0, 1]


def test_bin_mass_conservation():
    rng = np.random.default_rng(9)
    for n_bins in (1, 3, 10):
        ratios = rng.random(200)
        assert bin_distribution(ratios, n_bins).sum() == 200


def test_bin_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        bin_distribution([0.5, 1.2], 10)


def test_estimate_distribution_empty_set():
    dist = bin_distribution([], n_bins=4)
    assert dist.tolist() == [0, 0, 0, 0]


def test_estimate_distribution_one_hot_equals_true_binning():
    g = _random_graph(17)
    soft = _one_hot(g.labels, g.c)
    dist = bin_distribution(estimate_homophily_profile(soft, g)[np.arange(g.n)], 10)
    expected = bin_distribution(true_homophily_profile(g), 10)
    assert dist.tolist() == expected.tolist()


def test_estimate_distribution_path_fixture():
    # path a-a-b-b with one-hot labels: per-node ratios 1, 0.5, 0.5, 1;
    # with N=2 the closed upper bin [0.5, 1] holds all four nodes
    g = _graph([(0, 1), (1, 2), (2, 3)], n=4, labels=[0, 0, 1, 1])
    soft = _one_hot(g.labels, 2)
    est = estimate_homophily_profile(soft, g)
    assert est.tolist() == [1.0, 0.5, 0.5, 1.0]
    dist = bin_distribution(est[np.arange(4)], 2)
    assert dist.tolist() == [0, 4]


@st.composite
def _estimation_cases(draw):
    n = draw(st.integers(0, 40))
    c = draw(st.integers(1, 8))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=4 * n)) if n else []
    if n and draw(st.booleans()):
        # a star whose centre's degree exceeds numpy's 128-element pairwise block
        pairs += [(0, n + i) for i in range(draw(st.integers(129, 160)))]
        n += 160
    seed = draw(st.integers(0, 2**32 - 1))
    override = {}
    if n:
        pinned = draw(st.lists(st.integers(0, n - 1), max_size=10, unique=True))
        override = {v: draw(st.integers(0, c - 1)) for v in pinned}
    return n, c, pairs, seed, override


@settings(max_examples=150, deadline=None)
@given(_estimation_cases())
def test_profile_equals_per_node_estimate_exactly(case):
    n, c, pairs, seed, override = case
    rng = np.random.default_rng(seed)
    g = build_graph(pairs, np.zeros((n, 1)))
    soft = rng.random((n, c)) + 1e-3
    est = estimate_homophily_profile(soft, g, label_override=override)
    pinned = soft.copy()
    for v, y in override.items():
        pinned[v] = 0.0
        pinned[v, y] = 1.0
    assert est.dtype == np.float64 and est.shape == (n,)
    for v in range(n):
        assert est[v] == estimate_node_homophily(pinned, g, v)


def test_label_override_pins_rows_one_hot():
    g = _graph([(0, 1)], n=2)
    soft = np.array([[0.6, 0.4], [0.6, 0.4]])
    est = estimate_homophily_profile(soft, g, label_override={0: 0, 1: 1})
    assert est.tolist() == [0.0, 0.0]


def test_target_uniform_global():
    global_dist = bin_distribution(np.linspace(0, 0.99, 5) / 5 + np.arange(5) / 5, 5)
    assert global_dist.tolist() == [1, 1, 1, 1, 1]
    tgt = target_distribution(global_dist, np.zeros(5), k=10)
    assert tgt.tolist() == [2, 2, 2, 2, 2]


def test_target_zero_when_local_already_matches():
    # bin 0 already holds fr_0 * (K + |local|) = 0.5 * 8 = 4 nodes
    global_dist = np.array([5.0, 5.0])
    tgt = target_distribution(global_dist, np.array([4.0, 0.0]), k=4)
    assert tgt[0] == 0.0


def test_target_hand_fixture():
    global_dist = np.array([9.0, 1.0])
    tgt = target_distribution(global_dist, np.array([0.0, 5.0]), k=5)
    assert tgt.tolist() == [9.0, 0.0]


def test_target_rejects_zero_global():
    with pytest.raises(ValueError, match="zero total"):
        target_distribution(np.zeros(2), np.zeros(2), k=1)


@pytest.mark.parametrize("seed", range(5))
def test_target_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 20, size=6).astype(float) + 1
    local = rng.integers(0, 10, size=6).astype(float)
    prev = target_distribution(g, local, k=1)
    for k in range(2, 12):
        cur = target_distribution(g, local, k=k)
        assert np.all(cur >= prev)
        prev = cur
