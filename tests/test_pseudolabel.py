import numpy as np
import pytest

from hcgst.graph import build_graph, k_hop_adjacency
from hcgst.model import forward, init_params
from hcgst.pseudolabel import assign_pseudo_labels

ALL3 = [0, 1, 2]


def test_threshold_zero_keeps_one_hop_everywhere():
    z1 = np.arange(6.0).reshape(3, 2)
    h = -np.ones((3, 2))
    labels, routed = assign_pseudo_labels(z1, h, [0.0, 0.5, 1.0], 0.0, ALL3)
    assert labels.tolist() == np.argmax(z1, axis=1).tolist() == [1, 1, 1]
    assert not routed.any()


def test_threshold_above_one_routes_everything_multi_hop():
    z1 = np.zeros((3, 2))
    h = np.tile([0.0, 1.0], (3, 1))
    labels, routed = assign_pseudo_labels(z1, h, [0.0, 0.5, 1.0], 1.0 + 1e-9, ALL3)
    assert labels.tolist() == np.argmax(h, axis=1).tolist() == [1, 1, 1]
    assert routed.all()


def test_default_threshold_routes_by_estimate():
    z1 = np.array([[1.0, 0.0], [1.0, 0.0]])
    h = np.array([[0.0, 1.0], [0.0, 1.0]])
    labels, routed = assign_pseudo_labels(z1, h, [0.2, 0.8], 0.4, [0, 1])
    assert labels.tolist() == [1, 0]   # below threshold: multi-hop; at or above: one-hop
    assert routed.tolist() == [True, False]


def test_routing_partition_matches_predicate():
    rng = np.random.default_rng(0)
    hh = rng.random(30)
    z1 = rng.standard_normal((30, 4))
    h = rng.standard_normal((30, 4))
    nodes = rng.permutation(30)[:20]
    labels, routed = assign_pseudo_labels(z1, h, hh, 0.4, nodes)
    for pos, i in enumerate(nodes):
        source = h[i] if hh[i] < 0.4 else z1[i]
        assert labels[pos] == np.argmax(source)
    assert np.array_equal(routed, hh[nodes] < 0.4)


def test_mix_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        assign_pseudo_labels(np.zeros((3, 2)), np.zeros((2, 2)), [0.1, 0.2, 0.3], 0.4, [0])


def test_assign_rejects_homophily_of_another_length():
    with pytest.raises(ValueError, match="co-indexed with output rows"):
        assign_pseudo_labels(np.zeros((3, 2)), np.zeros((3, 2)), [0.1, 0.2], 0.4, [0])


def test_assign_highest_probability():
    labels, _ = assign_pseudo_labels(np.array([[0.1, 0.7, 0.2]]), np.zeros((1, 3)), [0.9], 0.4, [0])
    assert labels.tolist() == [1]


def test_assign_tie_takes_lowest_class():
    labels, _ = assign_pseudo_labels(np.array([[0.5, 0.5]]), np.zeros((1, 2)), [0.9], 0.4, [0])
    assert labels.tolist() == [0]


def test_assign_empty_set():
    labels, routed = assign_pseudo_labels(np.zeros((2, 2)), np.zeros((2, 2)), [0.5, 0.5], 0.4, [])
    assert labels.size == 0 and routed.size == 0


def test_assign_rejects_out_of_range_node():
    with pytest.raises(ValueError):
        assign_pseudo_labels(np.zeros((2, 2)), np.zeros((2, 2)), [0.5, 0.5], 0.4, [5])


def test_multi_hop_label_follows_h_when_argmax_flips():
    # find a seed where the 2-hop forward flips node 0's argmax on a 3-node path
    g = build_graph([(0, 1), (1, 2)], np.random.default_rng(0).standard_normal((3, 3)))
    v1, v2 = k_hop_adjacency(g, 1), k_hop_adjacency(g, 2)
    flip_seed = None
    for seed in range(50):
        params = init_params(3, 4, 2, seed)
        z1 = forward(params, v1, g.features)
        h = forward(params, v2, g.features)
        if np.argmax(z1[0]) != np.argmax(h[0]):
            flip_seed = seed
            break
    assert flip_seed is not None
    params = init_params(3, 4, 2, flip_seed)
    z1 = forward(params, v1, g.features)
    h = forward(params, v2, g.features)
    labels, _ = assign_pseudo_labels(z1, h, [0.1, 0.9, 0.9], 0.4, [0])  # node 0 routed to H
    label = labels[0]
    assert label == np.argmax(h[0])
    assert label != np.argmax(z1[0])
