import csv
import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hcgst.graph import (build_graph, graph_homophily, k_hop_adjacency, load_graph_dir,
                         make_partition, save_graph_dir, true_homophily_profile,
                         true_node_homophily)


def _graph(edges, n, labels=None, d=2):
    feats = np.zeros((n, d))
    return build_graph(edges, feats, labels)


def _row(adj, v):
    return adj.indices[adj.indptr[v]:adj.indptr[v + 1]]


def test_build_dedup_and_self_loop():
    g = _graph([(0, 1), (1, 0), (2, 2)], n=3)
    assert g.n_edges == 1
    assert g.edges.tolist() == [[0, 1]]


def test_build_empty_edge_list():
    g = _graph([], n=4)
    assert g.n == 4
    assert g.degrees.tolist() == [0, 0, 0, 0]


def test_build_rejects_non_finite_feature_with_row():
    features = np.zeros((4, 3))
    features[2, 1] = np.nan
    with pytest.raises(ValueError, match="feature row 2 "):
        build_graph([(0, 1)], features)


def test_build_triangle_degrees():
    g = _graph([(0, 1), (1, 2), (0, 2)], n=3)
    assert g.degrees.tolist() == [2, 2, 2]


def _reference_neighbor_lists(n, edges):
    # the per-edge append loop the vectorised build replaced
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return [np.array(sorted(nb), dtype=np.int64) for nb in adj]


def _reference_edges(pairs):
    # the row-sort dedupe the one-key sort replaced
    p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    p = p[p[:, 0] != p[:, 1]]
    lo, hi = np.minimum(p[:, 0], p[:, 1]), np.maximum(p[:, 0], p[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0) if p.size else np.empty((0, 2), dtype=np.int64)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    # duplicates, reversed pairs and self-loops all occur; high ids stay isolated
    return n, draw(st.lists(st.tuples(node, node), max_size=40))


@settings(max_examples=200, deadline=None)
@given(_edge_lists())
def test_neighbor_lists_match_append_loop(case):
    n, pairs = case
    g = _graph(pairs, n=n)
    want_edges = _reference_edges(pairs)
    assert g.edges.dtype == want_edges.dtype and g.edges.flags.c_contiguous
    assert np.array_equal(g.edges, want_edges)
    ref = _reference_neighbor_lists(n, g.edges.tolist())
    assert g.adj.shape == (n, n)
    for v, want in enumerate(ref):
        assert np.array_equal(_row(g.adj, v), want)
    assert g.degrees.dtype == np.int64
    assert g.degrees.tolist() == [len(nb) for nb in ref]
    adj = np.zeros((n, n), dtype=np.int64)
    for v, nb in enumerate(ref):
        adj[v, nb] = 1
    two_hop = (adj @ adj > 0) & ~np.eye(n, dtype=bool)
    for k, dense in ((1, adj), (2, two_hop)):
        view = k_hop_adjacency(g, k)
        assert view.adj.shape == (n, n)
        for v in range(n):
            assert _row(view.adj, v).tolist() == np.nonzero(dense[v])[0].tolist()


def test_build_rejects_bad_endpoint_with_index():
    with pytest.raises(ValueError, match="record 1"):
        _graph([(0, 1), (0, 5)], n=3)


def test_build_rejects_label_length_mismatch():
    with pytest.raises(ValueError, match="entries"):
        build_graph([(0, 1)], np.zeros((3, 2)), labels=[0, 1])


def test_build_rejects_label_out_of_range():
    with pytest.raises(ValueError, match="label record 2"):
        build_graph([(0, 1)], np.zeros((3, 2)), labels=[0, 1, 7], n_classes=2)


def test_k_hop_rejects_zero():
    g = _graph([(0, 1)], n=2)
    with pytest.raises(ValueError):
        k_hop_adjacency(g, 0)


def test_two_hop_on_path():
    # A^2 on 0-1-2 has nonzeros only at (0,2),(2,0) plus the removed diagonal
    g = _graph([(0, 1), (1, 2)], n=3)
    view = k_hop_adjacency(g, 2)
    assert _row(view.adj, 0).tolist() == [2]
    assert _row(view.adj, 1).tolist() == []
    assert _row(view.adj, 2).tolist() == [0]


def test_one_hop_equals_raw_adjacency():
    rng = np.random.default_rng(3)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 12, size=(30, 2))]
    g = _graph(edges, n=12)
    view = k_hop_adjacency(g, 1)
    for v in range(12):
        assert _row(view.adj, v).tolist() == _row(g.adj, v).tolist()


def test_two_hop_on_triangle_connects_everything():
    g = _graph([(0, 1), (1, 2), (0, 2)], n=3)
    view = k_hop_adjacency(g, 2)
    for v in range(3):
        assert _row(view.adj, v).tolist() == sorted(set(range(3)) - {v})


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_hop_symmetry(k):
    rng = np.random.default_rng(k)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 15, size=(40, 2))]
    g = _graph(edges, n=15)
    view = k_hop_adjacency(g, k)
    mat = view.binary_matrix().toarray()
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0)


def _reference_norm(graph, k):
    # the COO-built binary adjacency and normalisation k_hop_adjacency used before
    # the graph carried its own CSR
    m = graph.edges.shape[0]
    rows = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]]) if m else np.empty(0, dtype=np.int64)
    cols = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]]) if m else np.empty(0, dtype=np.int64)
    binary = sp.csr_matrix((np.ones(2 * m), (rows, cols)), shape=(graph.n, graph.n))
    power = binary
    for _ in range(k - 1):
        power = power @ binary
    if k > 1:
        power = power.tocsr()
        power.setdiag(0)
        power.eliminate_zeros()
        power.data = np.ones_like(power.data)
    with_loops = (power + sp.identity(graph.n, format="csr")).tocsr()
    d_mat = sp.diags(1.0 / np.sqrt(np.asarray(with_loops.sum(axis=1)).ravel()))
    return (d_mat @ with_loops @ d_mat).tocsr()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n,seed", [(12, 0), (60, 1), (300, 2)])
def test_norm_arrays_match_coo_reference(k, n, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(3 * n, 2))
    g = _graph(edges, n=n)
    got, want = k_hop_adjacency(g, k).norm, _reference_norm(g, k)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_node_homophily_examples():
    # center 0 with neighbors labeled [a, a, b, b]
    g = _graph([(0, 1), (0, 2), (0, 3), (0, 4)], n=5, labels=[0, 0, 0, 1, 1])
    assert true_node_homophily(g, 0) == 0.5

    g_same = _graph([(0, 1), (0, 2), (0, 3)], n=4, labels=[1, 1, 1, 1])
    assert true_node_homophily(g_same, 0) == 1.0

    star = _graph([(0, 1), (0, 2), (0, 3)], n=4, labels=[0, 1, 1, 1])
    assert true_node_homophily(star, 0) == 0.0


def test_node_homophily_isolated_is_zero():
    g = _graph([(0, 1)], n=3, labels=[0, 0, 1])
    assert true_node_homophily(g, 2) == 0.0


def test_node_homophily_requires_labels():
    g = _graph([(0, 1)], n=2)
    with pytest.raises(ValueError):
        true_node_homophily(g, 0)


def test_graph_homophily_examples():
    assert graph_homophily(_graph([(0, 1)], n=2, labels=[0, 0])) == 1.0
    assert graph_homophily(_graph([(0, 1)], n=2, labels=[0, 1])) == 0.0
    # disjoint union of the two graphs above: per-node ratios 1,1,0,0
    union = _graph([(0, 1), (2, 3)], n=4, labels=[0, 0, 1, 2])
    assert graph_homophily(union) == 0.5


def test_homophily_invariant_under_label_permutation():
    rng = np.random.default_rng(11)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 20, size=(50, 2))]
    labels = rng.integers(0, 4, size=20)
    g = _graph(edges, n=20, labels=labels)
    perm = rng.permutation(4)
    g2 = build_graph(edges, g.features, perm[labels])
    assert np.allclose(true_homophily_profile(g), true_homophily_profile(g2))


@settings(max_examples=100, deadline=None)
@given(_edge_lists(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_homophily_profile_equals_per_node_ratio_exactly(case, c, seed):
    n, pairs = case
    labels = np.random.default_rng(seed).integers(0, c, size=n)
    g = _graph(pairs, n=n, labels=labels)
    prof = true_homophily_profile(g)
    assert prof.dtype == np.float64 and prof.shape == (n,)
    for v in range(n):
        assert prof[v] == true_node_homophily(g, v)


def test_partition_disjointness_enforced():
    with pytest.raises(ValueError, match="disjoint"):
        make_partition(5, labeled=[0, 1], validation=[1])


def test_graph_dir_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 8, size=(14, 2))]
    g = build_graph(edges, rng.standard_normal((8, 3)), rng.integers(0, 3, size=8))
    save_graph_dir(g, tmp_path / "g")
    loaded = load_graph_dir(tmp_path / "g")
    assert loaded.n == g.n
    assert np.array_equal(loaded.edges, g.edges)
    assert np.array_equal(loaded.labels, g.labels)
    assert np.allclose(loaded.features, g.features)


def test_load_symmetrizes_directed_input(tmp_path):
    d = tmp_path / "g"
    d.mkdir()
    (d / "edges.csv").write_text("src,dst\n0,1\n1,0\n2,1\n")
    (d / "features.csv").write_text("0.0,1.0\n1.0,0.0\n0.5,0.5\n")
    g = load_graph_dir(d)
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.labels is None


def _edge_dir(tmp_path, edges_text):
    d = tmp_path / "g"
    d.mkdir()
    (d / "edges.csv").write_text(edges_text)
    (d / "features.csv").write_text("0.0,1.0\n1.0,0.0\n0.5,0.5\n")
    return d


def test_load_skips_blank_lines_and_extra_columns(tmp_path):
    g = load_graph_dir(_edge_dir(tmp_path, "src,dst\n\n0,1,0.5\n\n1,2,7,x\n"))
    assert g.edges.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("row", ["0,x", "1", "0.5,1"])
def test_load_rejects_malformed_edge_row(tmp_path, row):
    with pytest.raises(ValueError):
        load_graph_dir(_edge_dir(tmp_path, f"src,dst\n0,1\n{row}\n"))


def test_load_header_only_is_edgeless_without_warning(tmp_path):
    d = _edge_dir(tmp_path, "src,dst\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_graph_dir(d)
    assert g.n == 3 and g.n_edges == 0 and g.degrees.tolist() == [0, 0, 0]


def test_load_rejects_missing_header(tmp_path):
    d = tmp_path / "g"
    d.mkdir()
    (d / "edges.csv").write_text("0,1\n")
    (d / "features.csv").write_text("0.0\n1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_graph_dir(d)


def _csv_writer_reference(graph, path):
    # the csv.writer format save_graph_dir has always written
    path.mkdir(parents=True)
    with open(path / "edges.csv", "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["src", "dst"])
        for a, b in graph.edges:
            w.writerow([int(a), int(b)])
    with open(path / "features.csv", "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        for row in graph.features:
            w.writerow([repr(float(x)) for x in row])
    with open(path / "labels.csv", "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        for y in graph.labels:
            w.writerow([int(y)])


def test_save_graph_dir_bytes_match_csv_writer(tmp_path):
    awkward = np.array([-0.0, 1e-300, 1.0, 0.1 + 0.2, -5e-324, 1.7976931348623157e308,
                        123456789.125, -2.5e-7, 0.0, 1 / 3, 1e16, -1e22,
                        np.inf, -np.inf, np.nan, 2.0**-1074])
    # build_graph rejects non-finite features, so they are swapped in afterwards
    g = dataclasses.replace(build_graph([(0, 1), (2, 3), (1, 3)], np.zeros((4, 4)), [0, 1, 2, 1]),
                            features=awkward.reshape(4, 4))
    big_ids = dataclasses.replace(g, edges=np.array([[0, 2**31 + 3], [2**40, 2**62]], dtype=np.int64))
    for i, graph in enumerate((g, big_ids)):
        save_graph_dir(graph, tmp_path / f"new{i}")
        _csv_writer_reference(graph, tmp_path / f"ref{i}")
        for name in ("edges.csv", "features.csv", "labels.csv"):
            assert (tmp_path / f"new{i}" / name).read_bytes() == (tmp_path / f"ref{i}" / name).read_bytes()
