import csv
import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hcgst import graph as graph_module
from hcgst.graph import (build_graph, graph_homophily, k_hop_adjacency, load_graph_dir,
                         make_partition, save_graph_dir, true_homophily_profile,
                         true_node_homophily)
from hcgst.synth import SynthConfig, generate_graph


def _graph(edges, n, labels=None, d=2):
    feats = np.zeros((n, d))
    return build_graph(edges, feats, labels)


def _row(adj, v):
    return adj.indices[adj.indptr[v]:adj.indptr[v + 1]]


def _pairs(graph):
    # the upper-triangle (lo, hi) pairs of graph.adj, lo-major, hi ascending: the order of edges.csv
    adj = graph.adj
    lo = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(adj.indptr))
    upper = lo < adj.indices
    return np.stack([lo[upper], adj.indices[upper].astype(np.int64)], axis=1)


def test_build_dedup_and_self_loop():
    g = _graph([(0, 1), (1, 0), (2, 2)], n=3)
    assert g.n_edges == 1
    assert _pairs(g).tolist() == [[0, 1]]


def test_build_empty_edge_list():
    g = _graph([], n=4)
    assert g.n == 4
    assert g.degrees.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("features", [np.zeros(4), np.zeros((2, 2, 2))])
def test_build_rejects_features_that_are_not_a_matrix(features):
    with pytest.raises(ValueError, match="features must be a 2-d matrix"):
        build_graph([(0, 1)], features)


def test_true_profile_rejects_unlabelled_graph():
    with pytest.raises(ValueError, match="graph has no labels"):
        true_homophily_profile(_graph([(0, 1)], n=2))


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


def _lexsort_csr(n, edges):
    # the lexsort-ordered CSR arrays the COO -> CSR build replaced
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return sp.csr_matrix((np.ones(src.size), dst[np.lexsort((dst, src))], indptr), shape=(n, n))


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
    assert np.array_equal(_pairs(g), want_edges)
    assert g.n_edges == len(want_edges)
    ref = _reference_neighbor_lists(n, want_edges.tolist())
    assert g.adj.shape == (n, n) and g.adj.has_sorted_indices
    want_adj = _lexsort_csr(n, want_edges)
    assert g.adj.indices.dtype == want_adj.indices.dtype and g.adj.indptr.dtype == want_adj.indptr.dtype
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
        assert view.binary_matrix().shape == (n, n)
        for v in range(n):
            assert _row(view.binary_matrix(), v).tolist() == np.nonzero(dense[v])[0].tolist()


def test_build_rejects_bad_endpoint_with_index():
    with pytest.raises(ValueError, match=r"^edge record 1 = \(0, 5\) has endpoint outside \[0, 3\)$"):
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


def test_k_hop_bound_over_limit_raises(monkeypatch):
    # path 0-1-2-3: A·deg = [2, 3, 3, 2] walks of length 2 -> bound 10, against 4 two-hop entries
    g = _graph([(0, 1), (1, 2), (2, 3)], n=4)
    monkeypatch.setattr(graph_module, "KHOP_ENTRY_LIMIT", 10)
    assert k_hop_adjacency(g, 2).binary_matrix().nnz == 4
    monkeypatch.setattr(graph_module, "KHOP_ENTRY_LIMIT", 9)
    assert k_hop_adjacency(g, 1).norm.nnz == 10  # the one-hop view is never bounded
    with pytest.raises(ValueError, match=r"hop 2 view may hold 10 entries, over the limit of 9"):
        k_hop_adjacency(g, 2)
    # A²·deg = [3, 5, 5, 3], each row capped at n - 1 = 3
    with pytest.raises(ValueError, match=r"hop 3 view may hold 12 entries"):
        k_hop_adjacency(g, 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_binary_matrix_is_sorted_without_diagonal_and_leaves_norm_alone(k):
    rng = np.random.default_rng(10 + k)
    g = _graph(rng.integers(0, 40, size=(90, 2)), n=40)
    view = k_hop_adjacency(g, k)
    before = [getattr(view.norm, a).copy() for a in ("indptr", "indices", "data")]
    b = view.binary_matrix()
    assert b.has_sorted_indices and b.data.dtype == np.float64 and np.all(b.data == 1.0)
    assert np.all(b.diagonal() == 0) and b.nnz == view.norm.nnz - g.n
    for a, want in zip(("indptr", "indices", "data"), before):
        assert np.array_equal(getattr(view.norm, a), want)
    assert np.array_equal((b + sp.identity(g.n)).toarray() != 0, view.norm.toarray() != 0)


def test_two_hop_on_path():
    # A^2 on 0-1-2 has nonzeros only at (0,2),(2,0) plus the removed diagonal
    g = _graph([(0, 1), (1, 2)], n=3)
    view = k_hop_adjacency(g, 2)
    assert _row(view.binary_matrix(), 0).tolist() == [2]
    assert _row(view.binary_matrix(), 1).tolist() == []
    assert _row(view.binary_matrix(), 2).tolist() == [0]


def test_one_hop_equals_raw_adjacency():
    rng = np.random.default_rng(3)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 12, size=(30, 2))]
    g = _graph(edges, n=12)
    view = k_hop_adjacency(g, 1)
    for v in range(12):
        assert _row(view.binary_matrix(), v).tolist() == _row(g.adj, v).tolist()


def test_two_hop_on_triangle_connects_everything():
    g = _graph([(0, 1), (1, 2), (0, 2)], n=3)
    view = k_hop_adjacency(g, 2)
    for v in range(3):
        assert _row(view.binary_matrix(), v).tolist() == sorted(set(range(3)) - {v})


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
    edges = _pairs(graph)
    m = edges.shape[0]
    rows = np.concatenate([edges[:, 0], edges[:, 1]]) if m else np.empty(0, dtype=np.int64)
    cols = np.concatenate([edges[:, 1], edges[:, 0]]) if m else np.empty(0, dtype=np.int64)
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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n,seed,m", [
    pytest.param(12, 0, 36, id="12-0"),
    pytest.param(60, 1, 180, id="60-1"),
    pytest.param(300, 2, 900, id="300-2"),
    pytest.param(40, 3, 12, id="isolated"),  # 12 random pairs touch at most 24 of the 40 nodes
    pytest.param(7, 4, 0, id="edgeless"),
    pytest.param(400, 5, 60000, id="blocks"),  # nnz > 84 000 at every k: _sym_normalize scales more than one block
])
def test_norm_arrays_match_coo_reference(k, n, seed, m):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    g = _graph(edges, n=n)
    assert m >= n or (g.degrees == 0).any()
    got, want = k_hop_adjacency(g, k).norm, _reference_norm(g, k)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_adjacency_is_one_byte_per_entry(tmp_path):
    g = generate_graph(SynthConfig(n=200, seed=3))
    save_graph_dir(g, tmp_path / "g")
    for graph in (g, load_graph_dir(tmp_path / "g"), _graph([], n=4)):
        assert graph.adj.dtype == bool and graph.adj.data.nbytes == graph.adj.nnz


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_hop_leaves_graph_adj_unchanged(k):
    g = generate_graph(SynthConfig(n=300, seed=k))
    attrs = ("indptr", "indices", "data")
    before = [getattr(g.adj, a).copy() for a in attrs]
    k_hop_adjacency(g, k)
    for a, want in zip(attrs, before):
        got = getattr(g.adj, a)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("k, ratio", [
    pytest.param(2, 1.5, id="2"),
    pytest.param(3, 2.25, id="3"),  # at odd k, setdiag(False) inserts the absent diagonal through a COO round trip
])
def test_k_hop_traced_peak_is_near_the_view(k, ratio):
    # the power and the self-loop add are boolean patterns; float64 is allocated once, for norm's
    # data, which is scaled in blocks
    g = generate_graph(SynthConfig(n=3000, seed=7))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        norm = k_hop_adjacency(g, k).norm
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = norm.data.nbytes + norm.indices.nbytes + norm.indptr.nbytes
    assert peak <= ratio * held


@pytest.mark.parametrize("blocks, extra", [
    pytest.param(0, 0, id="empty"),
    pytest.param(1, -1, id="block-1"),
    pytest.param(1, 0, id="block"),
    pytest.param(1, 1, id="block+1"),
    pytest.param(3, 17, id="blocks"),
])
def test_sym_normalize_matches_one_shot_scaling(blocks, extra):
    nnz = blocks * graph_module._NORM_BLOCK + extra
    n = nnz // 50
    rng = np.random.default_rng(nnz)
    counts = rng.multinomial(nnz - n, np.full(n, 1 / n)) + 1 if n else np.zeros(0, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices = rng.integers(0, n, size=nnz).astype(np.int32) if n else np.zeros(0, dtype=np.int32)
    pattern = sp.csr_matrix((np.ones(nnz, dtype=bool), indices, indptr), shape=(n, n))
    got = graph_module._sym_normalize(pattern)
    inv_sqrt = 1.0 / np.sqrt(counts)
    want = np.repeat(inv_sqrt, counts) * inv_sqrt[indices]
    assert np.array_equal(got.indices, indices) and np.array_equal(got.indptr, indptr)
    assert got.data.dtype == want.dtype and got.data.tobytes() == want.tobytes()


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


def test_partition_rejects_repeat_within_one_set():
    with pytest.raises(ValueError, match="node 0 repeats"):
        make_partition(60, [0, 0, 1, 2, 3, 4], [5, 6])


def test_partition_from_plain_lists_is_int64():
    part = make_partition(6, [4, 1], [])
    for got, want in ((part.labeled, [4, 1]), (part.validation, []), (part.unlabeled, [0, 2, 3, 5])):
        assert got.dtype == np.int64 and got.tolist() == want


def test_graph_dir_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 8, size=(14, 2))]
    g = build_graph(edges, rng.standard_normal((8, 3)), rng.integers(0, 3, size=8))
    save_graph_dir(g, tmp_path / "g")
    loaded = load_graph_dir(tmp_path / "g")
    assert loaded.n == g.n
    assert np.array_equal(_pairs(loaded), _pairs(g))
    assert np.array_equal(loaded.labels, g.labels)
    assert np.allclose(loaded.features, g.features)


def test_load_symmetrizes_directed_input(tmp_path):
    d = tmp_path / "g"
    d.mkdir()
    (d / "edges.csv").write_text("src,dst\n0,1\n1,0\n2,1\n")
    (d / "features.csv").write_text("0.0,1.0\n1.0,0.0\n0.5,0.5\n")
    g = load_graph_dir(d)
    assert _pairs(g).tolist() == [[0, 1], [1, 2]]
    assert g.labels is None


def _edge_dir(tmp_path, edges_text):
    d = tmp_path / "g"
    d.mkdir()
    (d / "edges.csv").write_text(edges_text)
    (d / "features.csv").write_text("0.0,1.0\n1.0,0.0\n0.5,0.5\n")
    return d


def test_load_skips_blank_lines_and_extra_columns(tmp_path):
    g = load_graph_dir(_edge_dir(tmp_path, "src,dst\n\n0,1,0.5\n\n1,2,7,x\n"))
    assert _pairs(g).tolist() == [[0, 1], [1, 2]]


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


@pytest.mark.parametrize("name", ["features.csv", "labels.csv"])
@pytest.mark.parametrize("edges_text, text", [("src,dst\n0,1\n", ""), ("src,dst\n", "\n\n")])
def test_load_rejects_empty_features_by_name_without_warning(tmp_path, edges_text, text, name):
    d = _edge_dir(tmp_path, edges_text)
    (d / name).write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"{re.escape(name)} has no rows$"):
            load_graph_dir(d)


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
        for a, b in _pairs(graph):
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
    save_graph_dir(g, tmp_path / "new")
    _csv_writer_reference(g, tmp_path / "ref")
    for name in ("edges.csv", "features.csv", "labels.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
