"""Immutable graph container, k-hop adjacency views, and label-based homophily ratios."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph with optional ground-truth labels.

    Edges are stored once per unordered pair with the smaller endpoint first;
    self-loops never appear. ``c`` is 0 when no labels are attached.
    """

    n: int
    edges: np.ndarray               # (m, 2) int64, row[0] < row[1]
    features: np.ndarray            # (n, d) float64
    labels: np.ndarray | None       # (n,) int64 or None
    c: int
    d: int
    adj: sp.csr_matrix = field(repr=False)  # binary, both directions, sorted indices

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adj.indptr).astype(np.int64)


def _ids(what, ids, bound) -> np.ndarray:
    """``ids`` as int64, or a ValueError naming the first id outside [0, bound)."""
    ids = np.asarray(ids, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= bound)]
    if bad.size:
        raise ValueError(f"{what} {int(bad[0])} outside [0, {bound})")
    return ids


def build_graph(edge_pairs, features, labels=None, n_classes=None) -> Graph:
    """Construct a :class:`Graph` from raw edge pairs and a feature matrix.

    Duplicate pairs (in either orientation) collapse to a single undirected
    edge and self-loops are dropped. The node count is the feature row count.

    Raises ValueError naming the offending record index for out-of-range
    endpoints, non-finite features or a label-length mismatch.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-d matrix (n rows, d columns)")
    n, d = features.shape
    bad_row = np.nonzero(~np.isfinite(features).all(axis=1))[0]
    if bad_row.size:
        raise ValueError(f"feature row {int(bad_row[0])} has a non-finite entry")

    pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    bad = np.nonzero((pairs < 0) | (pairs >= n))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"edge record {i} = {tuple(pairs[i].tolist())} has endpoint outside [0, {n})")

    keep = pairs[:, 0] != pairs[:, 1]
    pairs = pairs[keep]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    key = np.sort(lo * n + hi)  # one sort key per pair, lo-major
    edges = np.stack(divmod(key[np.diff(key, prepend=-1) != 0], n), axis=1)

    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError(f"labels has {labels.shape[0] if labels.ndim == 1 else labels.shape} entries, expected {n}")
        c = int(n_classes) if n_classes is not None else (int(labels.max()) + 1 if n else 0)
        bad_lab = np.nonzero((labels < 0) | (labels >= c))[0]
        if bad_lab.size:
            i = int(bad_lab[0])
            raise ValueError(f"label record {i} = {labels[i]} outside [0, {c})")
    else:
        c = int(n_classes) if n_classes is not None else 0

    # COO -> CSR is a stable counting sort by row: each row gets its lower
    # neighbours, then its upper ones, each run ascending.
    rows = np.concatenate([edges[:, 1], edges[:, 0]])
    cols = np.concatenate([edges[:, 0], edges[:, 1]])
    adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    return Graph(n=n, edges=edges, features=features, labels=labels, c=c, d=d, adj=adj)


@dataclass(frozen=True)
class AdjacencyView:
    """Neighbor structure at a fixed hop count, held as one matrix.

    ``norm`` is the symmetric-degree-normalized matrix with self-loops added,
    used for message passing. ``binary_matrix()`` derives the raw 0/1
    structure from it: ``norm``'s pattern without the diagonal, with sorted
    indices. Homophily is computed from ``Graph.adj``, not from a view.
    """

    n: int
    norm: sp.csr_matrix = field(repr=False)

    def binary_matrix(self) -> sp.csr_matrix:
        b = self.norm.astype(bool)  # copies the index arrays that eliminate_zeros and sort_indices edit
        b.setdiag(False)
        b.eliminate_zeros()
        b.sort_indices()
        return b.astype(np.float64)


KHOP_ENTRY_LIMIT = 3e7  # largest entry bound built: a 5k-node hop-4 view (1.1e7 entries) peaks near 200 MB


_NORM_BLOCK = 1 << 16  # entries scaled per pass in _sym_normalize; the column gather stays this size


def _sym_normalize(with_loops: sp.csr_matrix) -> sp.csr_matrix:
    # A_hat = D^{-1/2} (B + I) D^{-1/2}, D the degree of B + I: entry (i, j) is d_i * d_j, on the pattern's indices
    counts = np.diff(with_loops.indptr)
    inv_sqrt = 1.0 / np.sqrt(counts)
    data = np.repeat(inv_sqrt, counts)  # the only nnz-sized float array; scaled in place, block by block
    indices = with_loops.indices
    for start in range(0, data.size, _NORM_BLOCK):
        block = data[start:start + _NORM_BLOCK]
        block *= inv_sqrt[indices[start:start + _NORM_BLOCK]]
    return sp.csr_matrix((data, with_loops.indices, with_loops.indptr), shape=with_loops.shape)


def k_hop_adjacency(graph: Graph, k: int) -> AdjacencyView:
    """Binarized k-th adjacency power with zeroed diagonal.

    k=1 normalizes ``graph.adj``. ValueError if Σᵢ min(n − 1, (A^{k−1}·deg)ᵢ) > ``KHOP_ENTRY_LIMIT``.
    The power and the self-loop add are boolean patterns; SpGEMM and the add
    lay out the same ``indptr`` and ``indices`` as in float64.
    """
    if k < 1:
        raise ValueError(f"hop count must be >= 1, got {k}")
    power = adj = graph.adj.astype(bool)
    if k > 1:
        walks = graph.degrees.astype(np.float64)
        for _ in range(k - 1):
            walks = graph.adj @ walks
        bound = np.minimum(walks, graph.n - 1).sum()
        if bound > KHOP_ENTRY_LIMIT:
            raise ValueError(f"hop {k} view may hold {bound:.3g} entries, over the limit of {KHOP_ENTRY_LIMIT:.3g}")
        for _ in range(k - 1):
            power = power @ adj
        power.setdiag(False)
        power.eliminate_zeros()
    with_loops = power + sp.identity(graph.n, dtype=bool, format="csr")
    del adj, power  # only the pattern with self-loops is held while the float data is written
    return AdjacencyView(n=graph.n, norm=_sym_normalize(with_loops))


def true_node_homophily(graph: Graph, node: int) -> float:
    """Fraction of a node's 1-hop neighbors sharing its label; 0 for isolated nodes."""
    if graph.labels is None:
        raise ValueError("graph has no labels; node homophily is undefined")
    node = int(_ids("node", node, graph.n))
    nb = graph.adj.indices[graph.adj.indptr[node]:graph.adj.indptr[node + 1]]
    if nb.size == 0:
        return 0.0
    return float(np.mean(graph.labels[nb] == graph.labels[node]))


def true_homophily_profile(graph: Graph) -> np.ndarray:
    """Per-node homophily ratios over the whole graph (isolated nodes contribute 0)."""
    if graph.labels is None:
        raise ValueError("graph has no labels; homophily profile is undefined")
    return _neighbour_agreement(graph, np.eye(graph.c)[graph.labels])


def _neighbour_agreement(graph: Graph, rows: np.ndarray) -> np.ndarray:
    """Per node i, the mean over neighbours j of rows[j] · rows[i]; 0 for isolated nodes.

    ``graph.adj @ rows`` sums each node's neighbour rows in CSR order, one at a time.
    """
    degrees = graph.degrees
    out = np.zeros(graph.n, dtype=np.float64)
    np.divide(((graph.adj @ rows) * rows).sum(axis=1), degrees, out=out, where=degrees > 0)
    return out


def graph_homophily(graph: Graph) -> float:
    """Unweighted mean of node homophily ratios across all nodes."""
    return float(np.mean(true_homophily_profile(graph)))


@dataclass
class NodePartition:
    """Disjoint labeled / validation / unlabeled sets of distinct nodes.

    A run never changes the partition: it keeps its own pool of labeled and
    pseudo-labeled nodes, and the unlabeled set stays its test set.
    """

    labeled: np.ndarray
    validation: np.ndarray
    unlabeled: np.ndarray

    def __post_init__(self):
        self.labeled = np.asarray(self.labeled, dtype=np.int64)
        self.validation = np.asarray(self.validation, dtype=np.int64)
        self.unlabeled = np.asarray(self.unlabeled, dtype=np.int64)
        ids, counts = np.unique(np.concatenate([self.labeled, self.validation, self.unlabeled]),
                                return_counts=True)
        if np.any(counts > 1):
            raise ValueError(f"node {int(ids[counts > 1][0])} repeats: labeled/validation/unlabeled "
                             "sets must be pairwise disjoint, each without repeats")


def make_partition(n: int, labeled, validation) -> NodePartition:
    rest = np.setdiff1d(np.arange(n, dtype=np.int64), np.concatenate([labeled, validation]))
    return NodePartition(labeled=labeled, validation=validation, unlabeled=rest)


# --- directory format: edges.csv (header src,dst), features.csv, labels.csv ---

def save_graph_dir(graph: Graph, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    # Plain joins write what csv.writer would: no field needs quoting.
    with open(path / "edges.csv", "w", newline="\n") as f:
        f.write("src,dst\n")
        f.writelines(f"{a},{b}\n" for a, b in graph.edges.tolist())
    with open(path / "features.csv", "w", newline="\n") as f:
        f.writelines(",".join(map(repr, row)) + "\n" for row in graph.features.tolist())
    if graph.labels is not None:
        with open(path / "labels.csv", "w", newline="\n") as f:
            f.writelines(f"{y}\n" for y in graph.labels.tolist())


def _read_csv(path, dtype, **kw) -> np.ndarray:
    with warnings.catch_warnings():  # an empty file is judged by the caller
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, delimiter=",", dtype=dtype, **kw)


def load_graph_dir(path) -> Graph:
    """Load a graph directory; directed inputs are symmetrized."""
    path = Path(path)
    feat_file, edge_file, lab_file = (path / f"{name}.csv" for name in ("features", "edges", "labels"))
    features = _read_csv(feat_file, np.float64, ndmin=2)
    labels = _read_csv(lab_file, np.int64, ndmin=1) if lab_file.exists() else None
    for file, rows in ((feat_file, features), (lab_file, labels)):
        if rows is not None and len(rows) == 0:
            raise ValueError(f"{file} has no rows")
    with open(edge_file, newline="") as f:
        header = next(csv.reader(f), None)
    if header is None or [h.strip() for h in header] != ["src", "dst"]:
        raise ValueError("edges.csv must start with header 'src,dst'")
    edges = _read_csv(edge_file, np.int64, skiprows=1, usecols=(0, 1), ndmin=2)  # header only: no edges
    return build_graph(edges, features, labels)
