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
        raise ValueError(f"edge record {i} = {tuple(pairs[i])} has endpoint outside [0, {n})")

    keep = pairs[:, 0] != pairs[:, 1]
    pairs = pairs[keep]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    edges = np.stack(divmod(np.unique(lo * n + hi), n), axis=1)  # one sort key per pair, lo-major

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

    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    adj = sp.csr_matrix((np.ones(src.size), dst[order], indptr), shape=(n, n))
    return Graph(n=n, edges=edges, features=features, labels=labels, c=c, d=d, adj=adj)


@dataclass(frozen=True)
class AdjacencyView:
    """Neighbor structure at a fixed hop count.

    ``adj`` is the raw 0/1 structure (no self-connections, sorted indices)
    that ``binary_matrix()`` returns; homophily is computed from
    ``Graph.adj``, not from a view. ``norm`` is the
    symmetric-degree-normalized matrix with self-loops added, used for
    message passing.
    """

    n: int
    adj: sp.csr_matrix = field(repr=False)
    norm: sp.csr_matrix = field(repr=False)

    def binary_matrix(self) -> sp.csr_matrix:
        return self.adj


def _sym_normalize(binary: sp.csr_matrix) -> sp.csr_matrix:
    # A_hat = D^{-1/2} (B + I) D^{-1/2} with D the degree of B + I
    with_loops = (binary + sp.identity(binary.shape[0], format="csr")).tocsr()
    deg = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    d_mat = sp.diags(inv_sqrt)
    return (d_mat @ with_loops @ d_mat).tocsr()


def k_hop_adjacency(graph: Graph, k: int) -> AdjacencyView:
    """Binarized k-th adjacency power with zeroed diagonal.

    k=1 returns the graph's own adjacency (``graph.adj``).
    """
    if k < 1:
        raise ValueError(f"hop count must be >= 1, got {k}")
    power = graph.adj
    if k > 1:
        for _ in range(k - 1):
            power = power @ graph.adj
        power = power.tocsr()
        power.setdiag(0)
        power.eliminate_zeros()
        power.data = np.ones_like(power.data)

    # Normalise before sorting: the stored index order of ``norm`` sets the
    # summation order of every product with it.
    norm = _sym_normalize(power)
    power.sort_indices()
    return AdjacencyView(n=graph.n, adj=power, norm=norm)


def true_node_homophily(graph: Graph, node: int) -> float:
    """Fraction of a node's 1-hop neighbors sharing its label; 0 for isolated nodes."""
    if graph.labels is None:
        raise ValueError("graph has no labels; node homophily is undefined")
    nb = graph.adj.indices[graph.adj.indptr[node]:graph.adj.indptr[node + 1]]
    if nb.size == 0:
        return 0.0
    return float(np.mean(graph.labels[nb] == graph.labels[node]))


def true_homophily_profile(graph: Graph) -> np.ndarray:
    """Per-node homophily ratios over the whole graph (isolated nodes contribute 0)."""
    if graph.labels is None:
        raise ValueError("graph has no labels; homophily profile is undefined")
    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]
    same = graph.labels[e0] == graph.labels[e1]
    hits = np.bincount(np.concatenate([e0[same], e1[same]]), minlength=graph.n)
    out = np.zeros(graph.n, dtype=np.float64)
    np.divide(hits, graph.degrees, out=out, where=graph.degrees > 0)
    return out


def graph_homophily(graph: Graph) -> float:
    """Unweighted mean of node homophily ratios across all nodes."""
    return float(np.mean(true_homophily_profile(graph)))


@dataclass
class NodePartition:
    """Disjoint labeled / validation / unlabeled node sets.

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
        # a node may repeat within one set, never across two
        members = np.concatenate([np.unique(s) for s in (self.labeled, self.validation, self.unlabeled)])
        if np.unique(members).size != members.size:
            raise ValueError("labeled/validation/unlabeled sets must be pairwise disjoint")


def make_partition(n: int, labeled, validation) -> NodePartition:
    labeled = np.asarray(labeled, dtype=np.int64)
    validation = np.asarray(validation, dtype=np.int64)
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


def load_graph_dir(path) -> Graph:
    """Load a graph directory; directed inputs are symmetrized."""
    path = Path(path)
    feat_file = path / "features.csv"
    if not feat_file.exists():
        raise ValueError(f"missing features.csv under {path}")
    features = np.loadtxt(feat_file, delimiter=",", dtype=np.float64, ndmin=2)

    edge_file = path / "edges.csv"
    with open(edge_file, newline="") as f:
        header = next(csv.reader(f), None)
    if header is None or [h.strip() for h in header] != ["src", "dst"]:
        raise ValueError("edges.csv must start with header 'src,dst'")
    with warnings.catch_warnings():  # a header-only file is an edgeless graph
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        edges = np.loadtxt(edge_file, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2,
                           dtype=np.int64)

    labels = None
    lab_file = path / "labels.csv"
    if lab_file.exists():
        labels = np.loadtxt(lab_file, delimiter=",", dtype=np.int64, ndmin=1)
    return build_graph(edges, features, labels)
