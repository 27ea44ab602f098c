import logging

import numpy as np
import pytest

from hcgst import synth
from hcgst.graph import build_graph, graph_homophily, true_homophily_profile
from hcgst.homophily import bin_distribution, bin_index
from hcgst.metrics import kl_divergence
from hcgst.synth import SynthConfig, generate_graph, sample_training_set

BROAD = np.array([1.5, 1.5, 1.25, 1.25, 1.0, 1.0, 0.75, 0.75, 0.5, 0.5])
ACCEPTANCE_FIXTURE = SynthConfig(n=500, classes=4, feature_dim=16, mean_degree=8,
                                 target_histogram=np.array([2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5]),
                                 separation=1.2, cross_structure=0.85, seed=7)


def _broad_graph(seed=7, n=300):
    cfg = SynthConfig(n=n, classes=4, feature_dim=8, mean_degree=8,
                      target_histogram=BROAD, separation=1.2, seed=seed)
    return generate_graph(cfg)


def test_generation_deterministic():
    cfg = SynthConfig(n=100, classes=3, feature_dim=4, mean_degree=5,
                      target_histogram=np.ones(10), seed=11)
    a = generate_graph(cfg)
    b = generate_graph(cfg)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.features, b.features)


def test_generated_graph_satisfies_invariants():
    g = _broad_graph()
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    assert len(np.unique(g.edges, axis=0)) == g.n_edges
    assert g.labels.min() >= 0 and g.labels.max() < g.c
    assert abs(np.mean(g.degrees) - 8) < 1.5


def test_high_mass_last_bin_gives_homophilic_graph():
    for seed in range(3):
        cfg = SynthConfig(n=300, classes=4, feature_dim=8, mean_degree=8,
                          target_histogram=np.array([0.0] * 9 + [1.0]),
                          separation=2.0, seed=seed)
        assert graph_homophily(generate_graph(cfg)) >= 0.8


def test_high_mass_first_bin_gives_heterophilic_graph():
    for seed in range(3):
        cfg = SynthConfig(n=300, classes=4, feature_dim=8, mean_degree=8,
                          target_histogram=np.array([1.0] + [0.0] * 9),
                          separation=2.0, seed=seed)
        assert graph_homophily(generate_graph(cfg)) <= 0.2


def test_homophily_monotone_in_histogram_mean():
    hists = [np.array([1.0] + [0.0] * 9),
             np.array([0, 0, 0, 0, 1.0, 1.0, 0, 0, 0, 0]),
             np.array([0.0] * 9 + [1.0])]
    for seed in range(5):
        measured = []
        for hist in hists:
            cfg = SynthConfig(n=200, classes=3, feature_dim=8, mean_degree=6,
                              target_histogram=hist, separation=1.0, seed=seed)
            measured.append(graph_homophily(generate_graph(cfg)))
        assert measured[0] < measured[1] < measured[2]


def test_generation_rejects_infeasible_degree():
    with pytest.raises(ValueError, match="infeasible"):
        generate_graph(SynthConfig(n=10, mean_degree=20))


def test_config_rejects_bad_histogram():
    with pytest.raises(ValueError):
        SynthConfig(target_histogram=np.zeros(10))
    with pytest.raises(ValueError):
        SynthConfig(target_histogram=np.array([1.0, -0.5]))


@pytest.mark.parametrize("field, value", [("mean_degree", -2.0), ("classes", 0), ("feature_dim", 0)])
def test_config_rejects_impossible_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        SynthConfig(**{field: value})


def test_sample_fallback_takes_every_node_of_an_exhausted_bin_and_logs_it_once(caplog):
    g = generate_graph(SynthConfig(n=500, target_histogram=[0] * 7 + [1] * 3, seed=7))
    bins = bin_index(true_homophily_profile(g), 10)
    sizes = np.bincount(bins, minlength=10)
    with caplog.at_level(logging.WARNING, logger="hcgst.synth"):
        nodes = sample_training_set(g, 0.02, "heterophily_biased", 10, seed=0)
    assert nodes.size == np.unique(nodes).size == int(np.floor(0.02 * g.n))
    assert nodes.min() >= 0 and nodes.max() < g.n
    # the budget goes to the bottom four bins in proportion to their sizes
    wanted = synth._largest_remainder(np.maximum(sizes[:4], 1e-9), nodes.size)
    exhausted = np.flatnonzero(wanted > sizes[:4])
    assert exhausted.size  # this graph leaves the fallback work to do
    for b in exhausted:
        assert np.isin(np.flatnonzero(bins == b), nodes).all()
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) <= 10
    assert sorted(int(m.split()[1]) for m in warned) == exhausted.tolist()


def test_sample_returns_exact_budget_of_distinct_nodes():
    g = _broad_graph()
    for mode in ("representative", "homophily_biased", "heterophily_biased"):
        nodes = sample_training_set(g, 0.05, mode, 10, seed=3)
        assert nodes.size == int(0.05 * g.n)
        assert len(np.unique(nodes)) == nodes.size


def test_sample_rejects_unknown_mode():
    g = _broad_graph()
    with pytest.raises(ValueError, match="unknown bias mode"):
        sample_training_set(g, 0.05, "upside_down", 10, seed=0)


def test_sample_rejects_budget_below_class_count():
    g = _broad_graph()
    with pytest.raises(ValueError, match="below class count"):
        sample_training_set(g, 0.001, "representative", 10, seed=0)


def test_homophily_biased_stays_in_top_bins():
    g = _broad_graph()
    prof = true_homophily_profile(g)
    nodes = sample_training_set(g, 0.02, "homophily_biased", 10, seed=1)
    assert np.all(prof[nodes] >= 0.6)


def test_heterophily_biased_stays_in_bottom_bins():
    g = _broad_graph()
    prof = true_homophily_profile(g)
    nodes = sample_training_set(g, 0.02, "heterophily_biased", 10, seed=1)
    assert np.all(prof[nodes] < 0.4)


def test_representative_mode_closest_to_global():
    g = _broad_graph(seed=7, n=500)
    prof = true_homophily_profile(g)
    global_dist = bin_distribution(prof, 10)
    wins = 0
    for seed in range(10):
        kls = {}
        for mode in ("representative", "homophily_biased", "heterophily_biased"):
            nodes = sample_training_set(g, 0.02, mode, 10, seed)
            kls[mode] = kl_divergence(bin_distribution(prof[nodes], 10), global_dist)
        wins += kls["representative"] <= min(kls["homophily_biased"], kls["heterophily_biased"])
    assert wins >= 9


def _reference_generate(cfg):
    """The wiring loop as first written: one ``rng.choice(pool, p=...)`` per partner draw."""
    n, c = cfg.n, cfg.classes
    rng = np.random.default_rng(cfg.seed)
    labels = rng.integers(0, c, size=n)
    n_bins = cfg.target_histogram.shape[0]
    node_bin = rng.choice(n_bins, size=n, p=cfg.target_histogram / cfg.target_histogram.sum())
    target_h = (node_bin + rng.random(n)) / n_bins
    by_class = [np.nonzero(labels == k)[0] for k in range(c)]
    same_w = [target_h[idx] + 1e-3 for idx in by_class]
    cross_w = [(1.0 - target_h[idx]) + 1e-3 for idx in by_class]
    seen, edges = set(), []
    for i in range(int(round(n * cfg.mean_degree / 2))):
        v = i % n
        k = labels[v]
        want_same = c == 1 or rng.random() < target_h[v]
        for _ in range(30):
            if want_same:
                pool, w = by_class[k], same_w[k]
                if pool.size <= 1:
                    break
            else:
                paired = k ^ 1
                if paired < c and rng.random() < cfg.cross_structure:
                    j = paired
                else:
                    j = int(rng.integers(0, c - 1))
                    j = j if j < k else j + 1
                pool, w = by_class[j], cross_w[j]
                if pool.size == 0:
                    continue
            partner = int(rng.choice(pool, p=w / w.sum()))
            if partner == v:
                continue
            key = (min(v, partner), max(v, partner))
            if key not in seen:
                seen.add(key)
                edges.append(key)
                break
    means = rng.standard_normal((c, cfg.feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= cfg.separation
    features = means[labels] + rng.standard_normal((n, cfg.feature_dim))
    return build_graph(edges, features, labels, n_classes=c)


EXACTNESS_CONFIGS = (
    [SynthConfig(n=5, classes=4, mean_degree=2, seed=s) for s in range(6)]  # empty class pools
    + [SynthConfig(n=60, classes=1, mean_degree=4, seed=1),
       SynthConfig(n=60, classes=3, mean_degree=4, cross_structure=1.0, seed=2),
       SynthConfig(n=60, classes=5, mean_degree=4, cross_structure=0.0, seed=3),
       SynthConfig(n=8, classes=7, mean_degree=3, seed=4),
       ACCEPTANCE_FIXTURE,
       SynthConfig(n=2000, seed=9)]
)


@pytest.mark.parametrize("cfg", EXACTNESS_CONFIGS,
                         ids=[f"n{c.n}-c{c.classes}-x{c.cross_structure}-s{c.seed}" for c in EXACTNESS_CONFIGS])
def test_generation_matches_per_draw_choice_reference(cfg):
    g = generate_graph(cfg)
    ref = _reference_generate(cfg)
    assert np.array_equal(g.edges, ref.edges)
    assert np.array_equal(g.labels, ref.labels)
    assert np.array_equal(g.features, ref.features)
