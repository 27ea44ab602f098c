"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The desk-scale fixture is a 500-node synthetic graph with a heterophily-biased
2% training set. Mechanism criteria (1-5, 9, 10) are exact or tolerance-based;
reproduction criteria (6-8) are directional medians over 10 seeds.
"""

import json
import math
import time

import numpy as np
import pytest

from hcgst.cli import main as cli_main
from hcgst.graph import (build_graph, k_hop_adjacency, make_partition,
                         save_graph_dir, true_homophily_profile)
from hcgst.homophily import estimate_homophily_profile, target_distribution
from hcgst.metrics import CmdConfig, cmd, kl_divergence
from hcgst.model import (TrainConfig, gradient_check, init_params, predict,
                         train_dual)
from hcgst.orchestrator import RunConfig, run_self_training
from hcgst.selection import (SelectionProblem, optimize_selection,
                             selection_loss_and_grad, top_k)
from hcgst.synth import SynthConfig, generate_graph, sample_training_set

FIXTURE_HISTOGRAM = np.array([2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5])
FIXTURE = SynthConfig(n=500, classes=4, feature_dim=16, mean_degree=8,
                      target_histogram=FIXTURE_HISTOGRAM, separation=1.2,
                      cross_structure=0.85, seed=7)
LABEL_RATE = 0.02
N_SEEDS = 10
EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

_fixture_cost = {}


def _finish(num, desc, t0, budget, extra=0.0):
    elapsed = time.monotonic() - t0 + extra
    print(f"\n[criterion {num:2d}] PASS ({elapsed:6.1f}s / budget {budget:.0f}s) {desc}")
    assert elapsed < budget


def _fail_line(num, desc, t0):
    print(f"\n[criterion {num:2d}] FAIL ({time.monotonic() - t0:6.1f}s) {desc}")


@pytest.fixture(scope="module")
def fixture_graph():
    t0 = time.monotonic()
    graph = generate_graph(FIXTURE)
    _fixture_cost["graph"] = time.monotonic() - t0
    return graph


def _partition_for(graph, seed, n_val):
    labeled = sample_training_set(graph, LABEL_RATE, "heterophily_biased", 10, seed)
    remaining = np.setdiff1d(np.arange(graph.n, dtype=np.int64), labeled)
    rng = np.random.default_rng([seed, 1])
    val = (np.sort(rng.choice(remaining, size=n_val, replace=False)) if n_val
           else np.empty(0, dtype=np.int64))
    return make_partition(graph.n, labeled, val)


def _run(graph, variant, seed, n_val, stages=10):
    cfg = RunConfig(variant=variant, seed=seed, stages=stages)
    return run_self_training(graph, _partition_for(graph, seed, n_val), cfg)


@pytest.fixture(scope="module")
def trajectory_runs(fixture_graph):
    """Full-length runs (no validation, no early stop) for the shift trajectories."""
    t0 = time.monotonic()
    runs = {v: [_run(fixture_graph, v, s, n_val=0) for s in range(N_SEEDS)]
            for v in ("hcgst", "st_confidence")}
    _fixture_cost["trajectory"] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="module")
def validated_runs(fixture_graph):
    """Validation-guided runs for accuracy/bias comparisons across variants."""
    t0 = time.monotonic()
    variants = ("backbone_only", "st_confidence", "hcgst",
                "no_selection", "no_multihop", "no_dualhead")
    runs = {v: [_run(fixture_graph, v, s, n_val=50) for s in range(N_SEEDS)]
            for v in variants}
    _fixture_cost["validated"] = time.monotonic() - t0
    return runs


def _median(runs, fn):
    return float(np.median([fn(r) for r in runs]))


def test_criterion_01_metric_correctness():
    desc = "CMD identities and hand fixtures; smoothed KL hand fixture"
    t0 = time.monotonic()
    try:
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal((20, 4))
        assert cmd(x, x) == 0.0
        assert abs(cmd(x, y) - cmd(y, x)) <= 1e-10

        cfg1 = CmdConfig(max_order=1, support_lo=0.0, support_hi=1.0)
        assert abs(cmd([[0.0]], [[1.0]], cfg1) - 1.0) <= 1e-10
        cfg2 = CmdConfig(max_order=2, support_lo=0.0, support_hi=2.0)
        assert abs(cmd([[0.0], [2.0]], [[1.0], [1.0]], cfg2) - 0.25) <= 1e-10

        kl = kl_divergence(np.array([3.0, 1.0]), np.array([1.0, 1.0]), eps=1e-10)
        assert abs(kl - 0.1308) <= 1e-3
    except BaseException:
        _fail_line(1, desc, t0)
        raise
    _finish(1, desc, t0, budget=1.0)


def test_criterion_02_estimator_consistency():
    desc = "one-hot soft-label estimates equal true ratios on 20 seeded graphs"
    t0 = time.monotonic()
    try:
        for seed in range(20):
            rng = np.random.default_rng(seed)
            hist = rng.random(10) + 0.1
            cfg = SynthConfig(n=80, classes=int(rng.integers(2, 5)), feature_dim=4,
                              mean_degree=5, target_histogram=hist,
                              separation=1.0, seed=seed)
            g = generate_graph(cfg)
            one_hot = np.zeros((g.n, g.c))
            one_hot[np.arange(g.n), g.labels] = 1.0
            est = estimate_homophily_profile(one_hot, g)
            truth = true_homophily_profile(g)
            assert np.max(np.abs(est - truth)) <= 1e-12
    except BaseException:
        _fail_line(2, desc, t0)
        raise
    _finish(2, desc, t0, budget=5.0)


def test_criterion_03_target_distribution_oracle():
    desc = "target quotas match brute-force evaluation on 100 random instances"
    t0 = time.monotonic()
    try:
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_bins = int(rng.integers(1, 11))
            g_counts = rng.integers(0, 30, size=n_bins).astype(float)
            if g_counts.sum() == 0:
                g_counts[rng.integers(0, n_bins)] = 1.0
            local = rng.integers(0, 12, size=n_bins).astype(float)
            k = int(rng.integers(1, 25))

            out = target_distribution(g_counts, local, k)

            total_g = g_counts.sum()
            budget = k + local.sum()
            expected = [max(math.ceil(g_counts[i] / total_g * budget - local[i]), 0.0)
                        for i in range(n_bins)]
            assert out.tolist() == expected
    except BaseException:
        _fail_line(3, desc, t0)
        raise
    _finish(3, desc, t0, budget=1.0)


def _fd_vector(fn, x, h=1e-5):
    grad = np.zeros_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up.flat[i] += h
        down.flat[i] -= h
        grad.flat[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


def _rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def test_criterion_04_gradient_fidelity():
    desc = "training-loss and selection-loss gradients match finite differences"
    t0 = time.monotonic()
    try:
        for seed in range(5):
            rng = np.random.default_rng(seed)
            edges = [(int(a), int(b)) for a, b in rng.integers(0, 8, size=(12, 2))]
            g = build_graph(edges, rng.standard_normal((8, 3)),
                            rng.integers(0, 2, size=8))
            params = init_params(3, 4, 2, seed=seed)
            err = gradient_check(params, g, TrainConfig(weight_decay=5e-4), lambda_dual=0.09)
            assert err <= 1e-4

        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            m = 8
            problem = SelectionProblem(
                candidates=np.arange(m), cand_repr=rng.standard_normal((m, 3)),
                global_repr=rng.standard_normal((30, 3)),
                cand_homophily=rng.random(m),
                target=rng.integers(0, 4, size=10).astype(float),
                k=3, lambda_s=2.0, n_bins=10)
            q = rng.uniform(0.05, 0.95, size=m)
            _, grad, _ = selection_loss_and_grad(problem, q)
            fd = _fd_vector(lambda qq: selection_loss_and_grad(problem, qq)[0], q)
            assert _rel_err(grad, fd) <= 1e-4
    except BaseException:
        _fail_line(4, desc, t0)
        raise
    _finish(4, desc, t0, budget=30.0)


def test_criterion_05_selection_quality_oracle():
    desc = "binary top-K beats random K-subsets (>=90%); optimizer descends from init"
    t0 = time.monotonic()
    try:
        beats_random = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(5, 13))
            k = int(rng.integers(1, 5))
            problem = SelectionProblem(
                candidates=np.arange(m), cand_repr=rng.standard_normal((m, 3)),
                global_repr=rng.standard_normal((40, 3)),
                cand_homophily=rng.random(m),
                target=rng.integers(0, k + 2, size=10).astype(float),
                k=k, lambda_s=2.0, n_bins=10)
            q = optimize_selection(problem).q
            chosen = top_k(q, k, problem.candidates, np.full(m, 0.5))
            binary = np.isin(problem.candidates, chosen).astype(float)
            loss_binary = selection_loss_and_grad(problem, binary)[0]

            # descent: the optimizer's iterate never loses to the uniform start
            q0 = np.full(m, min(k / m, 1.0))
            loss_init = selection_loss_and_grad(problem, q0)[0]
            loss_q = selection_loss_and_grad(problem, q)[0]
            assert loss_q <= loss_init + 1e-12

            sub_rng = np.random.default_rng(10_000 + seed)
            losses = []
            for _ in range(100):
                ind = np.zeros(m)
                ind[sub_rng.choice(m, size=k, replace=False)] = 1.0
                losses.append(selection_loss_and_grad(problem, ind)[0])
            beats_random += loss_binary <= np.median(losses)
        assert beats_random >= 45, f"top-K beat the random-subset median in only {beats_random}/50"
    except BaseException:
        _fail_line(5, desc, t0)
        raise
    _finish(5, desc, t0, budget=60.0)


def test_criterion_06_shift_reduction(fixture_graph, trajectory_runs):
    desc = "hcgst final local/global KL >=30% below confidence-only self-training"
    t0 = time.monotonic()
    try:
        kl_h = _median(trajectory_runs["hcgst"], lambda r: r.final_kl_est)
        kl_s = _median(trajectory_runs["st_confidence"], lambda r: r.final_kl_est)
        assert kl_h <= 0.7 * kl_s, f"median KL {kl_h:.4f} vs {kl_s:.4f}"

        closer = sum(
            abs(h.pseudo_mean_est_h - h.global_mean_est_h)
            < abs(s.pseudo_mean_est_h - s.global_mean_est_h)
            for h, s in zip(trajectory_runs["hcgst"], trajectory_runs["st_confidence"]))
        assert closer >= 8, f"pseudo-set mean closer to global in only {closer}/10 seeds"
    except BaseException:
        _fail_line(6, desc, t0)
        raise
    _finish(6, desc, t0, budget=600.0,
            extra=_fixture_cost.get("graph", 0) + _fixture_cost.get("trajectory", 0))


def test_criterion_07_bias_reduction(fixture_graph, validated_runs):
    desc = "hcgst NPV/TPV not worse than confidence-only; ACC not worse than backbone"
    t0 = time.monotonic()
    try:
        npv_h = _median(validated_runs["hcgst"], lambda r: r.bin_report.npv)
        npv_s = _median(validated_runs["st_confidence"], lambda r: r.bin_report.npv)
        tpv_h = _median(validated_runs["hcgst"], lambda r: r.bin_report.tpv)
        tpv_s = _median(validated_runs["st_confidence"], lambda r: r.bin_report.tpv)
        acc_h = _median(validated_runs["hcgst"], lambda r: r.bin_report.acc_st)
        acc_b = _median(validated_runs["backbone_only"], lambda r: r.bin_report.acc_st)
        assert npv_h >= npv_s, f"median NPV {npv_h:.4f} < {npv_s:.4f}"
        assert tpv_h >= tpv_s, f"median TPV {tpv_h:.4f} < {tpv_s:.4f}"
        assert acc_h >= acc_b, f"median ACC {acc_h:.4f} < backbone {acc_b:.4f}"
    except BaseException:
        _fail_line(7, desc, t0)
        raise
    _finish(7, desc, t0, budget=600.0,
            extra=_fixture_cost.get("graph", 0) + _fixture_cost.get("validated", 0))


def test_criterion_08_ablation_ordering(fixture_graph, validated_runs):
    desc = "median ACC chain hcgst >= -dualhead >= -multihop >= -selection >= backbone (3/4)"
    t0 = time.monotonic()
    try:
        acc = {v: _median(validated_runs[v], lambda r: r.bin_report.acc_st)
               for v in ("hcgst", "no_dualhead", "no_multihop", "no_selection",
                         "backbone_only")}
        chain = [("hcgst", "no_dualhead"), ("no_dualhead", "no_multihop"),
                 ("no_multihop", "no_selection"), ("no_selection", "backbone_only")]
        holds = sum(acc[a] >= acc[b] for a, b in chain)
        assert holds >= 3, f"only {holds}/4 ordering relations hold: {acc}"
    except BaseException:
        _fail_line(8, desc, t0)
        raise
    _finish(8, desc, t0, budget=1200.0,
            extra=_fixture_cost.get("graph", 0) + _fixture_cost.get("validated", 0))


def test_criterion_09_inference_independence(fixture_graph):
    desc = "randomizing the pseudo head changes zero predictions"
    t0 = time.monotonic()
    try:
        view = k_hop_adjacency(fixture_graph, 1)
        labeled = sample_training_set(fixture_graph, LABEL_RATE, "representative", 10, 0)
        params = train_dual(init_params(fixture_graph.d, 32, fixture_graph.c, 0),
                            fixture_graph, view,
                            (labeled, fixture_graph.labels[labeled]), EMPTY, EMPTY,
                            TrainConfig(epochs=50), lambda_dual=0.09)
        base = predict(params, view, fixture_graph.features)
        params.w_pseudo[:] = np.random.default_rng(99).standard_normal(params.w_pseudo.shape) * 1e3
        after = predict(params, view, fixture_graph.features)
        assert np.array_equal(base, after)
    except BaseException:
        _fail_line(9, desc, t0)
        raise
    _finish(9, desc, t0, budget=1.0, extra=_fixture_cost.get("graph", 0))


def test_criterion_10_run_determinism(fixture_graph, tmp_path):
    desc = "repeated CLI run is bit-identical apart from the timestamp"
    t0 = time.monotonic()
    try:
        graph_dir = tmp_path / "graph"
        save_graph_dir(fixture_graph, graph_dir)
        args = ["run", "--graph", str(graph_dir), "--variant", "hcgst", "--seed", "4",
                "--stages", "3", "--label-rate", str(LABEL_RATE),
                "--bias-mode", "heterophily_biased", "--val-fraction", "0.1"]
        docs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert cli_main(args + ["--out", str(out)]) == 0
            doc = json.loads((out / "run_hcgst_4.json").read_text())
            doc.pop("generated_at")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]
    except BaseException:
        _fail_line(10, desc, t0)
        raise
    _finish(10, desc, t0, budget=120.0, extra=_fixture_cost.get("graph", 0))
