import numpy as np
import pytest

from hcgst.graph import NodePartition, k_hop_adjacency, make_partition, true_homophily_profile
from hcgst.homophily import bin_distribution, estimate_homophily_profile, target_distribution
from hcgst.metrics import kl_divergence
from hcgst.model import TrainConfig, forward, init_params, softmax_rows, train_dual
from hcgst.orchestrator import (VARIANTS, RunConfig, bias_metrics, per_bin_accuracy,
                                run_self_training)
from hcgst.synth import SynthConfig, generate_graph, sample_training_set

FAST_TRAIN = dict(epochs=150, learning_rate=0.02)


@pytest.fixture(scope="module")
def small_graph():
    cfg = SynthConfig(n=120, classes=3, feature_dim=8, mean_degree=6,
                      target_histogram=np.array([2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5]),
                      separation=2.5, cross_structure=0.85, seed=3)
    return generate_graph(cfg)


def _partition(graph, seed=0, n_val=20):
    labeled = sample_training_set(graph, 0.08, "representative", 10, seed)
    remaining = np.setdiff1d(np.arange(graph.n), labeled)
    rng = np.random.default_rng([seed, 1])
    val = np.sort(rng.choice(remaining, n_val, replace=False))
    return make_partition(graph.n, labeled, val)


def _cfg(**kw):
    train = TrainConfig(**FAST_TRAIN)
    base = dict(stages=3, hidden=16, seed=0, train=train)
    base.update(kw)
    return RunConfig(**base)


def test_per_bin_accuracy_all_correct():
    truth = np.array([0, 1, 0, 1])
    hh = np.array([0.1, 0.4, 0.6, 0.9])
    acc = per_bin_accuracy(truth, truth, hh, 4, np.arange(4))
    assert np.nanmax(acc) == 1.0 and np.nanmin(acc) == 1.0


def test_per_bin_accuracy_flags_empty_bins():
    truth = np.array([0, 1])
    acc = per_bin_accuracy(truth, truth, np.array([0.05, 0.08]), 10, np.arange(2))
    assert not np.isnan(acc[0])
    assert np.all(np.isnan(acc[1:]))


def test_per_bin_accuracy_hand_fixture():
    preds = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 0, 1])  # 2 right, 2 wrong in the single bin
    acc = per_bin_accuracy(preds, truth, np.full(4, 0.5), 2, np.arange(4))
    assert acc[1] == 0.5


def test_bias_metrics_identical_vectors():
    v = np.array([0.5, 0.7, 0.9])
    assert bias_metrics(v, v) == (0.0, 0.0, 0.0)


def test_bias_metrics_hand_fixtures():
    tpv, npv, ppv = bias_metrics(np.array([3.0, -3.0]), np.array([1.0, 1.0]))
    assert (tpv, npv, ppv) == (-1.0, -4.0, 2.0)
    tpv, npv, ppv = bias_metrics(np.array([7.0, -1.0]), np.array([1.0, 1.0]))
    assert (tpv, npv, ppv) == (2.0, -2.0, 6.0)


def test_bias_metrics_skips_nan_bins():
    st = np.array([0.5, np.nan, 0.9])
    back = np.array([0.4, 0.2, np.nan])
    tpv, npv, ppv = bias_metrics(st, back)
    assert tpv == pytest.approx(0.1)
    assert npv == 0.0 and ppv == pytest.approx(0.1)


def test_tpv_between_npv_and_ppv():
    rng = np.random.default_rng(0)
    for _ in range(20):
        st, back = rng.random(8), rng.random(8)
        tpv, npv, ppv = bias_metrics(st, back)
        deltas = st - back
        if (deltas < 0).any() and (deltas > 0).any():
            assert npv <= tpv <= ppv


def test_unknown_variant_rejected(small_graph):
    with pytest.raises(ValueError, match="variant"):
        _cfg(variant="maximum_effort")


def test_requires_nonempty_labeled(small_graph):
    part = make_partition(small_graph.n, [], [1, 2])
    with pytest.raises(ValueError, match="non-empty"):
        run_self_training(small_graph, part, _cfg())


@pytest.mark.parametrize("bad", [-1, 120])
def test_rejects_node_ids_outside_the_graph(small_graph, bad):
    assert small_graph.n == 120
    part = make_partition(small_graph.n, [bad, 0, 1, 2, 3, 4], [5, 6])
    with pytest.raises(ValueError, match=f"labeled node {bad} outside"):
        run_self_training(small_graph, part, _cfg())
    by_hand = NodePartition(labeled=[0, 1, 2], validation=[bad], unlabeled=np.arange(3, 119))
    with pytest.raises(ValueError, match=f"validation node {bad} outside"):
        run_self_training(small_graph, by_hand, _cfg())
    by_hand = NodePartition(labeled=[0, 1, 2], validation=[3], unlabeled=[4, 5, bad])
    with pytest.raises(ValueError, match=f"unlabeled node {bad} outside"):
        run_self_training(small_graph, by_hand, _cfg())


@pytest.mark.parametrize("variant", ["hcgst", "st_confidence"])
def test_kl_picks_target_recomputed_from_first_stage_picks(small_graph, variant):
    cfg = _cfg(variant=variant, stages=1)
    part = _partition(small_graph)
    stage = run_self_training(small_graph, part, cfg).stage_reports[0]
    assert stage.selected  # the stage picked nodes

    # the first stage selects on the backbone's output, labeled nodes pinned
    y = small_graph.labels
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    view = k_hop_adjacency(small_graph, 1)
    backbone = train_dual(init_params(small_graph.d, cfg.hidden, small_graph.c, cfg.seed),
                          small_graph, view, (part.labeled, y[part.labeled]), empty, empty,
                          cfg.train, cfg.lambda_d, validation=(part.validation, y[part.validation]))
    soft = softmax_rows(forward(backbone, view, small_graph.features))
    est_h = estimate_homophily_profile(soft, small_graph, {int(v): int(y[v]) for v in part.labeled})
    target = target_distribution(bin_distribution(est_h, cfg.n_bins),
                                 bin_distribution(est_h[part.labeled], cfg.n_bins), part.labeled.size)
    picked = bin_distribution(est_h[stage.selected], cfg.n_bins)
    assert stage.kl_picks_target == pytest.approx(kl_divergence(picked, target), abs=1e-12)


def test_backbone_only_reports_zero_deltas(small_graph):
    rep = run_self_training(small_graph, _partition(small_graph), _cfg(variant="backbone_only"))
    br = rep.bin_report
    assert rep.stage_reports == []
    assert (br.tpv, br.npv, br.ppv) == (0.0, 0.0, 0.0)
    assert br.acc_st == br.acc_backbone
    assert rep.best_stage == 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_summary_is_the_last_stage_report(small_graph, variant):
    part = _partition(small_graph)
    rep = run_self_training(small_graph, part, _cfg(variant=variant))
    summary = [rep.final_kl_true, rep.final_kl_est, rep.pseudo_mean_est_h, rep.global_mean_est_h,
               rep.pseudo_mean_true_h]
    true_h = true_homophily_profile(small_graph)
    picks = np.array([v for s in rep.stage_reports for v in s.selected], dtype=np.int64)
    pool_kl = kl_divergence(bin_distribution(true_h[np.concatenate([part.labeled, picks])], 10),
                            bin_distribution(true_h, 10))
    assert rep.final_kl_true == pool_kl
    if variant == "backbone_only":
        np.testing.assert_equal(summary, [pool_kl] + [np.nan] * 4)
        return
    last = rep.stage_reports[-1]
    np.testing.assert_equal(summary, [last.kl_local_global_true, last.kl_local_global_est,
                                      last.pseudo_mean_est_h, last.global_mean_est_h,
                                      last.pseudo_mean_true_h])
    np.testing.assert_equal(rep.pseudo_mean_true_h, np.mean(true_h[picks]) if picks.size else np.nan)


def test_no_candidates_degenerates_to_backbone(small_graph):
    # short training keeps every softmax below the near-one threshold
    gentle = TrainConfig(epochs=30, learning_rate=0.005)
    degenerate = run_self_training(small_graph, _partition(small_graph),
                             _cfg(stages=1, delta_c=0.999, variant="hcgst", train=gentle))
    backbone = run_self_training(small_graph, _partition(small_graph),
                           _cfg(variant="backbone_only", train=gentle))
    assert degenerate.final_pseudo_count == 0
    assert degenerate.bin_report == backbone.bin_report
    assert degenerate.test_acc == backbone.test_acc


def test_pseudo_set_grows_by_at_most_k_and_stays_unique(small_graph):
    cfg = _cfg(variant="hcgst", k_per_stage=4, stages=4)
    part = _partition(small_graph)
    rep = run_self_training(small_graph, part, cfg)
    seen = []
    for stage in rep.stage_reports:
        assert len(stage.selected) <= 4
        seen.extend(stage.selected)
    assert len(seen) == len(set(seen))
    assert rep.final_pseudo_count == len(seen)
    assert seen and not set(seen) & set(np.concatenate([part.labeled, part.validation]).tolist())


def test_partition_not_mutated(small_graph):
    part = _partition(small_graph)
    before = [part.labeled.copy(), part.validation.copy(), part.unlabeled.copy()]
    run_self_training(small_graph, part, _cfg(variant="hcgst"))
    for now, then in zip([part.labeled, part.validation, part.unlabeled], before):
        assert np.array_equal(now, then)


def test_run_deterministic(small_graph):
    from hcgst.cli import _sanitize

    a = run_self_training(small_graph, _partition(small_graph), _cfg(variant="hcgst"))
    b = run_self_training(small_graph, _partition(small_graph), _cfg(variant="hcgst"))
    assert _sanitize(a.to_dict()) == _sanitize(b.to_dict())


def test_no_multihop_routes_nothing(small_graph):
    rep = run_self_training(small_graph, _partition(small_graph), _cfg(variant="no_multihop"))
    assert all(s.n_multi_hop == 0 for s in rep.stage_reports)


def test_st_confidence_routes_nothing_and_keeps_pseudo_head(small_graph):
    cfg = _cfg(variant="st_confidence")
    rep = run_self_training(small_graph, _partition(small_graph), cfg)
    assert all(s.n_multi_hop == 0 for s in rep.stage_reports)
    fresh = init_params(small_graph.d, cfg.hidden, small_graph.c, cfg.seed)
    assert np.array_equal(rep.params.w_pseudo, fresh.w_pseudo)


def test_no_dualhead_leaves_pseudo_head_at_init(small_graph):
    cfg = _cfg(variant="no_dualhead")
    rep = run_self_training(small_graph, _partition(small_graph), cfg)
    assert rep.final_pseudo_count > 0  # self-training actually ran
    fresh = init_params(small_graph.d, cfg.hidden, small_graph.c, cfg.seed)
    assert np.array_equal(rep.params.w_pseudo, fresh.w_pseudo)


def test_hcgst_trains_pseudo_head_when_leftovers_exist(small_graph):
    cfg = _cfg(variant="hcgst", k_per_stage=3)
    rep = run_self_training(small_graph, _partition(small_graph), cfg)
    candidates_beyond_k = any(s.n_candidates > 3 for s in rep.stage_reports)
    if candidates_beyond_k and rep.best_stage > 0:
        fresh = init_params(small_graph.d, cfg.hidden, small_graph.c, cfg.seed)
        assert not np.array_equal(rep.params.w_pseudo, fresh.w_pseudo)


def test_empty_candidate_stages_keep_model_and_cost_patience(small_graph):
    # short training keeps every softmax below the near-one threshold
    cfg = _cfg(stages=4, delta_c=0.999, train=TrainConfig(epochs=30, learning_rate=0.005))
    labeled = sample_training_set(small_graph, 0.08, "representative", 10, 0)
    no_val = run_self_training(small_graph, make_partition(small_graph.n, labeled, []), cfg)
    assert [s.n_candidates for s in no_val.stage_reports] == [0, 0, 0, 0]
    assert all(np.isnan(s.kl_picks_target) for s in no_val.stage_reports)
    assert no_val.best_stage == 0 and no_val.final_pseudo_count == 0
    with_val = run_self_training(small_graph, _partition(small_graph), cfg)
    assert len(with_val.stage_reports) == 2  # two stages without improvement end the run
    assert with_val.best_stage == 0
    assert all(s.val_acc == with_val.val_acc for s in with_val.stage_reports)


def test_stage_reports_within_budget(small_graph):
    rep = run_self_training(small_graph, _partition(small_graph), _cfg(variant="hcgst", stages=5))
    assert len(rep.stage_reports) <= 5
    for s in rep.stage_reports:
        assert np.isfinite(s.kl_local_global_est)
        assert np.isfinite(s.cmd_global_local)
        assert 0 <= s.val_acc <= 1
        assert 0 <= s.test_acc <= 1


def test_empty_validation_runs_all_stages(small_graph):
    labeled = sample_training_set(small_graph, 0.05, "representative", 10, 0)
    part = make_partition(small_graph.n, labeled, [])
    rep = run_self_training(small_graph, part, _cfg(variant="hcgst", stages=3))
    assert len(rep.stage_reports) == 3
    assert rep.best_stage == max(s.stage for s in rep.stage_reports)
