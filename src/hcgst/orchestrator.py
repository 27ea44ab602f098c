"""Self-training stage loop, baseline/ablation variants, and training-bias metrics.

One run: train a backbone on the clean labels, then repeat select -> label ->
retrain stages. Each stage forms a high-confidence candidate set, estimates
the homophily-ratio distributions, optimizes the selection vector against the
global distribution, pseudo-labels the chosen nodes through the multi-hop
mixing rule, and retrains the dual-head model. The model with the best
validation accuracy across stages is the final one.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .graph import Graph, NodePartition, k_hop_adjacency, true_homophily_profile
from .homophily import bin_distribution, bin_index, estimate_homophily_profile, target_distribution
from .metrics import cmd, kl_divergence
from .model import TrainConfig, _one_blas_thread, forward, init_params, softmax_rows, train_dual
from .pseudolabel import assign_pseudo_labels
from .selection import SelectionProblem, candidate_set, optimize_selection, top_k

logger = logging.getLogger(__name__)

VARIANTS = ("hcgst", "st_confidence", "no_selection", "no_multihop",
            "no_dualhead", "backbone_only", "cmd_only")


@dataclass
class RunConfig:
    stages: int = 10
    k_per_stage: int | None = None  # None: match the labeled-set size
    delta_c: float = 0.65
    delta_h: float = 0.4
    lambda_s: float = 2.0
    lambda_d: float = 0.09
    n_bins: int = 10
    hop: int = 2
    variant: str = "hcgst"
    seed: int = 0
    hidden: int = 32
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages}")
        if self.k_per_stage is not None and self.k_per_stage < 1:
            raise ValueError(f"k_per_stage must be >= 1, got {self.k_per_stage}")
        if not 0 < self.delta_c < 1:
            raise ValueError(f"delta_c must lie in (0, 1), got {self.delta_c}")
        if self.delta_h < 0:
            raise ValueError(f"delta_h must be >= 0, got {self.delta_h}")
        if self.lambda_s < 0 or self.lambda_d < 0:
            raise ValueError("lambda_s and lambda_d must be >= 0")
        if self.n_bins < 1 or self.hop < 1:
            raise ValueError("n_bins and hop must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")


@dataclass
class StageReport:
    stage: int
    selected: list
    assigned_labels: list
    selected_multi_hop: list   # per selected node: labeled from the multi-hop output?
    selected_confidence: list  # per selected node: max softmax at selection time
    n_candidates: int
    n_multi_hop: int
    kl_picks_target: float     # KL(picks' estimated-homophily bins, target); NaN without candidates
    pseudo_mean_est_h: float
    pseudo_mean_true_h: float
    global_mean_est_h: float
    kl_local_global_true: float
    kl_local_global_est: float
    cmd_global_local: float
    val_acc: float
    test_acc: float


@dataclass
class BinReport:
    bin_acc_backbone: list   # per-bin accuracy, None where the bin has no test nodes
    bin_acc_st: list
    deltas: list             # self-trained minus backbone over non-empty bins
    tpv: float
    npv: float
    ppv: float
    acc_backbone: float
    acc_st: float


@dataclass
class RunReport:
    variant: str
    seed: int
    config: dict
    stage_reports: list
    best_stage: int
    val_acc: float
    test_acc: float
    bin_report: BinReport
    final_pseudo_count: int
    final_kl_true: float
    final_kl_est: float
    pseudo_mean_est_h: float
    global_mean_est_h: float
    pseudo_mean_true_h: float
    global_mean_true_h: float
    params: object = field(default=None, repr=False)  # model state, excluded from to_dict

    def to_dict(self) -> dict:
        """JSON form: the stage reports under ``stages``, the model state left out."""
        out = asdict(replace(self, params=None))
        del out["params"]
        out["stages"] = out.pop("stage_reports")
        return out


def per_bin_accuracy(predictions, truth, true_homophily, n_bins: int, test_set) -> np.ndarray:
    """Accuracy among test nodes per true-homophily bin; NaN flags empty bins."""
    test_set = np.asarray(test_set, dtype=np.int64)
    idx = bin_index(np.asarray(true_homophily)[test_set], n_bins)
    correct = np.asarray(predictions)[test_set] == np.asarray(truth)[test_set]
    sizes = np.bincount(idx, minlength=n_bins)
    # both counts are exact in float64, so the division equals np.mean of the bools
    return np.divide(np.bincount(idx, weights=correct, minlength=n_bins), sizes,
                     out=np.full(n_bins, np.nan), where=sizes > 0)


def bias_metrics(acc_st_bins, acc_backbone_bins):
    """(TPV, NPV, PPV): mean per-bin accuracy change overall, over worsened bins,
    and over improved bins. Bins flagged NaN on either side are excluded; an
    empty worsened (improved) set gives NPV (PPV) of 0."""
    st = np.asarray(acc_st_bins, dtype=np.float64)
    back = np.asarray(acc_backbone_bins, dtype=np.float64)
    if st.shape != back.shape:
        raise ValueError("bin accuracy vectors must be co-indexed")
    keep = ~(np.isnan(st) | np.isnan(back))
    deltas = st[keep] - back[keep]
    if deltas.size == 0:
        return 0.0, 0.0, 0.0
    tpv = float(np.mean(deltas))
    neg = deltas[deltas < 0]
    pos = deltas[deltas > 0]
    npv = float(np.mean(neg)) if neg.size else 0.0
    ppv = float(np.mean(pos)) if pos.size else 0.0
    return tpv, npv, ppv


@dataclass(frozen=True)
class _Knobs:
    optimized_selection: bool
    lambda_s: float
    delta_h: float
    dual_head: bool
    stages: int


def _variant_knobs(cfg: RunConfig) -> _Knobs:
    v = cfg.variant
    return _Knobs(
        optimized_selection=v in ("hcgst", "cmd_only", "no_multihop", "no_dualhead"),
        lambda_s=0.0 if v == "cmd_only" else cfg.lambda_s,
        delta_h=0.0 if v in ("st_confidence", "no_multihop") else cfg.delta_h,
        dual_head=v in ("hcgst", "cmd_only", "no_selection", "no_multihop"),
        stages=0 if v == "backbone_only" else cfg.stages,
    )


def _accuracy(predictions, truth, idx) -> float:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return float("nan")
    return float(np.mean(np.asarray(predictions)[idx] == np.asarray(truth)[idx]))


@_one_blas_thread()
def run_self_training(graph: Graph, partition: NodePartition, cfg: RunConfig) -> RunReport:
    """Execute the full self-training workflow and report per-stage and per-bin results.

    The partition is never changed. Stages stop early when validation
    accuracy fails to improve for two consecutive stages; with an empty
    validation set every stage runs and the last model wins. The run uses one
    BLAS thread; ``hcgst run --jobs`` spreads whole runs over cores.
    """
    if graph.labels is None:
        raise ValueError("self-training requires ground-truth labels for the labeled set")
    if partition.labeled.size == 0:
        raise ValueError("labeled set must be non-empty")
    if partition.unlabeled.size == 0:
        raise ValueError("unlabeled set must be non-empty: it is the test set")
    for name in ("labeled", "validation", "unlabeled"):
        ids = getattr(partition, name)
        bad = ids[(ids < 0) | (ids >= graph.n)]
        if bad.size:
            raise ValueError(f"{name} node {int(bad[0])} outside [0, {graph.n})")

    knobs = _variant_knobs(cfg)
    y_true = graph.labels
    x = graph.features
    n_bins = cfg.n_bins
    # the training pool: labeled nodes first, then each stage's picks; pool[n_labeled:] are pseudo
    pool, pool_y = partition.labeled, y_true[partition.labeled]
    n_labeled = pool.size
    k_stage = cfg.k_per_stage if cfg.k_per_stage is not None else n_labeled

    view1 = k_hop_adjacency(graph, 1)
    view_k = None
    have_val = partition.validation.size > 0
    val_pair = (partition.validation, y_true[partition.validation]) if have_val else None

    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def train(stage, leftover_pair):
        # retraining always uses the one-hop view; multi-hop outputs only label
        try:
            return train_dual(init_params(graph.d, cfg.hidden, graph.c, cfg.seed), graph, view1,
                              (pool, pool_y), empty, leftover_pair, cfg.train, cfg.lambda_d,
                              validation=val_pair)
        except RuntimeError as err:
            raise RuntimeError(f"training diverged at stage {stage}: {err}") from err

    params = train(0, empty)
    logits = forward(params, view1, x)
    backbone_preds = np.argmax(logits, axis=1)
    val_acc = _accuracy(backbone_preds, y_true, partition.validation)

    true_profile = true_homophily_profile(graph)
    global_true = bin_distribution(true_profile, n_bins)

    best_val, best_stage, best_params, best_preds = val_acc, 0, params, backbone_preds
    patience = 0
    stage_reports = []

    for s in range(1, knobs.stages + 1):
        soft = softmax_rows(logits)
        conf = soft.max(axis=1)

        override = dict(zip(pool.tolist(), pool_y.tolist()))
        est_h = estimate_homophily_profile(soft, graph, override)
        global_est = bin_distribution(est_h, n_bins)

        # an empty candidate set skips selection and retraining: the stage keeps
        # the current model, cannot become the best stage and costs patience
        cands = candidate_set(soft, pool[n_labeled:], partition.labeled, partition.validation,
                              cfg.delta_c)
        selected = new_labels = np.empty(0, dtype=np.int64)
        from_multi_hop = np.empty(0, dtype=bool)
        kl_picks = float("nan")
        if cands.size == 0:
            logger.warning("stage %d: empty candidate set, skipping", s)
        else:
            local_est = bin_distribution(est_h[pool], n_bins)
            target = target_distribution(global_est, local_est, k_stage)

            q = np.zeros(cands.size)  # a constant q ranks by confidence alone
            if knobs.optimized_selection:
                problem = SelectionProblem(candidates=cands, cand_repr=logits[cands],
                                           global_repr=logits, cand_homophily=est_h[cands],
                                           target=target, k=k_stage, lambda_s=knobs.lambda_s,
                                           n_bins=n_bins)
                q = optimize_selection(problem).q
            selected = top_k(q, k_stage, cands, conf[cands])
            kl_picks = kl_divergence(bin_distribution(est_h[selected], n_bins), target)

            if knobs.delta_h > 0:
                if view_k is None:
                    view_k = k_hop_adjacency(graph, cfg.hop)
                multi_logits = forward(params, view_k, x)
            else:
                multi_logits = logits
            cand_labels, cand_multi_hop = assign_pseudo_labels(logits, multi_logits, est_h,
                                                               knobs.delta_h, cands)

            picked = np.searchsorted(cands, selected)  # cands ascend
            new_labels, from_multi_hop = cand_labels[picked], cand_multi_hop[picked]
            pool, pool_y = np.concatenate([pool, selected]), np.concatenate([pool_y, new_labels])

            # the leftover candidates train the pseudo head; an empty pair switches it off
            rest = np.delete(np.arange(cands.size), picked) if knobs.dual_head else picked[:0]
            params = train(s, (cands[rest], cand_labels[rest]))
            logits = forward(params, view1, x)  # also the next stage's selection pass

        preds = np.argmax(logits, axis=1)
        val_acc = _accuracy(preds, y_true, partition.validation)
        test_acc = _accuracy(preds, y_true, partition.unlabeled)
        pseudo = pool[n_labeled:]
        stage_reports.append(StageReport(
            stage=s,
            selected=selected.tolist(),
            assigned_labels=new_labels.tolist(),
            selected_multi_hop=from_multi_hop.tolist(),
            selected_confidence=conf[selected].tolist(),
            n_candidates=int(cands.size),
            n_multi_hop=int(from_multi_hop.sum()),
            kl_picks_target=kl_picks,
            pseudo_mean_est_h=float(np.mean(est_h[pseudo])) if pseudo.size else float("nan"),
            pseudo_mean_true_h=float(np.mean(true_profile[pseudo])) if pseudo.size else float("nan"),
            global_mean_est_h=float(np.mean(est_h)),
            kl_local_global_true=float(kl_divergence(bin_distribution(true_profile[pool], n_bins),
                                                     global_true)),
            kl_local_global_est=float(kl_divergence(bin_distribution(est_h[pool], n_bins), global_est)),
            cmd_global_local=float(cmd(logits, logits[pool])),
            val_acc=float(val_acc),
            test_acc=float(test_acc),
        ))

        if cands.size and (not have_val or val_acc > best_val):
            best_val, best_stage, best_params, best_preds = val_acc, s, params, preds
            patience = 0
        else:
            patience += 1
        if have_val and patience >= 2:
            break

    bins_backbone = per_bin_accuracy(backbone_preds, y_true, true_profile, n_bins, partition.unlabeled)
    bins_st = per_bin_accuracy(best_preds, y_true, true_profile, n_bins, partition.unlabeled)
    tpv, npv, ppv = bias_metrics(bins_st, bins_backbone)
    keep = ~(np.isnan(bins_st) | np.isnan(bins_backbone))
    bin_report = BinReport(
        bin_acc_backbone=[None if np.isnan(v) else float(v) for v in bins_backbone],
        bin_acc_st=[None if np.isnan(v) else float(v) for v in bins_st],
        deltas=(bins_st[keep] - bins_backbone[keep]).tolist(),
        tpv=tpv, npv=npv, ppv=ppv,
        acc_backbone=_accuracy(backbone_preds, y_true, partition.unlabeled),
        acc_st=_accuracy(best_preds, y_true, partition.unlabeled),
    )

    if stage_reports:  # the loop stops right after a report, so the last one holds the final pool
        last = stage_reports[-1]
        final = dict(final_kl_true=last.kl_local_global_true, final_kl_est=last.kl_local_global_est,
                     pseudo_mean_est_h=last.pseudo_mean_est_h, global_mean_est_h=last.global_mean_est_h,
                     pseudo_mean_true_h=last.pseudo_mean_true_h)
    else:  # no stage: the pool is the labeled set, and no homophily was estimated
        nan = float("nan")
        pool_kl = kl_divergence(bin_distribution(true_profile[pool], n_bins), global_true)
        final = dict(final_kl_true=float(pool_kl), final_kl_est=nan, pseudo_mean_est_h=nan,
                     global_mean_est_h=nan, pseudo_mean_true_h=nan)
    return RunReport(
        variant=cfg.variant, seed=cfg.seed, config=asdict(cfg),
        stage_reports=stage_reports, best_stage=best_stage,
        val_acc=best_val, test_acc=bin_report.acc_st, bin_report=bin_report,
        final_pseudo_count=int(pool.size - n_labeled),
        **final, global_mean_true_h=float(np.mean(true_profile)),
        params=best_params,
    )


def stage_csv_rows(report: RunReport):
    """Flat rows (one per stage) for stages.csv: n_selected and the scalar StageReport fields."""
    scalars = [f.name for f in fields(StageReport) if f.type != "list" and f.name != "stage"]
    header = ["variant", "seed", "stage", "n_selected", *scalars]
    rows = [[report.variant, report.seed, s.stage, len(s.selected), *(getattr(s, k) for k in scalars)]
            for s in report.stage_reports]
    return header, rows


def bin_csv_rows(report: RunReport):
    """Flat rows (one per homophily bin) for bins.csv emission."""
    header = ["variant", "seed", "bin", "acc_backbone", "acc_self_trained", "delta"]
    rows = []
    br = report.bin_report
    for i, (b, s) in enumerate(zip(br.bin_acc_backbone, br.bin_acc_st)):
        delta = None if b is None or s is None else s - b
        rows.append([report.variant, report.seed, i, b, s, delta])
    return header, rows
