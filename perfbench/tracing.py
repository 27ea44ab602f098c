"""Span tracing of hcgst from outside the library.

``Tracer.install`` replaces every public function of the hcgst modules, at
every module attribute through which callers look it up, with a wrapper that
records one span per call: (id, name, start, end, parent id, run id). Spans
stay in memory until the caller writes them out. ``Tracer.restore`` puts the
original functions back and reports any attribute it could not restore.

Self time is a span's duration minus the time covered by its child spans.
Every span's self time is charged to exactly one layer metric (its bucket),
so the bucket totals add up to the traced section's wall time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
import types

import numpy as np

MODULES = ("hcgst", "hcgst.graph", "hcgst.homophily", "hcgst.metrics", "hcgst.model",
           "hcgst.selection", "hcgst.pseudolabel", "hcgst.orchestrator", "hcgst.synth",
           "hcgst.cli")

ROOT_BUCKET = "trace.other_s"

# Self-time bucket of each traced function. A function not listed here (such
# as bin_index, softmax_rows, build_graph or make_partition) charges its self
# time to the bucket of the span that called it.
BUCKETS = {
    "cli.main": "cli.self_s",
    "cli.build_parser": "cli.self_s",
    "cli.cmd_run": "cli.self_s",
    "cli.cmd_generate": "cli.self_s",
    "cli.cmd_sweep": "cli.self_s",
    "cli.cmd_report": "cli.self_s",
    "cli.build_partition": "cli.partition_s",
    "orchestrator.run_variant": "orchestrator.self_s",
    "orchestrator.run_self_training": "orchestrator.self_s",
    "orchestrator.per_bin_accuracy": "orchestrator.self_s",
    "orchestrator.bias_metrics": "orchestrator.self_s",
    "orchestrator.stage_csv_rows": "orchestrator.self_s",
    "orchestrator.bin_csv_rows": "orchestrator.self_s",
    "model.train_dual": "model.step_s",
    "model.dual_loss_and_grads": "model.grad_s",
    "model.forward": "model.forward_s",
    "model.predict": "model.forward_s",
    "selection.candidate_set": "selection.candidates_s",
    "selection.optimize_selection": "selection.pgd_s",
    "selection.selection_loss_and_grad": "selection.pgd_s",
    "selection.selection_bin_mass": "selection.pgd_s",
    "selection.top_k": "selection.topk_s",
    "metrics.cmd_weighted_with_grad": "metrics.cmd_grad_s",
    "metrics.kl_divergence_with_grad": "metrics.kl_grad_s",
    "metrics.cmd": "metrics.report_s",
    "metrics.cmd_weighted": "metrics.report_s",
    "metrics.kl_divergence": "metrics.report_s",
    "homophily.estimate_homophily_profile": "homophily.estimate_s",
    "homophily.estimate_node_homophily": "homophily.estimate_s",
    "homophily.estimate_distribution": "homophily.estimate_s",
    "homophily.bin_distribution": "homophily.bins_s",
    "homophily.target_distribution": "homophily.bins_s",
    "graph.true_homophily_profile": "graph.true_profile_s",
    "graph.true_node_homophily": "graph.true_profile_s",
    "graph.graph_homophily": "graph.true_profile_s",
    "graph.k_hop_adjacency": "graph.khop_s",
    "graph.load_graph_dir": "graph.load_s",
    "graph.save_graph_dir": "graph.save_s",
    "synth.generate_graph": "synth.generate_s",
    "synth.sample_training_set": "synth.sample_s",
    "pseudolabel.mix_outputs": "pseudolabel.route_s",
    "pseudolabel.assign_pseudo_labels": "pseudolabel.route_s",
}

# A listed function called directly by the named function belongs to its
# caller's work: the KL value behind a stage report is report time, not
# selection-gradient time.
NESTED = {
    "metrics.kl_divergence_with_grad": "metrics.kl_divergence",
    "metrics.cmd_weighted_with_grad": "metrics.cmd_weighted",
}

# Exact counts: metric name -> function whose calls it counts.
CALL_COUNTS = {
    "model.epochs": "model.dual_loss_and_grads",
    "model.forward_calls": "model.forward",
    "selection.pgd_iters": "selection.selection_loss_and_grad",
    "metrics.cmd_grad_calls": "metrics.cmd_weighted_with_grad",
    "homophily.estimate_calls": "homophily.estimate_homophily_profile",
    "graph.khop_calls": "graph.k_hop_adjacency",
}

def _short_name(fn) -> str:
    return f"{fn.__module__.removeprefix('hcgst.')}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans = []        # [id, name, start, end, parent, run_id]
        self.stack = [-1]
        self.section_id = ""
        self.run_id = ""
        self.counts = {"selection.candidates": 0, "selection.pgd_calls": 0,
                       "selection.pgd_moved_calls": 0, "orchestrator.stages": 0}
        self._patched = []     # (module, attribute, original)
        self._runs = 0

    # --- installing and restoring -------------------------------------------------

    def install(self) -> None:
        # import every module before patching any: a module imported later
        # would copy already-wrapped functions into its namespace
        modules = [importlib.import_module(name) for name in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("hcgst")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))

    def restore(self) -> list:
        """Put every original back; return the attributes that still hold a wrapper."""
        for mod, attr, orig in self._patched:
            setattr(mod, attr, orig)
        self._patched = []
        return [f"{name}.{attr}" for name in MODULES
                for attr, obj in vars(importlib.import_module(name)).items()
                if getattr(obj, "_perfbench_traced", False)]

    def _wrap(self, fn):
        name = _short_name(fn)
        spans, stack = self.spans, self.stack
        after = getattr(self, "_after_" + fn.__name__, None)
        starts_run = name == "orchestrator.run_self_training"

        def traced(*args, **kwargs):
            outer_run = self.run_id
            if starts_run:  # spans of one hcgst run share a run id
                self._runs += 1
                self.run_id = f"{self.section_id}/run{self._runs}"
            rec = [len(spans), name, 0.0, 0.0, stack[-1], self.run_id]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                self.run_id = outer_run
            if after is not None:
                after(args, kwargs, result)
            return result

        traced = functools.wraps(fn)(traced)
        traced._perfbench_traced = True
        return traced

    # --- counts taken from arguments and results ----------------------------------

    def _after_candidate_set(self, args, kwargs, result):
        self.counts["selection.candidates"] += int(len(result))

    def _after_optimize_selection(self, args, kwargs, result):
        problem = args[0] if args else kwargs["problem"]
        q0 = min(problem.k / len(problem.candidates), 1.0)
        self.counts["selection.pgd_calls"] += 1
        self.counts["selection.pgd_moved_calls"] += int(not np.all(np.asarray(result.q) == q0))

    def _after_run_self_training(self, args, kwargs, result):
        self.counts["orchestrator.stages"] += len(result.stage_reports)

    # --- spans ----------------------------------------------------------------------

    def section(self, run_id: str):
        """Context manager for a root span around one timed section."""
        return _Section(self, run_id)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["id", "name", "start", "end", "parent", "run_id"])
            w.writerows(self.spans)


class _Section:
    def __init__(self, tracer: Tracer, run_id: str):
        self.tracer = tracer
        self.run_id = run_id

    def __enter__(self):
        t = self.tracer
        t.section_id = t.run_id = self.run_id
        self.rec = [len(t.spans), "section", 0.0, 0.0, -1, self.run_id]
        t.spans.append(self.rec)
        t.stack.append(self.rec[0])
        self.rec[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter()
        self.tracer.stack.pop()
        return False


def self_times(spans) -> list:
    """Per-span self time: duration minus the durations of direct children.

    Calls are synchronous, so children never overlap and their durations add.
    """
    child = [0.0] * len(spans)
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, start, end, _, _ in spans]


def buckets(spans) -> list:
    out = []
    for _, name, _, _, parent, _ in spans:
        if parent < 0:
            out.append(ROOT_BUCKET)
            continue
        bucket = BUCKETS.get(name)
        if bucket is None or NESTED.get(name) == spans[parent][1]:
            bucket = out[parent]
        out.append(bucket)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Bucket self-time totals, call counts and derived ratios for all spans."""
    spans = tracer.spans
    totals = {}
    for bucket, self_s in zip(buckets(spans), self_times(spans)):
        totals[bucket] = totals.get(bucket, 0.0) + self_s
    calls = {}
    for rec in spans:
        calls[rec[1]] = calls.get(rec[1], 0) + 1
    out = {name: totals.get(name, 0.0) for name in set(BUCKETS.values()) | {ROOT_BUCKET}}
    out.update({metric: calls.get(fn, 0) for metric, fn in CALL_COUNTS.items()})
    # train_dual spans never nest, so their durations add to the inclusive time
    train = [end - start for _, name, start, end, _, _ in spans if name == "model.train_dual"]
    out["model.train_s"] = sum(train)
    out["epoch_ms_samples"] = [1000.0 * (end - start) for _, name, start, end, _, _ in spans
                               if name == "model.dual_loss_and_grads"]
    out.update(tracer.counts)
    out["trace.run_s"] = sum(end - start for _, _, start, end, parent, _ in spans if parent < 0)
    out["trace.spans"] = len(spans)
    return out


def bucket_total(layers) -> float:
    """Sum of the self-time buckets; equals layers["trace.run_s"]."""
    return sum(v for k, v in layers.items()
               if k.endswith("_s") and k not in ("model.train_s", "trace.run_s"))
