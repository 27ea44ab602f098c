"""The set-up or the timed iterations of a workload, in a process of their own.

    python3 perfbench/worker.py '<job JSON>'

``run.py`` starts one worker for the set-up and one for the timed iterations,
so that peak memory and CPU time belong to a process that runs only that
workload. The worker imports hcgst from the checkout's ``src`` directory,
optionally wraps it with the tracer, runs the timed part, restores the
originals, checks the outputs and writes a JSON result to ``job["result"]``.
It exits non-zero on any exception, and the caller counts that as a failed
attempt.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

FIXTURE_HISTOGRAM = [2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5]
DELTA_C = 0.65


def _measure(fn, tracer, run_id):
    """Wall and process CPU time (all threads) of fn(), inside a root span when traced."""
    span = tracer.section(run_id) if tracer else contextlib.nullcontext()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with span:
        value = fn()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return value, wall, cpu


def _graph_seed(seed: int) -> int:
    return 7 + seed  # seed 0 reproduces the ROADMAP baseline graphs


def _write_graph(spec, seed, graph_dir):
    from hcgst import cli, graph, synth

    if spec["graph"] == "generate_cli":
        code = cli.main(["generate", "--n", str(spec["n"]), "--seed", str(_graph_seed(seed)),
                         "--out", str(graph_dir)])
        if code != 0:
            raise RuntimeError(f"hcgst generate exited {code}")
        return
    cfg = synth.SynthConfig(n=spec["n"], classes=4, feature_dim=16, mean_degree=8,
                            target_histogram=FIXTURE_HISTOGRAM, separation=1.2,
                            cross_structure=0.85, seed=_graph_seed(seed))
    graph.save_graph_dir(synth.generate_graph(cfg), graph_dir)


def task_setup(job, tracer):
    import hcgst.cli  # noqa: F401  (imported before the first timed set-up)

    spec, graph_dir = job["spec"], Path(job["graph_dir"])
    walls = []
    for rep in range(spec["setup_repeats"]):
        shutil.rmtree(graph_dir, ignore_errors=True)
        _, wall, _ = _measure(lambda: _write_graph(spec, job["seed"], graph_dir), tracer,
                              f"setup{rep}")
        walls.append(wall)
    return {"setup_s": walls}, lambda: {"runs": []}


def _iterate(job, tracer, section, keep):
    """Run section(i) until the timed work is as close to job["seconds"] as
    whole iterations of median length get it, at least the workload's minimum
    number of times, but not past job["budget_s"]; keep(i, value) sees each
    result outside the timed part."""
    walls, cpus = [], []
    deadline = time.monotonic() + job["budget_s"]
    while True:
        i = len(walls)
        value, wall, cpu = _measure(lambda: section(i), tracer, f"iter{i}")
        walls.append(wall)
        cpus.append(cpu)
        if i == 0:  # later iterations reuse a heap the first one grew
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        keep(i, value)
        del value  # drop this iteration's outputs before the next one runs
        enough = (len(walls) >= job["spec"]["min_iterations"]
                  and sum(walls) + statistics.median(walls) / 2 > job["seconds"])
        if enough or time.monotonic() + wall > deadline:
            break
    return {"run_s": walls, "cpu_s": cpus, "peak_rss_mb": peak}


def _cli_argv(spec, seed, graph_dir, out_dir):
    # --stages 2 keeps the work per run the same for every seed: with early
    # stopping the stage count otherwise ranges from 2 to 10 across seeds. At
    # seed 0 the default of 10 also stops after 2 stages, so the outputs agree.
    argv = ["run", "--graph", str(graph_dir), "--out", str(out_dir),
            "--variant", ",".join(spec["variants"]), "--seed", str(seed),
            "--bias-mode", checks.BIAS_MODE, "--stages", "2"]
    if spec.get("epochs"):
        argv += ["--epochs", str(spec["epochs"])]
    return argv


def task_cli_run(job, tracer):
    from hcgst import cli

    spec, seed = job["spec"], job["seed"]
    graph_dir, work = Path(job["graph_dir"]), Path(job["out_dir"])
    codes = []

    def section(i):  # run.py starts every invocation with an empty work directory
        return cli.main(_cli_argv(spec, seed, graph_dir, work / f"iter{i}"))

    measured = _iterate(job, tracer, section, lambda i, code: codes.append(code))
    expected = [f"run_{v}_{seed}.json" for v in spec["variants"]]

    def check():
        from hcgst.cli import build_partition
        from hcgst.graph import load_graph_dir

        graph = load_graph_dir(graph_dir)
        runs, accs, kls, digests = [], [], [], []
        for i, code in enumerate(codes):
            digests.append({})
            for name in expected:
                path = work / f"iter{i}" / name
                try:
                    doc = json.loads(path.read_text())
                    fails = checks.check_run_report(doc, graph, build_partition)
                except (OSError, ValueError, KeyError, TypeError) as err:
                    fails = [f"unreadable run JSON: {err!r}"]
                if code != 0:
                    fails.insert(0, f"hcgst run exited {code}")
                runs.append({"id": name, "iteration": i, "failures": fails})
                if not fails:
                    accs.append(doc["test_acc"])
                    kls.append(doc["final_kl_true"])
                    digests[i][name] = checks.run_json_digest(path)
        quality = {"test_acc": float(np.mean(accs)), "train_kl": float(np.mean(kls))} if accs else {}
        return {"runs": runs, "quality": quality, "digests": digests}

    return measured, check


def _analysis_inputs(seed, graph_dir, n_override):
    """Soft labels of a noisy classifier and a pinned-label set, from the seed."""
    labels = np.loadtxt(graph_dir / "labels.csv", delimiter=",", dtype=np.int64, ndmin=1)
    n, c = labels.size, int(labels.max()) + 1
    rng = np.random.default_rng([seed, 3])
    logits = 3.0 * np.eye(c)[labels] + rng.standard_normal((n, c))
    soft = np.exp(logits - logits.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    pinned = np.sort(rng.choice(n, size=n_override, replace=False))
    return soft, {int(v): int(labels[v]) for v in pinned}, pinned


def task_analyze(job, tracer):
    from hcgst import graph as hg, homophily, selection, synth

    spec, seed = job["spec"], job["seed"]
    graph_dir = Path(job["graph_dir"])
    soft, override, pinned = _analysis_inputs(seed, graph_dir, spec["override"])
    no_nodes = np.empty(0, dtype=np.int64)
    last, digests = None, []

    def section(i):
        graph = hg.load_graph_dir(graph_dir)
        hg.graph_homophily(graph)
        view1 = hg.k_hop_adjacency(graph, 1)
        view2 = hg.k_hop_adjacency(graph, 2)
        true = hg.true_homophily_profile(graph)
        est = homophily.estimate_homophily_profile(soft, graph, override)
        homophily.bin_distribution(true, checks.N_BINS)
        homophily.bin_distribution(est, checks.N_BINS)
        cands = selection.candidate_set(soft, no_nodes, pinned, no_nodes, DELTA_C)
        sets = {mode: synth.sample_training_set(graph, checks.LABEL_RATE, mode, checks.N_BINS, seed)
                for mode in synth.BIAS_MODES}
        return graph, view1, view2, true, est, cands, sets

    def keep(i, out):
        nonlocal last
        _, _, _, true, est, cands, sets = out
        arrays = [est, true, cands] + [sets[m] for m in sorted(sets)]
        digests.append({"analysis": checks.array_digest(arrays)})  # keyed by run id
        last = out  # the last iteration is checked in full

    measured = _iterate(job, tracer, section, keep)

    def check():
        from hcgst.graph import true_node_homophily
        from hcgst.homophily import bin_distribution, bin_index, estimate_node_homophily
        from hcgst.metrics import kl_divergence

        graph, view1, view2, true, est, cands, sets = last
        sample = np.random.default_rng([seed, 4]).choice(graph.n, size=spec["check_nodes"],
                                                         replace=False)
        fails = checks.check_profiles(est, true, soft, override, graph, sample,
                                      estimate_node_homophily, true_node_homophily)
        fails += checks.check_two_hop(view2)
        if view1.n != graph.n or np.intersect1d(cands, pinned).size:
            fails.append("1-hop view size or candidate set is wrong")
        for mode, nodes in sets.items():
            fails += checks.check_training_set(nodes, graph.n, mode)
        free = np.setdiff1d(np.arange(graph.n), pinned)
        quality = {
            "test_acc": float(np.mean(bin_index(est[free], checks.N_BINS)
                                      == bin_index(true[free], checks.N_BINS))),
            "train_kl": float(np.mean([kl_divergence(bin_distribution(true[nodes], checks.N_BINS),
                                                     bin_distribution(true, checks.N_BINS))
                                       for nodes in sets.values()])),
        }
        # the last iteration is checked in full; earlier ones must match it exactly
        runs = [{"id": "analysis", "iteration": i, "failures": fails if i == len(digests) - 1 else []}
                for i in range(len(digests))]
        return {"runs": runs, "quality": quality, "digests": digests}

    return measured, check


TASKS = {"setup": task_setup, "cli_run": task_cli_run, "analyze": task_analyze}


def blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "nproc": os.cpu_count(),
            "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                           if k in os.environ}}


def main(job) -> int:
    import hcgst

    src = (ROOT / "src").resolve()
    if src not in Path(hcgst.__file__).resolve().parents:
        raise RuntimeError(f"hcgst imported from {hcgst.__file__}, not from {src}")
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    try:
        measured, check = TASKS[job["task"]](job, tracer)
    finally:
        unrestored = tracer.restore() if tracer else []
    result = {**measured, **check(), "env": environment()}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        result["unrestored"] = unrestored
        tracer.write_csv(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
