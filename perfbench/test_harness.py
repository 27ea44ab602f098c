"""Smoke test of the benchmark harness itself, on tiny graphs.

    python3 -m pytest perfbench/test_harness.py -q

It checks that every metric named in BENCHMARK.json is printed with its
unit, that a failed output check raises fail_rate, and that the traced run
leaves every wrapped hcgst function as it found it.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

TINY = {"hcgst-5k": {"n": 300, "epochs": 40},
        "hcgst-20k": {"n": 300, "epochs": 40},
        "variants-500": {"n": 200, "epochs": 40},
        "analyze-20k": {"n": 300, "override": 10, "check_nodes": 20}}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", {name: {**spec, **TINY[name]}
                                           for name, spec in run.WORKLOADS.items()})
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path / "out"


def _invoke(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--trace", str(trace), "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace else "end_to_end"]
    code, lines, result = _invoke(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert printed["fail_rate"] == "fraction"


@pytest.mark.parametrize("workload", ["variants-500", "analyze-20k"])
def test_failed_output_check_raises_fail_rate(tiny, capsys, workload):
    code, _, first = _invoke(capsys, workload)
    assert code == 0 and first["failed"] == 0
    # pretend an earlier run of the same code and seed produced other output
    (store,) = (tiny / "digests").glob(f"{workload}-seed0-*.json")
    digests = json.loads(store.read_text())
    digests[sorted(digests)[0]] = "0" * 64
    store.write_text(json.dumps(digests))
    code, lines, result = _invoke(capsys, workload)
    assert code == 1 and not result["correct"]
    spec = run.WORKLOADS[workload]
    iterations = result["attempted"] // run.runs_per_iteration(spec)
    assert iterations >= spec["min_iterations"]
    assert result["failed"] == iterations  # one bad run per iteration
    rate = result["failed"] / result["attempted"]
    assert any(line.split()[:2] == ["fail_rate", f"{rate:.6g}"] for line in lines)


def test_traced_run_restores_every_wrapped_function():
    modules = {name: importlib.import_module(name) for name in tracing.MODULES}
    before = {(name, attr): obj for name, mod in modules.items()
              for attr, obj in vars(mod).items() if callable(obj)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for path in ("orchestrator.train_dual", "model.dual_loss_and_grads",
                     "selection.cmd_weighted_with_grad", "cli.load_graph_dir",
                     "synth.true_homophily_profile"):
            mod, attr = path.split(".")
            assert getattr(modules[f"hcgst.{mod}"], attr) is not before[(f"hcgst.{mod}", attr)]
        synth, graph = modules["hcgst.synth"], modules["hcgst.graph"]
        with tracer.section("smoke"):
            g = synth.generate_graph(synth.SynthConfig(n=60, seed=1))
            graph.k_hop_adjacency(g, 2)
    finally:
        assert tracer.restore() == []
    for (name, attr), obj in before.items():
        assert getattr(modules[name], attr) is obj
    layers = tracing.layer_metrics(tracer)
    assert tracing.bucket_total(layers) == pytest.approx(layers["trace.run_s"], rel=1e-9)
    assert layers["graph.khop_calls"] == 1 and layers["synth.generate_s"] > 0
