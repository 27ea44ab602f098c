import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _checkout(root: Path, name: str) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    return path


def test_pairs_alternate_and_count_wins(tmp_path, monkeypatch, capsys):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    calls = []
    run_s = {"base": [3.0, 3.2, 2.9, 3.1], "change": [2.0, 3.3, 2.1, 2.2]}
    rss = {"base": [70, 70, 70, 70], "change": [71, 70, 69, 69]}

    def fake_run(checkout, workload, seed):
        side = checkout.name
        calls.append((seed, side))
        metrics = {"run_s": {"value": run_s[side][seed], "unit": "s"},
                   "peak_rss_mb": {"value": rss[side][seed], "unit": "MB"}}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics, "exit": 0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(base), str(change), "--workload", "w", "--pairs", "4",
                             "--out", str(out)]) == 0
    assert calls == [(0, "base"), (0, "change"), (1, "change"), (1, "base"),
                     (2, "base"), (2, "change"), (3, "change"), (3, "base")]
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert summary["run_s"]["change_wins"] == 3  # pair 1 is slower
    assert summary["peak_rss_mb"]["change_wins"] == 2  # pair 1 ties
    assert summary["run_s"]["base"] == {"median": 3.05, "q1": pytest.approx(2.975),
                                        "q3": pytest.approx(3.125)}
    assert summary["run_s"]["ratio"] == {"median": pytest.approx(0.7169, abs=1e-4),
                                         "min": pytest.approx(2 / 3), "max": pytest.approx(1.03125)}
    assert "change wins 3/4  ratio 0.7169 [0.6667, 1.031]" in capsys.readouterr().out


def test_failed_side_sets_exit_code(tmp_path, monkeypatch):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *a: {
        "correct": checkout.name == "base", "attempted": 1, "failed": int(checkout.name != "base"),
        "metrics": {"run_s": {"value": 1.0, "unit": "s"}}, "exit": 0})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(base), str(change), "--workload", "w", "--pairs", "1",
                             "--out", str(out)]) == 1
    assert json.loads(out.read_text())["workloads"]["w"]["summary"]["run_s"]["change_wins"] == 0
