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


@pytest.mark.parametrize("base, change, expected", [
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.2, 1.3], "worse"),  # median 1.3 > 1.0 * 1.25
    ([1.0, 1.0, 2.0, 2.0], [1.1, 1.9, 1.2, 1.8], "unresolved"),  # base IQR 1.0 > 0.25 * 1.5
    ([1.0, 1.0, 2.0, 2.0], [0.5, 0.6, 0.7, 0.9], "within"),  # all change values below all base values
    ([1.0, 1.0, 1.0, 1.1], [1.2, 1.2, 1.2, 1.2], "within"),  # 1.2 <= 1.25, IQR 0.025 <= 0.25
])
def test_verdict_against_bound(base, change, expected):
    assert bench_pairs.verdict(base, change, 0.25) == expected


def test_verdicts_come_from_the_base_benchmark_file(tmp_path, monkeypatch, capsys):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    (base / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        {"name": "cpu_s", "unit": "s", "better": "lower"}]}))
    values = {"run_s": {"base": [1.0, 1.0, 1.0, 1.0], "change": [1.3, 1.3, 1.3, 1.3]},
              "setup_s": {"base": [1.0, 1.0, 2.0, 2.0], "change": [1.1, 1.9, 1.2, 1.8]},
              "peak_rss_mb": {"base": [70, 70, 70, 70], "change": [71, 70, 69, 70]},
              "cpu_s": {"base": [1.0, 1.0, 1.0, 1.0], "change": [9.0, 9.0, 9.0, 9.0]}}

    def fake_run(checkout, workload, seed):
        metrics = {name: {"value": v[checkout.name][seed], "unit": "s"} for name, v in values.items()}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics, "exit": 0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(base), str(change), "--workload", "w", "--pairs", "4",
                             "--out", str(out)]) == 0  # a worse verdict leaves the exit status
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert {name: (s.get("bound"), s.get("verdict")) for name, s in summary.items()} == {
        "run_s": (0.25, "worse"), "setup_s": (0.25, "unresolved"),
        "peak_rss_mb": (0.05, "within"), "cpu_s": (None, None)}
    printed = capsys.readouterr().out.splitlines()
    summary_lines = {line.split()[0]: line for line in printed[printed.index("w: 4 pairs") + 1:]}
    assert summary_lines["run_s"].endswith("worse (bound 0.25)")
    assert summary_lines["setup_s"].endswith("unresolved (bound 0.25)")
    assert summary_lines["peak_rss_mb"].endswith("within (bound 0.05)")
    assert "bound" not in summary_lines["cpu_s"]


_TENTHS = [1.0, 1.2] * 5  # median 1.1, quartiles 1.0 and 1.2


@pytest.mark.parametrize("change, expected", [
    ([0.8] * 10, "met"),  # 10/10 wins, median gap 0.3 > IQR 0.2
    ([0.8] * 8 + [1.2, 1.3], "not met"),  # 8/10 wins: the tie and the loss count for neither
    ([0.99, 1.19] * 5, "not met"),  # 10/10 wins, but the median gap 0.01 is inside the IQR
    ([0.9], "not met"),  # 1/1 wins and a gap beyond the zero IQR, but only one pair
    ([0.9, 0.95, 0.91, 0.93], "not met"),  # 4/4 wins and a gap beyond the IQR, but only 4 pairs
])
def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_base_iqr(change, expected):
    base = _TENTHS if len(change) == 10 else [1.0, 1.1, 1.05, 1.02][:len(change)]
    assert bench_pairs.gain(base, change) == expected


def test_gain_is_in_the_summary_and_on_the_metric_line(tmp_path, monkeypatch, capsys):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed: {
        "correct": True, "attempted": 1, "failed": 0, "exit": 0,
        "metrics": {"run_s": {"value": (_TENTHS[seed], 0.8)[checkout.name == "change"], "unit": "s"}}})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(base), str(change), "--workload", "w", "--pairs", "10",
                             "--out", str(out)]) == 0
    assert json.loads(out.read_text())["workloads"]["w"]["summary"]["run_s"]["gain"] == "met"
    assert "change wins 10/10  ratio 0.7333 [0.6667, 0.8]  gain met" in capsys.readouterr().out
