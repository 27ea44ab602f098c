import importlib.util
import math
import shutil
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_runs", _ROOT / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def _checkout(root: Path, name: str) -> Path:
    path = root / name
    shutil.copytree(_ROOT / "src" / "hcgst", path / "src" / "hcgst",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return path


def test_parse_seeds():
    assert compare_runs.parse_seeds("0-4") == [0, 1, 2, 3, 4]
    assert compare_runs.parse_seeds("3") == [3]
    assert compare_runs.parse_seeds("0-1,5") == [0, 1, 5]


def test_tree_against_its_copy_reads_identical(tmp_path, capsys):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    assert compare_runs.main([str(base), str(change), "--n", "200", "--seeds", "0",
                              "--stages", "1", "--work", str(tmp_path / "same")]) == 0
    out = capsys.readouterr().out
    assert "seed 0: graph identical\n" in out and "seed 0: byte-identical" in out and "picks" not in out
    for side in ("base", "change"):
        assert (tmp_path / "same" / f"{side}-graph-0" / "meta.json").is_file()
    lines = compare_runs.source_lines(_ROOT)
    assert lines == sum(len(p.read_text().splitlines()) for p in (_ROOT / "src" / "hcgst").glob("*.py"))
    assert "help: identical\n" in out and f"src/hcgst lines: base {lines}  change {lines}\n" in out


def test_two_variants_compare_each_run_report(tmp_path, capsys):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    assert compare_runs.main([str(base), str(change), "--n", "200", "--seeds", "0", "--stages", "1",
                              "--variant", "hcgst,backbone_only", "--work", str(tmp_path / "two")]) == 0
    out = capsys.readouterr().out
    assert "seed 0: byte-identical" in out and "picks" not in out
    assert "  hcgst test_acc" in out and "  backbone_only test_acc" in out
    assert (tmp_path / "two" / "change-0" / "run_backbone_only_0.json").is_file()


def test_changed_generate_meta_reads_graph_difference(tmp_path, capsys):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    cli = change / "src" / "hcgst" / "cli.py"
    text = cli.read_text()
    assert '"n_edges": graph.n_edges,' in text
    cli.write_text(text.replace('"n_edges": graph.n_edges,', '"n_edges": graph.n_edges + 1,'))
    assert compare_runs.main([str(base), str(change), "--n", "200", "--seeds", "0", "--stages", "1",
                              "--work", str(tmp_path / "meta")]) == 1
    out = capsys.readouterr().out
    assert "help: identical\n" in out
    assert "seed 0: graph differs in meta.json\n" in out and "seed 0: byte-identical" in out


def test_graph_differences_skip_a_meta_json_neither_side_has(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        path.mkdir()
        for name in ("edges.csv", "features.csv", "labels.csv"):
            (path / name).write_text(name)
    assert compare_runs.graph_differences(a, b) == []
    (b / "labels.csv").write_text("other")
    (a / "meta.json").write_text("{}")
    assert compare_runs.graph_differences(a, b) == ["labels.csv", "meta.json"]


def test_changed_step_size_reads_different_picks(tmp_path, capsys):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    selection = change / "src" / "hcgst" / "selection.py"
    selection.write_text(selection.read_text().replace("_STEP_SIZE = 0.05", "_STEP_SIZE = 0.5"))
    assert compare_runs.main([str(base), str(change), "--n", "500", "--fixture", "--seeds", "0",
                              "--stages", "1", "--work", str(tmp_path / "differ")]) == 1
    out = capsys.readouterr().out
    assert "seed 0: graph identical\n" in out and "meta.json" not in out
    assert "seed 0: differs in run JSON" in out and "stage 1 picks:" in out
    assert "\n  run JSON hcgst: bin_report.acc_st: base " in out  # the field list under the differs line
    assert "  run JSON hcgst: ... and " in out


@pytest.mark.parametrize("module, old, new, anchor, imported", [
    ("orchestrator.py", "selected = top_k(", "selected = selection.top_k(",
     "from .selection import", "from . import selection\n"),
    ("cli.py", "return run_self_training(", "return orchestrator.run_self_training(",
     "from .graph import", "from . import orchestrator\n"),
], ids=["orchestrator_calls_selection_top_k", "cli_calls_orchestrator_run"])
def test_refactor_through_the_module_reads_identical(tmp_path, capsys, module, old, new, anchor, imported):
    # the picks come from the run JSON, so how the library calls its own functions cannot matter
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    source = change / "src" / "hcgst" / module
    text = source.read_text()
    assert old in text and anchor in text
    source.write_text(text.replace(old, new).replace(anchor, imported + anchor, 1))
    assert compare_runs.main([str(base), str(change), "--n", "500", "--fixture", "--seeds", "0",
                              "--stages", "1", "--work", str(tmp_path / "refactor")]) == 0
    out = capsys.readouterr().out
    assert "seed 0: byte-identical" in out and "picks" not in out


def test_empty_variant_entry_is_a_usage_error(tmp_path, capsys):
    base, change = _checkout(tmp_path, "base"), _checkout(tmp_path, "change")
    with pytest.raises(SystemExit) as exit_info:
        compare_runs.main([str(base), str(change), "--variant", "hcgst,", "--work", str(tmp_path / "w")])
    assert exit_info.value.code == 2
    assert "--variant 'hcgst,' has an empty entry" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_json_differences_name_each_differing_leaf_by_its_path():
    base = {"test_acc": 0.5, "best_stage": 1, "stages": [{"selected": [3, 4], "h": 0.25}, {"h": 0.5}],
            "flag": True, "gone": "x"}
    change = {"test_acc": 0.5, "best_stage": 2, "stages": [{"selected": [3], "h": 0.25}, {"h": 0.75}],
              "flag": 1, "new": None}
    assert compare_runs.json_differences(base, change) == [
        ("best_stage", 1, 2), ("stages[0].selected[1]", 4, compare_runs.MISSING),
        ("stages[1].h", 0.5, 0.75), ("flag", True, 1), ("gone", "x", compare_runs.MISSING),
        ("new", compare_runs.MISSING, None)]
    assert compare_runs.json_differences(base, base) == []
    assert compare_runs.json_differences({"a": [1.0]}, {"a": 1.0}) == [("a", [1.0], 1.0)]


def test_ulps_counts_doubles_between_floats_of_one_sign():
    x = 0.6850681787922894
    assert compare_runs.ulps(x, x) == 0
    assert compare_runs.ulps(x, math.nextafter(math.nextafter(x, 1), 1)) == 2
    assert compare_runs.ulps(-x, math.nextafter(-x, -1)) == 1
    assert compare_runs.ulps(1.0, math.nextafter(1.0, 0)) == 1  # across a power of two
    for a, b in [(x, -x), (x, float("nan")), (x, float("inf")), (1, 2), (x, 1)]:
        assert compare_runs.ulps(a, b) is None


def test_field_lines_list_at_most_the_limit_with_both_values():
    h = 0.8700938119915912
    base = {"global_mean_est_h": h, "stages": [{"pseudo_mean_est_h": float(i)} for i in range(12)]}
    change = {"global_mean_est_h": math.nextafter(h, 1),
              "stages": [{"pseudo_mean_est_h": i + 0.5} for i in range(12)]}
    lines = compare_runs.field_lines(base, change)
    assert len(lines) == compare_runs.FIELD_LINES + 1
    assert lines[0] == f"global_mean_est_h: base {h!r}  change {math.nextafter(h, 1)!r}  (1 ulp)"
    assert lines[1] == "stages[0].pseudo_mean_est_h: base 0.0  change 0.5"  # too far apart for an ulp count
    assert lines[2] == "stages[1].pseudo_mean_est_h: base 1.0  change 1.5"
    assert lines[-1] == "... and 3 more fields"
    assert compare_runs.field_lines({"best_stage": 1}, {"best_stage": 2}) == ["best_stage: base 1  change 2"]
    assert compare_runs.field_lines(base, base) == []
