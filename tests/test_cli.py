import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from hcgst import cli
from hcgst import graph as graph_module
from hcgst import orchestrator
from hcgst.cli import SWEEP_GRIDS, build_parser, main
from hcgst.orchestrator import RunConfig
from hcgst.synth import SynthConfig, generate_graph


def _generate(tmp_path, name="g", n=80, seed=5):
    out = tmp_path / name
    code = main(["generate", "--n", str(n), "--classes", "3", "--feature-dim", "6",
                 "--mean-degree", "5", "--separation", "2.5", "--seed", str(seed),
                 "--out", str(out)])
    assert code == 0
    return out


RUN_ARGS = ["--label-rate", "0.1", "--val-fraction", "0.1", "--epochs", "60",
            "--stages", "2", "--hidden", "12", "--learning-rate", "0.02"]


def _strip_timestamp(path):
    doc = json.loads(path.read_text())
    doc.pop("generated_at")
    return doc


def test_generate_writes_graph_dir(tmp_path):
    out = _generate(tmp_path)
    assert (out / "edges.csv").exists()
    assert (out / "features.csv").exists()
    assert (out / "labels.csv").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["n"] == 80
    assert 0 <= meta["measured"]["graph_homophily"] <= 1


def test_generate_idempotent_bytes(tmp_path):
    a = _generate(tmp_path, "a")
    b = _generate(tmp_path, "b")
    for name in ("edges.csv", "features.csv", "labels.csv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_defaults_are_synth_config_defaults():
    args = vars(build_parser().parse_args(["generate", "--out", "x"]))
    default = SynthConfig()
    for name in ("n", "classes", "feature_dim", "mean_degree", "separation", "seed"):
        assert args[name] == getattr(default, name), name
    hist = [float(v) for v in args["target_histogram"].split(",")]
    assert hist == default.target_histogram.tolist()


def test_generate_meta_config_rebuilds_the_graph(tmp_path):
    # meta.json's config holds every SynthConfig field but cross_structure, which keeps its default
    out = _generate(tmp_path)
    config = json.loads((out / "meta.json").read_text())["config"]
    names = [f.name for f in dataclasses.fields(SynthConfig)]
    assert sorted(config) == sorted(name for name in names if name != "cross_structure")
    rebuilt = tmp_path / "rebuilt"
    graph_module.save_graph_dir(generate_graph(SynthConfig(**config)), rebuilt)
    for name in ("edges.csv", "features.csv", "labels.csv"):
        assert (rebuilt / name).read_bytes() == (out / name).read_bytes()


def test_generate_rejects_bad_histogram(tmp_path, capsys):
    code = main(["generate", "--target-histogram", "0,0", "--out", str(tmp_path / "x")])
    assert code == 2
    for bad in ("1,inf", "1,nan"):  # these used to reach rng.choice and leak a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["generate", "--n", "40", "--target-histogram", bad, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "target_histogram must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value", [("--mean-degree", "-2"), ("--classes", "0"),
                                         ("--feature-dim", "0"), ("--mean-degree", "nan"),
                                         ("--separation", "nan"), ("--n", "0"), ("--separation", "inf")])
def test_generate_rejects_impossible_sizes(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    assert main(["generate", "--n", "40", flag, value, "--out", str(out)]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_reports_and_aggregate(tmp_path):
    graph = _generate(tmp_path)
    out = tmp_path / "runs"
    code = main(["run", "--graph", str(graph), "--out", str(out),
                 "--variant", "backbone_only,hcgst", "--repeat", "2", *RUN_ARGS])
    assert code == 0
    for variant in ("backbone_only", "hcgst"):
        for seed in (0, 1):
            assert (out / f"run_{variant}_{seed}.json").exists()
    with open(out / "aggregate.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["variant"] for r in rows] == ["backbone_only", "hcgst"]
    assert all(r["n_seeds"] == "2" for r in rows)
    assert (out / "stages.csv").exists()
    assert (out / "bins.csv").exists()


def test_stage_and_bin_tables_follow_the_run_json(tmp_path):
    graph = _generate(tmp_path)
    out = tmp_path / "runs"
    assert main(["run", "--graph", str(graph), "--out", str(out), "--variant", "hcgst", *RUN_ARGS]) == 0
    doc = json.loads((out / "run_hcgst_0.json").read_text())
    scalars = ["n_candidates", "n_multi_hop", "kl_picks_target", "pseudo_mean_est_h",
               "pseudo_mean_true_h", "global_mean_est_h", "kl_local_global_true",
               "kl_local_global_est", "cmd_global_local", "val_acc", "test_acc"]
    with open(out / "stages.csv") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == ["variant", "seed", "stage", "n_selected", *scalars]
        rows = list(reader)
    assert len(rows) == len(doc["stages"]) > 0
    for row, stage in zip(rows, doc["stages"]):
        assert (row["variant"], row["seed"], row["stage"]) == ("hcgst", "0", str(stage["stage"]))
        assert int(row["n_selected"]) == len(stage["selected"])
        for key in scalars:  # NaN is null in the JSON and nan in the CSV
            assert row[key] == "nan" if stage[key] is None else float(row[key]) == stage[key], key
    with open(out / "bins.csv") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == ["variant", "seed", "bin", "acc_backbone", "acc_self_trained", "delta"]
        rows = list(reader)
    bins = doc["bin_report"]
    assert [int(row["bin"]) for row in rows] == list(range(len(bins["bin_acc_st"])))
    for row, back, st in zip(rows, bins["bin_acc_backbone"], bins["bin_acc_st"]):
        if back is None or st is None:
            assert row["delta"] == ""
        else:
            assert (float(row["acc_backbone"]), float(row["acc_self_trained"])) == (back, st)
            assert float(row["delta"]) == st - back


def test_run_without_tuning_flags_records_dataclass_defaults(tmp_path):
    graph = _generate(tmp_path)
    out = tmp_path / "defaults"
    assert main(["run", "--graph", str(graph), "--out", str(out), "--variant", "backbone_only",
                 "--seed", "4", "--repeat", "2", "--label-rate", "0.1", "--val-fraction", "0.1"]) == 0
    for seed in (4, 5):
        doc = json.loads((out / f"run_backbone_only_{seed}.json").read_text())
        assert doc["config"] == dataclasses.asdict(RunConfig(variant="backbone_only", seed=seed))


def test_run_help_shows_dataclass_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    defaults = dataclasses.asdict(RunConfig())
    defaults.update(defaults.pop("train"))
    del defaults["k_per_stage"]  # None: the labeled-set size, said in words
    for name, value in defaults.items():
        assert f"(default {value})" in text, name


def test_run_repeat_is_bit_identical_apart_from_timestamp(tmp_path):
    graph = _generate(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["run", "--graph", str(graph), "--out", str(out),
                     "--variant", "hcgst", "--seed", "3", *RUN_ARGS]) == 0
    doc1 = _strip_timestamp(out1 / "run_hcgst_3.json")
    doc2 = _strip_timestamp(out2 / "run_hcgst_3.json")
    assert doc1 == doc2
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
    assert (out1 / "stages.csv").read_bytes() == (out2 / "stages.csv").read_bytes()
    assert (out1 / "bins.csv").read_bytes() == (out2 / "bins.csv").read_bytes()


def test_run_degenerate_threshold_matches_backbone(tmp_path):
    graph = _generate(tmp_path)
    out = tmp_path / "deg"
    code = main(["run", "--graph", str(graph), "--out", str(out),
                 "--variant", "backbone_only,hcgst", "--stages", "1",
                 "--delta-c", "0.999999", "--label-rate", "0.1", "--val-fraction", "0.1",
                 "--epochs", "30", "--hidden", "12", "--learning-rate", "0.005"])
    assert code == 0
    back = json.loads((out / "run_backbone_only_0.json").read_text())
    hc = json.loads((out / "run_hcgst_0.json").read_text())
    assert back["bin_report"] == hc["bin_report"]


def _one_class(graph):
    n = len((graph / "labels.csv").read_text().splitlines())
    (graph / "labels.csv").write_text("0\n" * n)


def _no_edges(graph):
    (graph / "edges.csv").write_text("src,dst\n")


@pytest.mark.parametrize("degrade", [_one_class, _no_edges], ids=["one_class", "no_edges"])
def test_run_degenerate_graph_exits_zero(tmp_path, degrade):
    graph = _generate(tmp_path)
    degrade(graph)
    out = tmp_path / "deg"
    assert main(["run", "--graph", str(graph), "--out", str(out), "--variant", "hcgst",
                 *RUN_ARGS]) == 0
    assert (out / "run_hcgst_0.json").exists()


def test_run_without_candidates_keeps_backbone(tmp_path):
    graph = _generate(tmp_path)
    out = tmp_path / "deg"
    # short training keeps every softmax below the near-one threshold
    assert main(["run", "--graph", str(graph), "--out", str(out), "--variant", "hcgst",
                 "--delta-c", "0.999", "--label-rate", "0.1", "--val-fraction", "0.1",
                 "--epochs", "30", "--hidden", "12", "--learning-rate", "0.005"]) == 0
    doc = json.loads((out / "run_hcgst_0.json").read_text())
    assert doc["stages"] and all(s["selected"] == [] for s in doc["stages"])
    assert doc["test_acc"] == doc["bin_report"]["acc_backbone"]


def test_run_rejects_unknown_variant(tmp_path):
    graph = _generate(tmp_path)
    code = main(["run", "--graph", str(graph), "--out", str(tmp_path / "x"),
                 "--variant", "quantum"])
    assert code == 2


def test_run_requires_graph(tmp_path):
    assert main(["run", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command, extra", [("run", []), ("sweep", ["--param", "lambda_s"])])
def test_run_requires_out(tmp_path, capsys, command, extra):
    graph = _generate(tmp_path)
    assert main([command, "--graph", str(graph), *extra]) == 2
    assert capsys.readouterr().err == "error: --out is required (flag or config file)\n"


def test_run_missing_graph_dir_is_config_error(tmp_path):
    code = main(["run", "--graph", str(tmp_path / "nope"), "--out", str(tmp_path / "x")])
    assert code == 2


def test_run_without_features_file_names_it(tmp_path, capsys):
    graph = _generate(tmp_path)
    (graph / "features.csv").unlink()
    assert main(["run", "--graph", str(graph), "--out", str(tmp_path / "x")]) == 2
    assert str(graph / "features.csv") in capsys.readouterr().err


def test_run_malformed_edge_row_is_config_error(tmp_path):
    graph = _generate(tmp_path)
    with open(graph / "edges.csv", "a") as f:
        f.write("3,not-a-node\n")
    assert main(["run", "--graph", str(graph), "--out", str(tmp_path / "x")]) == 2


def test_run_non_finite_feature_is_config_error(tmp_path, capsys):
    graph = _generate(tmp_path)
    lines = (graph / "features.csv").read_text().splitlines()
    row = lines[4].split(",")
    row[2] = "nan"
    lines[4] = ",".join(row)
    (graph / "features.csv").write_text("\n".join(lines) + "\n")
    assert main(["run", "--graph", str(graph), "--out", str(tmp_path / "x")]) == 2
    assert "feature row 4 " in capsys.readouterr().err


@pytest.mark.parametrize("epochs", [1, 20])  # 1: only the last step diverges
def test_run_diverging_training_is_runtime_failure(tmp_path, capsys, epochs):
    graph = _generate(tmp_path)
    with np.errstate(all="ignore"):
        code = main(["run", "--graph", str(graph), "--out", str(tmp_path / "x"), "--label-rate", "0.1",
                     "--stages", "1", "--epochs", str(epochs), "--learning-rate", "1e200"])
    assert code == 3
    assert "training diverged at stage 0" in capsys.readouterr().err


def test_run_over_the_k_hop_limit_is_config_error(tmp_path, capsys, monkeypatch):
    graph = _generate(tmp_path)
    monkeypatch.setattr(graph_module, "KHOP_ENTRY_LIMIT", 100)

    def no_training(*args, **kwargs):
        raise AssertionError("the backbone trained before the k-hop bound was checked")

    monkeypatch.setattr(orchestrator, "train_dual", no_training)
    assert main(["run", "--graph", str(graph), "--out", str(tmp_path / "x"), "--variant", "hcgst",
                 "--hop", "3", *RUN_ARGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: hop 3 view may hold ") and "over the limit of 100" in err


@pytest.mark.parametrize("command, bad, message", [
    ("run", ["--repeat", "0"], "repeat must be >= 1"),
    ("run", ["--variant", ""], "names no variant"),
    ("run", ["--label-rate", "1.5"], "label_rate must lie in (0, 1)"),
    ("run", ["--val-fraction", "1.5"], "val_fraction must lie in [0, 1)"),
    ("run", ["--label-rate", "0.9", "--val-fraction", "0.5"], "unlabeled set must be non-empty"),
    ("run", ["--epochs", "-1"], "epochs must be >= 1"),
    ("run", ["--weight-decay", "-5"], "weight_decay must be >= 0"),
    ("sweep", ["--param", "lambda_d", "--values", ""], "could not convert"),
    ("run", ["--delta-h", "nan"], "delta_h must be >= 0, got nan"),
    ("run", ["--lambda-s", "inf"], "lambda_s and lambda_d must be >= 0"),
    ("run", ["--lambda-d", "inf"], "lambda_s and lambda_d must be >= 0"),
    ("run", ["--learning-rate", "inf"], "learning_rate must be positive, got inf"),
    ("run", ["--weight-decay", "inf"], "weight_decay must be >= 0, got inf"),
    ("run", ["--hidden", "0"], "hidden must be >= 1"),
])
def test_out_of_range_run_options_are_config_errors(tmp_path, capsys, command, bad, message):
    graph = _generate(tmp_path)
    out = tmp_path / "x"
    valid = ["--label-rate", "0.1", "--val-fraction", "0.1", "--stages", "1", "--epochs", "5"]
    assert main([command, "--graph", str(graph), "--out", str(out), *valid, *bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command, bad, message", [
    ("run", ["--hidden", "0"], "error: hidden must be >= 1, got 0\n"),
    ("run", ["--variant", "nope"], "error: unknown variant 'nope'; expected one of "),
    ("sweep", ["--param", "lambda_s", "--values", "-1"], "error: lambda_s and lambda_d must be >= 0\n"),
], ids=["hidden", "variant", "sweep-lambda_s"])
def test_run_settings_are_checked_before_the_graph_is_read(tmp_path, capsys, command, bad, message):
    out = tmp_path / "x"
    assert main([command, "--graph", str(tmp_path / "nope"), "--out", str(out), *bad]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    graph = _generate(tmp_path)
    cfg = {"graph": str(graph), "out": str(tmp_path / "from_config"),
           "variant": "backbone_only", "label_rate": 0.1, "val_fraction": 0.1,
           "epochs": 30, "stages": 1, "hidden": 12, "seed": 9}
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "overridden"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "run_backbone_only_9.json").exists()
    assert not (tmp_path / "from_config").exists()


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"graph": "g", "out": "o", "warp_factor": 9}))
    assert main(["run", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("bad", [{"epochs": "30"}, {"stages": True}, {"lambda_d": "x"},
                                 {"jobs": None}, {"graph": 3}])
def test_config_rejects_wrong_value_types(tmp_path, capsys, bad):
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"graph": "g", "out": "o", **bad}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert f"config key {next(iter(bad))!r}" in capsys.readouterr().err


def test_config_accepts_int_for_float_option(tmp_path):
    graph = _generate(tmp_path)
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps({"lambda_d": 1, "k": None}))
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--graph", str(graph), "--out", str(out),
                 *RUN_ARGS]) == 0
    lambda_d = _strip_timestamp(out / "run_hcgst_0.json")["config"]["lambda_d"]
    assert lambda_d == 1.0 and isinstance(lambda_d, float)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_rejects_jobs_below_one(tmp_path, capsys, jobs):
    assert main(["run", "--graph", "g", "--out", str(tmp_path / "o"), "--jobs", jobs]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_sweep_default_grids():
    assert len(SWEEP_GRIDS["lambda_s"]) == 8
    assert SWEEP_GRIDS["lambda_s"][0] == 1.3 and SWEEP_GRIDS["lambda_s"][-1] == 2.7
    assert len(SWEEP_GRIDS["lambda_d"]) == 8
    assert SWEEP_GRIDS["lambda_d"] == [0.07, 0.08, 0.09, 0.1, 0.11, 0.12, 0.13, 0.14]
    assert len(SWEEP_GRIDS["delta_h"]) == 9
    assert SWEEP_GRIDS["delta_h"] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_sweep_single_value_matches_run(tmp_path):
    graph = _generate(tmp_path)
    run_out = tmp_path / "plain"
    sweep_out = tmp_path / "swept"
    assert main(["run", "--graph", str(graph), "--out", str(run_out),
                 "--variant", "hcgst", *RUN_ARGS]) == 0
    assert main(["sweep", "--graph", str(graph), "--out", str(sweep_out),
                 "--variant", "hcgst", "--param", "lambda_s", "--values", "2.0",
                 *RUN_ARGS]) == 0
    with open(sweep_out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["param"] == "lambda_s" and rows[0]["value"] == "2.0"
    with open(run_out / "aggregate.csv") as f:
        run_rows = list(csv.DictReader(f))
    assert rows[0]["acc_mean"] == run_rows[0]["acc_mean"]


def test_sweep_emits_row_per_value(tmp_path):
    graph = _generate(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--graph", str(graph), "--out", str(out),
                 "--param", "delta_h", "--values", "0.2,0.4,0.6",
                 "--label-rate", "0.1", "--val-fraction", "0.1", "--epochs", "30",
                 "--stages", "1", "--hidden", "12"]) == 0
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["value"] for r in rows] == ["0.2", "0.4", "0.6"]


def test_sweep_runs_every_listed_variant(tmp_path):
    graph = _generate(tmp_path)
    out = tmp_path / "sw"
    args = ["sweep", "--graph", str(graph), "--out", str(out), "--param", "lambda_d",
            "--values", "0.05,0.1", "--label-rate", "0.1", "--val-fraction", "0.1",
            "--epochs", "30", "--stages", "1", "--hidden", "12"]
    assert main([*args, "--variant", "st_confidence,hcgst"]) == 0
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert [(r["value"], r["variant"]) for r in rows] == [
        ("0.05", "hcgst"), ("0.05", "st_confidence"), ("0.1", "hcgst"), ("0.1", "st_confidence")]
    assert main([*args, "--variant", ""]) == 2


def test_sweep_runs_every_value_in_one_execute_runs_call(tmp_path, monkeypatch):
    graph = _generate(tmp_path)
    batches = []
    execute_runs = cli._execute_runs

    def recording(graph, opts, configs):
        batches.append([cfg.delta_h for cfg in configs])
        return execute_runs(graph, opts, configs)

    monkeypatch.setattr(cli, "_execute_runs", recording)
    assert main(["sweep", "--graph", str(graph), "--out", str(tmp_path / "sw"),
                 "--param", "delta_h", "--values", "0.2,0.4,0.6", "--label-rate", "0.1",
                 "--val-fraction", "0.1", "--epochs", "5", "--stages", "1", "--hidden", "12"]) == 0
    assert batches == [[0.2, 0.4, 0.6]]


def test_sweep_rejects_unknown_param(tmp_path):
    graph = _generate(tmp_path)
    code = main(["sweep", "--graph", str(graph), "--out", str(tmp_path / "x"),
                 "--param", "gravity"])
    assert code == 2


def test_report_reaggregates(tmp_path):
    graph = _generate(tmp_path)
    out = tmp_path / "runs"
    assert main(["run", "--graph", str(graph), "--out", str(out),
                 "--variant", "backbone_only", "--repeat", "2", *RUN_ARGS]) == 0
    agg = (out / "aggregate.csv").read_bytes()
    (out / "aggregate.csv").unlink()
    assert main(["report", "--runs", str(out)]) == 0
    assert (out / "aggregate.csv").read_bytes() == agg


_BIN_REPORT = {"acc_st": 0.5, "tpv": 0.0, "npv": 0.0, "ppv": 0.0, "acc_backbone": 0.5}


@pytest.mark.parametrize("source, payload, message", [
    ("report", {}, "run_hcgst_0.json is not a run report"),
    ("report", {"variant": "hcgst", "bin_report": {**_BIN_REPORT, "acc_st": None}},
     "run_hcgst_0.json is not a run report"),
    ("config", 5, "must hold a JSON object"),
    ("config", [1], "must hold a JSON object"),
    ("run", "hcgst,hcgst", "names a variant twice"),
    ("sweep", "hcgst,hcgst", "names a variant twice"),
], ids=["report_empty", "report_null_acc", "config_number", "config_list", "run_twice",
        "sweep_twice"])
def test_malformed_inputs_are_config_errors(tmp_path, capsys, source, payload, message):
    out = tmp_path / "out"
    if source == "report":
        (tmp_path / "run_hcgst_0.json").write_text(json.dumps(payload))
        argv = ["report", "--runs", str(tmp_path), "--out", str(out)]
    elif source == "config":
        (tmp_path / "spec.json").write_text(json.dumps(payload))
        argv = ["run", "--config", str(tmp_path / "spec.json"), "--graph", "g", "--out", str(out)]
    else:
        swept = ["--param", "lambda_d", "--values", "0.1"] if source == "sweep" else []
        argv = [source, "--graph", str(_generate(tmp_path)), "--out", str(out),
                "--variant", payload, *swept]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "report"])
def test_unparsable_json_error_names_its_file(tmp_path, capsys, source):
    out = tmp_path / "out"
    if source == "config":
        bad = tmp_path / "bad.json"
        bad.write_text("{bad")
        argv = ["run", "--graph", "g", "--out", str(out), "--config", str(bad)]
        reason = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    else:
        (tmp_path / "run_hcgst_0.json").write_text(json.dumps({"variant": "hcgst",
                                                               "bin_report": _BIN_REPORT}))
        bad = tmp_path / "run_x_1.json"
        bad.write_text("nope")
        argv = ["report", "--runs", str(tmp_path), "--out", str(out)]
        reason = "Expecting value: line 1 column 1 (char 0)"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
    assert not out.exists()


def test_report_rejects_empty_dir(tmp_path):
    (tmp_path / "empty").mkdir()
    assert main(["report", "--runs", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_parallel_jobs_match_serial(tmp_path, command):
    graph = _generate(tmp_path)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    swept = ["--param", "lambda_d", "--values", "0.05,0.1"] if command == "sweep" else []
    for out, jobs in ((serial, "1"), (parallel, "2")):
        assert main([command, "--graph", str(graph), "--out", str(out), "--variant", "hcgst",
                     "--repeat", "2", "--jobs", jobs, *swept, *RUN_ARGS]) == 0
    if command == "sweep":
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
        return
    for seed in (0, 1):
        a = _strip_timestamp(serial / f"run_hcgst_{seed}.json")
        b = _strip_timestamp(parallel / f"run_hcgst_{seed}.json")
        assert a == b
