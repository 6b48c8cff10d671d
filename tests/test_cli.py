import json
import os

import pytest

from qwtrain import cli


def run(args):
    return cli.main(args)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        run(["--version"])
    assert e.value.code == 0
    assert "qwtrain" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        run([])
    assert e.value.code == 1


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        run(["walk1d", "--bogus"])
    assert e.value.code == 1


def test_walk1d_writes_csv_and_manifest(tmp_path):
    assert run(["walk1d", "--steps", "3", "--out", "w.csv",
                "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[0] == "n,probability"
    assert lines[1].startswith("-3,")
    manifest = json.loads((tmp_path / "w.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "walk1d"
    assert manifest["config"]["steps"] == 3
    assert manifest["version"]
    assert manifest["outputs"] == [str(tmp_path / "w.csv")]


def test_walk1d_validates_steps(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["walk1d", "--steps", "-1", "--out-dir", str(tmp_path)])
    assert e.value.code == 1


def test_walknd_output(tmp_path):
    assert run(["walknd", "--dims", "2", "--steps", "2", "--out", "n.csv",
                "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "n.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,probability"
    total = sum(float(line.rsplit(",", 1)[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_walkc_trace(tmp_path):
    assert run(["walkc", "--n-vertices", "8", "--solutions", "2",
                "--out", "c.csv", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "t,p_AA,p_AB,p_BA,p_BB"
    # ceiling rounding of pi -> rows 0..4
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


def test_walkc_rejects_k_not_below_n(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["walkc", "--n-vertices", "8", "--solutions", "8",
             "--out-dir", str(tmp_path)])
    assert e.value.code == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 5, "init": "symmetric"}))
    assert run(["walk1d", "--config", str(cfg), "--steps", "2",
                "--out", "o.csv", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert manifest["config"]["steps"] == 2          # flag wins
    assert manifest["config"]["init"] == "symmetric"  # file beats default


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stepz": 5}))
    with pytest.raises(SystemExit) as e:
        run(["walk1d", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert e.value.code == 1


@pytest.mark.parametrize("subcommand,text,message", [
    ("walk1d", "5", "config file must hold a JSON object, got int"),
    ("walk1d", "[1, 2]", "config file must hold a JSON object, got list"),
    ("walk1d", "{not json", "cannot read config file"),
    ("walk1d", '{"steps": "5"}', "steps must be of type int, got '5'"),
    ("walk1d", '{"steps": true}', "steps must be of type int, got True"),
    ("walk1d", '{"steps": 2.0}', "steps must be of type int, got 2.0"),
    ("walk1d", '{"init": "sideways"}', "init must be one of"),
    ("walkc", '{"rounding": "up"}', "rounding must be one of"),
    ("train", '{"z": null}', "z must be of type int, got None"),
    ("train", '{"delta_p": "0.5"}', "delta_p must be of type float"),
    ("train", '{"count_noise": false}', "count_noise must be of type float"),
    ("backprop", '{"lr": NaN}', "lr must be finite"),
])
def test_config_file_values_are_validated(tmp_path, capsys, subcommand, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as e:
        run([subcommand, "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert e.value.code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_int_config_value_for_a_float_key_matches_the_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": 1, "runs": 0}))
    assert run(["backprop", "--config", str(cfg), "--out", "f.csv",
                "--out-dir", str(tmp_path)]) == 0
    assert run(["backprop", "--lr", "1", "--runs", "0", "--out", "g.csv",
                "--out-dir", str(tmp_path)]) == 0
    from_file = json.loads((tmp_path / "f.csv.manifest.json").read_text())
    from_flag = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert from_file["config"]["lr"] == 1.0
    assert isinstance(from_file["config"]["lr"], float)
    del from_file["config"]["out"], from_flag["config"]["out"]
    del from_file["outputs"], from_flag["outputs"]
    assert from_file == from_flag


@pytest.mark.parametrize("args", [
    ["walknd", "--dims", "0"],
    ["walknd", "--steps", "-1"],
    ["train", "--max-shifts", "-5"],
    ["backprop", "--jobs", "-3"],
    ["backprop", "--jobs", "0"],
    ["backprop", "--runs", "-1"],
    ["reproduce", "--train-runs", "-1"],
    ["reproduce", "--max-shifts", "-1"],
], ids=" ".join)
def test_out_of_range_run_sizes_are_usage_errors(tmp_path, args):
    with pytest.raises(SystemExit) as e:
        run(args + ["--out-dir", str(tmp_path)])
    assert e.value.code == 1
    assert list(tmp_path.iterdir()) == []  # rejected before any output


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
    assert run(["walk1d", "--steps", "1", "--out", "e.csv"]) == 0
    assert (tmp_path / "envout" / "e.csv").exists()


def test_train_writes_result_and_row_csvs(tmp_path):
    assert run(["train", "--seed", "2", "--out", "t.json",
                "--out-dir", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "t.json").read_text())
    assert result["N"] == 512
    assert result["outcome"] in ("AA", "AB", "BA", "BB")
    assert (tmp_path / "t_steps.csv").exists()
    assert (tmp_path / "t_probabilities.csv").exists()
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert manifest["seed"] == 2
    assert len(manifest["outputs"]) == 3


def test_train_dry_run_prints_steps_without_outputs(tmp_path, capsys):
    assert run(["train", "--seed", "2", "--dry-run",
                "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "t_int" in out and "N=512" in out
    assert not (tmp_path / "train_result.json").exists()


def test_dropped_options_are_unknown_keys(tmp_path, capsys):
    # train's weight count is fixed at 9 and the walks draw no random numbers
    for subcommand, key in (("train", "w"), ("walk1d", "seed"),
                            ("walknd", "seed"), ("walkc", "seed")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 9}))
        with pytest.raises(SystemExit) as e:
            run([subcommand, "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert e.value.code == 1
        assert "unknown config keys" in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        run(["train", "--w", "9", "--out-dir", str(tmp_path)])
    assert e.value.code == 1


def test_train_no_solution_is_a_runtime_error(tmp_path, capsys):
    assert run(["train", "--seed", "0", "--max-shifts", "5",
                "--out-dir", str(tmp_path)]) == 2
    assert "no window with solutions" in capsys.readouterr().err


def test_backprop_csv_and_summary(tmp_path):
    assert run(["backprop", "--runs", "3", "--seed", "500", "--out", "b.csv",
                "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert lines[0] == "lr,seed,outcome,epochs,final_mse"
    assert len(lines) == 5  # header + 3 runs + summary
    assert lines[-1].startswith("summary,min=")
    seeds = [line.split(",")[1] for line in lines[1:4]]
    assert seeds == ["500", "501", "502"]


def test_backprop_rejects_nonpositive_lr(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["backprop", "--lr", "0", "--out-dir", str(tmp_path)])
    assert e.value.code == 1


def test_epochs_summary_matches_hand_stats():
    class R:
        def __init__(self, e):
            self.epochs_used = e

    # hand spreadsheet: {2, 4, 4, 4, 5, 5, 7, 9} -> mean 5, sample std 2.138
    s = cli.epochs_summary([R(e) for e in (2, 4, 4, 4, 5, 5, 7, 9)])
    assert s["min"] == 2 and s["max"] == 9
    assert s["mean"] == pytest.approx(5.0)
    assert s["std"] == pytest.approx(2.13808993, abs=1e-6)


def test_reproduce_end_to_end(tmp_path, capsys):
    assert run(["reproduce", "--train-runs", "2", "--out-dir", str(tmp_path)]) == 0
    assert "0 failing rows" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "reproduce.manifest.json").read_text())
    assert manifest["config"] == {"seed": 500, "max_shifts": 100000, "train_runs": 2}
    assert manifest["outputs"]
    for path in manifest["outputs"]:
        assert os.path.exists(path), path
    report = (tmp_path / "report.md").read_text()
    assert "k = 3240" in report
    assert "FAIL" not in report
