import argparse
import json
import os
import tracemalloc

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


def test_walkc_streams_its_trace(tmp_path, capsys):
    # N = 1.6e8, k = 1 peaks at 19,870 steps; a list of the rows would hold
    # about 4 MiB, the rows written as they come about 0.2 MiB
    tracemalloc.start()
    try:
        assert run(["walkc", "--n-vertices", "160000000", "--solutions", "1",
                    "--out", "c.csv", "--out-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    last = (tmp_path / "c.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "19870"
    assert f"p_AA(19870)={float(last[1]):.4f} p_AB={float(last[2]):.4f}" in capsys.readouterr().out


def test_walkc_rejects_k_not_below_n(tmp_path):
    with pytest.raises(SystemExit) as e:
        run(["walkc", "--n-vertices", "8", "--solutions", "8",
             "--out-dir", str(tmp_path)])
    assert e.value.code == 1


def test_walkc_rejects_n_beyond_the_float_range(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        run(["walkc", "--n-vertices", "1" + "0" * 400, "--out-dir", str(tmp_path)])
    assert e.value.code == 1
    assert "error: N(N+l-1) edge states exceed the float range" in capsys.readouterr().err


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
    ("train", '{"z": null}', "z must be of type int, got None"),
    ("train", '{"delta_p": "0.5"}', "delta_p must be of type float"),
    ("backprop", '{"lr": NaN}', "lr must be finite"),
    ("train", '{"delta_p": 1' + "0" * 400 + '}', "delta_p must be finite"),
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
    ["walknd", "--dims", "9"],
    ["walknd", "--dims", "1000000000"],
    # walks whose steps x (steps+1)^d x 2^d pass the cap: refused before a step
    ["walknd", "--steps", "136"],
    ["walknd", "--dims", "8", "--steps", "3"],
    ["walknd", "--steps", "1" + "0" * 30],
    ["walk1d", "--steps", "2236"],
    ["walk1d", "--steps", "1000000000"],
    # 15,707,963,268 steps: the trace is refused before it is built
    ["walkc", "--n-vertices", "100000000000000000000", "--solutions", "1"],
    ["train", "--max-shifts", "-5"],
    # backprop has no --jobs option: a bad worker count is refused as an unknown flag
    ["backprop", "--jobs", "-3"],
    ["backprop", "--jobs", "0"],
    ["backprop", "--runs", "-1"],
    ["train", "--seed", "-1"],
    ["backprop", "--seed", "-1"],
    ["backprop", "--seed", "-1", "--runs", "0"],
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


def test_dropped_options_are_unknown_keys(tmp_path, capsys):
    # train's weight count is fixed at 9, the walks draw no random numbers,
    # reproduce runs the criteria at their reference run sizes, backprop
    # runs its seeds in one process, the step count is always the ceiling of
    # the formula on the exact k, and every train run writes its outputs
    out_dir = tmp_path / "out"
    for subcommand, key in (("train", "w"), ("walk1d", "seed"), ("walknd", "seed"),
                            ("walkc", "seed"), ("reproduce", "seed"),
                            ("reproduce", "max_shifts"), ("reproduce", "train_runs"),
                            ("backprop", "jobs"), ("train", "rounding"),
                            ("train", "count_noise"), ("walkc", "rounding")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 9}))
        with pytest.raises(SystemExit) as e:
            run([subcommand, "--config", str(cfg), "--out-dir", str(out_dir)])
        assert e.value.code == 1
        assert "unknown config keys" in capsys.readouterr().err
    for args in (["train", "--w", "9"], ["reproduce", "--seed", "500"],
                 ["reproduce", "--train-runs", "2"], ["reproduce", "--max-shifts", "100"],
                 ["backprop", "--jobs", "2"], ["train", "--dry-run"],
                 ["train", "--rounding", "floor"], ["train", "--count-noise", "0.1"],
                 ["walkc", "--rounding", "nearest"]):
        with pytest.raises(SystemExit) as e:
            run(args + ["--out-dir", str(out_dir)])
        assert e.value.code == 1
    assert not out_dir.exists()


def test_every_flag_comes_from_a_defaults_key():
    (subparsers,) = (a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    for command in cli.SUBCOMMANDS:
        parser = subparsers.choices[command.name]
        flags = {s for action in parser._actions for s in action.option_strings}
        assert flags == {"-h", "--help", "--config", "--out-dir"} | {
            "--" + key.replace("_", "-") for key in command.defaults}, command.name


def test_train_no_solution_is_a_runtime_error(tmp_path, capsys):
    assert run(["train", "--seed", "0", "--max-shifts", "5",
                "--out-dir", str(tmp_path)]) == 2
    assert "no window with solutions" in capsys.readouterr().err


def test_train_above_the_vertex_cap_is_a_runtime_error(tmp_path, capsys):
    # 11^9 vertices: refused before the window search starts
    assert run(["train", "--z", "11", "--out-dir", str(tmp_path)]) == 2
    assert "above the cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_backprop_csv_and_summary(tmp_path, capsys):
    assert run(["backprop", "--runs", "3", "--seed", "500", "--out", "b.csv",
                "--out-dir", str(tmp_path)]) == 0
    data = (tmp_path / "b.csv").read_bytes()
    assert data.count(b"\n") == data.count(b"\r\n") == 5  # every row ends in CRLF
    lines = data.decode().splitlines()
    assert lines[0] == "lr,seed,outcome,epochs,final_mse"
    assert len(lines) == 5  # header + 3 runs + summary
    assert lines[-1].startswith("summary,min=")
    seeds = [line.split(",")[1] for line in lines[1:4]]
    assert seeds == ["500", "501", "502"]
    assert ("3/3 successful, outcomes success=3 epoch_limit=0 stagnation=0, epochs min="
            in capsys.readouterr().out)
    # at lr 1e-300 the weights never move, so every run stagnates
    assert run(["backprop", "--runs", "2", "--seed", "500", "--lr", "1e-300",
                "--out-dir", str(tmp_path)]) == 0
    assert ("0/2 successful, outcomes success=0 epoch_limit=0 stagnation=2, epochs "
            "min=1001 mean=1001.00 max=1001 std=0.00" in capsys.readouterr().out)


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


def test_reproduce_end_to_end(reproduce_run):
    assert "; 0 failing checks" in reproduce_run.stdout
    manifest = json.loads((reproduce_run.out_dir / "reproduce.manifest.json").read_text())
    assert manifest["config"] == {}
    assert manifest["outputs"]
    for path in manifest["outputs"]:
        assert os.path.exists(path), path
    assert sorted(reproduce_run.criteria) == list(range(1, 10))
    report = (reproduce_run.out_dir / "report.md").read_text()
    assert "k = 3240" in report
    assert "FAIL" not in report
