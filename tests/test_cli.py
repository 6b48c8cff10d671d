import json

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


def test_train_rejects_w_other_than_9(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        run(["train", "--w", "5", "--out-dir", str(tmp_path)])
    assert e.value.code == 1
    assert "w must be 9" in capsys.readouterr().err


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
