import json
import subprocess
import sys

import numpy as np
import pytest

from airsplit.cli import main


def test_cost_prints_every_design_and_writes_csv(tmp_path, capsys):
    rc = main(["cost", "n_i=6", "n_o=6", "n_t=4", "n_r=4", "r=3", "batch=3",
               "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fc transmitter/separated" in out
    assert "proposed" in out
    lines = (tmp_path / "cost.csv").read_text().splitlines()
    assert lines[0] == "kind,side,form,parameters,macs,transmissions"
    sep = next(l for l in lines if l.startswith("fc,transmitter,separated"))
    assert sep.endswith("60,252,6")
    assert (tmp_path / "comparison.csv").exists()


def test_cost_rejects_unknown_size(capsys):
    rc = main(["cost", "n_i=6", "n_o=6", "n_t=4", "n_r=4", "r=3", "n_q=2"])
    err = capsys.readouterr().err
    assert rc == 2
    record = json.loads(err)
    assert record["error"] == "config" and "n_q" in record["message"]


def test_gen_data_writes_dataset_and_config(tmp_path, capsys):
    rc = main(["gen-data", "--seed", "11", "--out-dir", str(tmp_path),
               "--override", "n_classes=3", "--override", "train_per_class=6",
               "--override", "test_per_class=2", "--override", "n_features=4"])
    out = capsys.readouterr().out
    assert rc == 0 and "18 train / 6 test" in out
    with np.load(tmp_path / "dataset.npz") as data:
        assert data["train_x"].shape == (4, 18)
    meta = json.loads((tmp_path / "dataset.json").read_text())
    assert meta["seed"] == 11 and meta["n_classes"] == 3


def test_run_executes_a_small_sweep(tmp_path, capsys):
    rc = main([
        "run", "complex_2node", "--seed", "0", "--out-dir", str(tmp_path),
        "--override", "train.steps=10", "--override", "train.eval_every=5",
        "--override", "train.batch_size=8", "--override", "n_tx=4",
        "--override", "n_rx=4", "--override", "r_values=[2]",
        "--override", "data.train_per_class=10",
        "--override", "data.test_per_class=3",
        "--override", "data.n_features=6", "--override", "data.n_classes=3",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 runs finished, 0 failed" in out
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "runs" / "r2_snr35_seed0.csv").exists()


def test_run_rejects_unknown_config(capsys):
    rc = main(["run", "no_such_preset_or_file"])
    err = capsys.readouterr().err
    assert rc == 2 and json.loads(err)["error"] == "config"


def test_regret_reports_slopes_and_writes_artifacts(tmp_path, capsys):
    rc = main([
        "regret", "--seed", "4", "--out-dir", str(tmp_path),
        "--override", "steps=300", "--override", "dim=8",
        "--override", "obs=2", "--override", "n_seeds=2",
        "--override", "fit_floor=20", "--override", "sigmas=[0.0, 0.1, 0.3]",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("sigma=") == 3 and "measured" in out
    curves = (tmp_path / "regret_curves.csv").read_text().splitlines()
    assert curves[0] == "t,sigma_0.0,sigma_0.1,sigma_0.3"
    summary = json.loads((tmp_path / "regret_summary.json").read_text())
    assert len(summary["slopes"]) == 3 and not summary["diverged"]


def test_regret_rejects_unknown_field(capsys):
    rc = main(["regret", "--override", "momentum=0.9"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_regret_rejects_a_one_sample_slope_fit(capsys):
    rc = main(["regret", "--override", "steps=20", "--override", "dim=4",
               "--override", "n_seeds=2"])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2 and err["error"] == "config"
    assert "steps" in err["message"] and "fit_floor" in err["message"]


def test_verify_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[FAIL]" not in out and out.count("[ok]") >= 10


def test_installed_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "airsplit.cli", "cost",
         "n_i=6", "n_o=6", "n_t=4", "n_r=4", "r=3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fc receiver/combined" in proc.stdout


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main([])
