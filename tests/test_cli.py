import json
import subprocess
import sys

import pytest

from airsplit.cli import main
from airsplit.runtime import SplitSystem
from airsplit.verify import CHECKS


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


def test_cost_files_are_the_shared_csv_format(tmp_path, capsys):
    # Bools as True/False and floats as repr, as the run files write them.
    rc = main(["cost", "n_i=6", "n_o=6", "n_t=4", "n_r=4", "r=3",
               "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "cost.csv").read_text() == (
        "kind,side,form,parameters,macs,transmissions\n"
        "fc,transmitter,combined,60,72,2\n"
        "fc,transmitter,separated,60,84,2\n"
        "fc,receiver,combined,60,72,2\n"
        "fc,receiver,separated,60,84,2\n")
    assert (tmp_path / "comparison.csv").read_text() == (
        "algorithm,transmission_factor,transmission_bound,estimation_factor,"
        "estimation_bound\n"
        "traditional,1.0,False,1.0,False\n"
        "mimo_split,0.3333333333333333,False,0.3333333333333333,False\n"
        "ideal,0.020833333333333332,True,0.020833333333333332,True\n"
        "proposed,0.020833333333333332,True,0.0,False\n")


def test_cost_rejects_unknown_size(capsys):
    rc = main(["cost", "n_i=6", "n_o=6", "n_t=4", "n_r=4", "r=3", "n_q=2"])
    err = capsys.readouterr().err
    assert rc == 2
    record = json.loads(err)
    assert record["error"] == "config" and "n_q" in record["message"]


@pytest.mark.parametrize("argv, item", [
    (["cost", "n_i"], "n_i"),
    (["regret", "--override", "steps"], "steps"),
])
def test_an_item_without_equals_is_rejected_by_name(argv, item, capsys):
    rc = main(argv)
    record = json.loads(capsys.readouterr().err)
    assert rc == 2 and record["error"] == "config"
    assert record["message"] == f"override {item!r}: expected key=value"


@pytest.mark.parametrize("argv, field", [
    (["cost", "n_i=6.5", "n_o=6", "n_t=4", "n_r=4", "r=3"], "n_i"),
    (["cost", "n_i=6", "n_o=6", "n_t=4", "n_r=4", "r=3", "n_ci=1", "n_co=2", "n_k=3",
      "n_hi=4", "n_wi=4", "n_ho=4", "n_wo=4.0"], "n_wo"),
    (["run", "complex_2node", "--override", "train.steps=2.5"], "train.steps"),
    (["run", "complex_2node", "--override", "n_paths=2.5"], "n_paths"),
    (["cost", "n_i=true", "n_o=6", "n_t=4", "n_r=4", "r=3"], "n_i"),
    (["run", "complex_2node", "--override", "train.steps=true"], "train.steps"),
], ids=str)
def test_a_non_integer_size_fails_by_name_before_any_output(argv, field, tmp_path, capsys):
    # These printed a table header and then failed on a format code, recorded
    # failed:TypeError for every run, or failed inside numpy, with exit 1.
    if argv[0] == "run":
        argv = argv + ["--out-dir", str(tmp_path / "out")]
    rc = main(argv)
    out, err = capsys.readouterr()
    record = json.loads(err)
    assert rc == 2 and out == "" and record["error"] == "config"
    assert f"{field}: " in record["message"] and "must be an integer" in record["message"]
    assert not (tmp_path / "out").exists()


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


def test_run_rejects_a_boolean_rho_by_name(tmp_path, capsys):
    # rho=true used to construct a config with rho True and train with it.
    rc = main(["run", "complex_2node", "--override", "rho=true",
               "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "config", "message": "rho: must lie in [0, 1]"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    ("name=5", "name: 5 must be a non-empty string"),
    ('name=""', "name: '' must be a non-empty string"),
    ("forward_rescale=false", "forward_rescale: unknown field"),
    ("forward_rescale=off", "forward_rescale: unknown field"),
    ("backward_rescale=on", "backward_rescale: unknown field"),
    ("bias=null", "bias: unknown field"),
], ids=str)
def test_run_rejects_a_bad_name_or_a_deleted_field_by_name(override, message, tmp_path,
                                                            capsys, monkeypatch):
    # name=5 failed with a TypeError from Path("out") / 5, exit 1.  The
    # deleted fields were accepted: forward_rescale=off trained with the
    # rescale on, and bias=null dropped every link bias.
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "complex_2node", "--override", override,
               "--override", "train.steps=1", "--override", "seeds=[0]"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "config", "message": message}
    assert list(tmp_path.iterdir()) == []


def test_run_prints_the_step_and_message_of_a_failed_run(tmp_path, capsys, monkeypatch):
    train_batch = SplitSystem.train_batch
    steps = iter(range(1, 100))

    def train_or_fail(self, *args):
        if next(steps) == 3:
            raise FloatingPointError("injected at step 3")
        return train_batch(self, *args)

    monkeypatch.setattr(SplitSystem, "train_batch", train_or_fail)
    rc = main(["run", "complex_2node", "--seed", "0", "--out-dir", str(tmp_path),
               "--override", "train.steps=5", "--override", "n_tx=4",
               "--override", "n_rx=4", "--override", "r_values=[2]"])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  r=2 snr=35.0 seed=0: failed:FloatingPointError at step 3: injected at step 3"]


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
    text = (tmp_path / "regret_curves.csv").read_text()
    curves = text.splitlines()
    assert text.endswith("\n") and "\r" not in text
    assert curves[0] == "t,sigma_0.0,sigma_0.1,sigma_0.3"
    ts = []
    for line in curves[1:]:
        t, *vals = line.split(",")
        assert t == str(int(t)) and len(vals) == 3
        assert all(v == repr(float(v)) for v in vals)
        ts.append(int(t))
    assert ts == sorted(set(ts)) and ts[-1] == 300
    text = (tmp_path / "regret_summary.json").read_text()
    summary = json.loads(text)
    assert text == json.dumps(summary, indent=2, sort_keys=True) + "\n"
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


def test_regret_rejects_a_field_by_name(capsys):
    rc = main(["regret", "--override", "dim=0"])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2 and err["error"] == "config"
    assert err["message"].startswith("regret: dim = 0")


@pytest.mark.parametrize("argv, start", [
    (["--seed", "-1"], "regret: seed = -1 "),
    (["--override", "n_seeds=true"], "regret: n_seeds = True "),
], ids=str)
def test_regret_rejects_a_bad_seed_or_a_boolean_size_by_name(argv, start, capsys):
    # These exited 1, with numpy's "expected non-negative integer" or a
    # TypeError, instead of a config record.
    rc = main(["regret", *argv])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2 and err["error"] == "config"
    assert err["message"].startswith(start)


def test_verify_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == [f"[ok]   {name}" for name, _ in CHECKS]


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


def test_an_unknown_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["gen-data"])
