import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_runs = _load("compare_runs")


def _run_dir(root: Path, scale: float = 1.0, csv: str = "phase,step\ntrain,1\n"):
    (root / "cfg" / "runs").mkdir(parents=True)
    (root / "cfg" / "runs" / "r2_snr10_seed0.csv").write_text(csv)
    (root / "regret_500").mkdir()
    np.save(root / "regret_500" / "final.npy", np.array([1.0, 2.0, 0.0]) * scale)
    np.save(root / "regret_500" / "ts.npy", np.arange(4.0))
    return root


def test_identical_directories_pass(tmp_path, capsys):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    assert compare_runs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3 byte-equal, 0 within rtol, 0 failed"


@pytest.mark.parametrize("rtol, code", [(None, 1), ("1e-12", 0), ("1e-16", 1)])
def test_a_differing_npy_file_is_judged_by_its_relative_difference(tmp_path, capsys,
                                                                   rtol, code):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b", scale=1.0 + 1e-15)
    args = [str(a), str(b)] + ([] if rtol is None else ["--rtol", rtol])
    assert compare_runs.main(args) == code
    out = capsys.readouterr().out
    assert "regret_500/final.npy: largest relative difference 1.11e-15" in out
    assert out.splitlines()[-1].startswith("2 byte-equal")


@pytest.mark.parametrize("change", ["csv", "missing", "extra", "shape"])
def test_any_other_difference_fails(tmp_path, capsys, change):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    if change == "csv":
        (b / "cfg" / "runs" / "r2_snr10_seed0.csv").write_text("phase,step\ntrain,2\n")
    elif change == "missing":
        (b / "regret_500" / "ts.npy").unlink()
    elif change == "extra":
        (b / "cfg" / "runs" / "r2_snr10_seed1.csv").write_text("phase,step\n")
    else:
        np.save(b / "regret_500" / "ts.npy", np.arange(5.0))
    assert compare_runs.main([str(a), str(b), "--rtol", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


_CSV = "phase,step,loss,status\ntrain,10,{loss},{status}\n"


@pytest.mark.parametrize("loss, status, rtol, code", [
    ("1.0000000001", "ok", "1e-9", 0),          # 1e-10 relative: inside
    ("1.00000001", "ok", "1e-9", 1),            # 1e-8 relative: outside
    ("1.0", "diverged@10", "1", 1),             # a status cell must be equal
])
def test_a_differing_csv_file_is_judged_cell_by_cell(tmp_path, capsys, loss, status,
                                                     rtol, code):
    a = _run_dir(tmp_path / "a", csv=_CSV.format(loss="1.0", status="ok"))
    b = _run_dir(tmp_path / "b", csv=_CSV.format(loss=loss, status=status))
    assert compare_runs.main([str(a), str(b), "--rtol", rtol]) == code
    out = capsys.readouterr().out
    assert ("FAIL" in out) == bool(code)
    if status != "ok":
        assert "'ok' vs 'diverged@10'" in out


def test_relative_difference_handles_zeros_infinities_and_nans():
    rel = compare_runs.relative_difference
    assert rel(np.array([0.0, np.inf, np.nan]), np.array([0.0, np.inf, np.nan])) == 0.0
    assert rel(np.array([2.0]), np.array([1.0])) == 0.5
    assert rel(np.array([1.0]), np.array([np.nan])) == np.inf
    assert rel(np.array([1.0]), np.array([np.inf])) == np.inf
    assert rel(np.array([1.0 + 1.0j]), np.array([1.0 - 1.0j])) == pytest.approx(2.0 ** 0.5)


@pytest.fixture
def identity_runs(monkeypatch):
    """The identity tool, loaded so that its BLAS-thread variables and its
    sys.path entry are undone after the test."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    return _load("identity_runs")


def test_conv_reference_run_is_byte_equal_on_a_rerun(tmp_path, identity_runs):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        losses = identity_runs.write_conv(out / "conv_split")
    assert losses.shape == (5, 2) and np.all(np.isfinite(losses))
    assert np.all(losses[:, 1] > 0.0)              # the mix.C penalty branch ran
    names = identity_runs.conv_split_system().parameters()
    files = {p.name for p in (a / "conv_split").iterdir()}
    assert files == {f"{name}.npy" for name in names} | {"losses.npy"}
    assert compare_runs.compare_dirs(a, b) == (len(files), [])


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 2), (["a", "b"], 2)])
def test_identity_tool_parses_its_arguments_before_running(tmp_path, monkeypatch, capsys,
                                                           identity_runs, argv, code):
    # --help prints the usage; a missing or an extra OUT_DIR is a usage
    # error.  Neither runs a config or writes a file.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        identity_runs.main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert "usage:" in (out if code == 0 else err) and "OUT_DIR" in out + err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["extra"], 2)])
def test_plant_tool_takes_no_argument_but_help(monkeypatch, capsys, argv, code):
    # Neither copies the tree nor runs a test.
    plant_bugs = _load("plant_bugs")
    monkeypatch.setattr(plant_bugs, "_trial", lambda plant=None: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        plant_bugs.main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert "usage:" in (out if code == 0 else err)
