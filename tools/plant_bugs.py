"""Check that the fast tests catch each of a list of planted bugs.

Usage::

    python tools/plant_bugs.py [-h]

Each plant is one exact string replacement in one file under ``src/``.  For
each plant the tool copies ``src/``, ``tests/``, ``tools/`` and
``pyproject.toml`` into a temporary directory, applies the plant there and
runs ``pytest -x`` on every test outside ``tests/test_acceptance.py``
against that copy.  The plant is caught when that run fails.  An unplanted
copy is run first and must pass, so that a failure belongs to its plant.
The checkout itself is never edited.  Exits 1 if the unplanted copy fails,
if a plant's text does not occur exactly once in its file, or if a plant
survives.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")

# (name, file under src/airsplit, text to replace, replacement)
PLANTS = (
    ("aggregate std_loss from the accuracies", "bench.py",
     "float(np.std(losses))", "float(np.std(accs))"),
    ("aggregate spread with ddof=1", "bench.py",
     "float(np.std(accs)),", "float(np.std(accs, ddof=1)),"),
    ("failed run's step reset to 0", "bench.py",
     'values = (f"failed:{type(exc).__name__}", step,',
     'values = (f"failed:{type(exc).__name__}", 0,'),
    ("failures.json not written", "bench.py",
     '        _write_json(out / "failures.json", failures)\n', "        pass\n"),
    ("a stale failures.json kept", "bench.py",
     ',\n                  *out.glob("failures.json")]', "]"),
    ("a bool written as 1", "bench.py",
     "if isinstance(value, (str, bool)):", "if isinstance(value, str):"),
    ("batch norm mean taken on the complex values", "nn.py",
     "            mu = np.empty(self.n, dtype=np.complex128)\n"
     "            for part, out in ((x.real, mu.real), (x.imag, mu.imag)):\n"
     "                np.add.reduce(part, axis=axes, out=out)\n"
     "            mu.view(np.float64)[...] /= x.size // self.n\n",
     "            mu = x.mean(axis=axes)\n"),
    ("Adam skips its layout rebuild", "nn.py",
     "if layout != self._layout:", "if self._layout is None:"),
    ("covariance tracker ALPHA 0.9", "runtime.py", "ALPHA = 0.99", "ALPHA = 0.9"),
    ("regret b drawn before A", "runtime.py",
     "        a = crandn(rng, (n, s, m, d), var=1.0 / d, out=chunk[:n])\n"
     "        b = crandn(rng, (n, s, m), var=cfg.obs_noise ** 2)\n",
     "        b = crandn(rng, (n, s, m), var=cfg.obs_noise ** 2)\n"
     "        a = crandn(rng, (n, s, m, d), var=1.0 / d, out=chunk[:n])\n"),
    ("regret gram added in one block per chunk", "runtime.py",
     "            for k in range(a_blk.shape[1]):\n"
     "                np.copyto(ak.reshape(a_blk[:, k].shape), a_blk[:, k])\n"
     "                self.gram[k] += np.conj(ak, out=akc).T @ ak\n",
     "            for k in range(a.shape[1]) if lo == 0 else ():\n"
     "                ak = a[:, k].reshape(-1, a.shape[3])\n"
     "                self.gram[k] += np.conj(ak).T @ ak\n"),
    ("stream gradients not conjugated", "oac.py",
     "stream_grads = np.conj(received)", "stream_grads = received.copy()"),
    ("transmit_backward through the conjugate transpose", "channel.py",
     "first, second = state.matrix.T, None", "first, second = state.matrix.conj().T, None"),
    ("Adam BETA2 = 0.99", "nn.py", "BETA2 = 0.999", "BETA2 = 0.99"),
    ("train_y left unpermuted", "bench.py", "train_y=cls,", "train_y=np.sort(cls),"),
    ("train gather takes divmod by the samples per class", "bench.py",
     "np.divmod(rng.permutation(c * tpc), tpc)",
     "np.divmod(rng.permutation(c * tpc), tpc + cfg.test_per_class)"),
    ("a boolean SNR written as float(v)", "bench.py",
     "if isinstance(v, bool) or not isinstance(v, numbers.Real):",
     "if not isinstance(v, numbers.Real):"),
    ("n_failed counts diverged runs", "bench.py",
     'n_failed = sum(row["status"].startswith("failed:")',
     'n_failed = sum(row["status"].startswith("diverged@")'),
    ("floats written as %.12g", "bench.py",
     "    return repr(float(value))\n", '    return "%.12g" % float(value)\n'),
    ("crandn draws the imaginary part first", "linalg.py",
     "    _draw_normals(rng, flat.real, scale, buf)\n"
     "    _draw_normals(rng, flat.imag, scale, buf)\n",
     "    _draw_normals(rng, flat.imag, scale, buf)\n"
     "    _draw_normals(rng, flat.real, scale, buf)\n"),
    ("SGD links keep the backward transmit scale", "bench.py",
     'backward_rescale=cfg.train.optimizer == "sgd")', "backward_rescale=False)"),
    ("NoiseModel accepts snr_db = -inf", "channel.py",
     "if not (self.snr_db == math.inf or", "if not (abs(self.snr_db) == math.inf or"),
    ("NoiseModel accepts a finite SNR past the bound", "channel.py",
     "-MAX_SNR_DB <= self.snr_db <= MAX_SNR_DB", "math.isfinite(self.snr_db)"),
    ("validate_config accepts a finite SNR past the bound", "bench.py",
     "(_finite(v) and abs(v) <= MAX_SNR_DB)", "_finite(v)"),
    ("no final evaluation when eval_every does not divide steps", "bench.py",
     "(step % t.eval_every == 0 or step == t.steps)", "(step % t.eval_every == 0)"),
    ("drift mixes departures toward the fresh arrivals", "channel.py",
     "state.paths.departures + rho * departures_new,",
     "state.paths.departures + rho * arrivals_new,"),
    ("a conv link's comm penalty dropped", "runtime.py",
     'name = "mix.C" if conv else "C"', 'name = "C"'),
    ("a numpy scalar left unconverted in config_to_dict", "bench.py",
     "return v.item() if isinstance(v, np.generic) else v", "return v"),
    ("the name check removed", "bench.py",
     '_require(isinstance(cfg.name, str) and cfg.name != "", "name",',
     '_require(True, "name",'),
)


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _run_tests(tree: Path) -> tuple[bool, str]:
    """(passed, first failing test) of pytest -x over tree's fast tests."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
         "tests", "--ignore=tests/test_acceptance.py"],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, failed[0] if failed else proc.stdout[-300:]


def _trial(plant=None) -> tuple[bool, str]:
    """Copy the tree, apply plant (None: none) and run the fast tests.
    Returns (passed, detail); a plant that does not apply once raises."""
    with tempfile.TemporaryDirectory(prefix="plant_bugs_") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if plant is not None:
            _, file, old, new = plant
            path = tree / "src" / "airsplit" / file
            text = path.read_text()
            if text.count(old) != 1:
                raise LookupError(f"{file}: the planted text occurs {text.count(old)} "
                                  "times, not once")
            path.write_text(text.replace(old, new))
        return _run_tests(tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.parse_args(argv)
    start = time.perf_counter()
    passed, detail = _trial()
    if not passed:
        print(f"the unplanted tree fails its fast tests: {detail}")
        return 1
    print(f"unplanted tree passes ({time.perf_counter() - start:.1f} s)")
    bad = 0
    for plant in PLANTS:
        t0 = time.perf_counter()
        try:
            passed, detail = _trial(plant)
        except LookupError as exc:
            print(f"NOT APPLIED  {plant[0]}: {exc}")
            bad += 1
            continue
        verdict = "SURVIVED" if passed else "caught"
        print(f"{verdict:11s}  {plant[0]} ({time.perf_counter() - t0:.1f} s): "
              f"{'' if passed else detail}")
        bad += passed
    print(f"{len(PLANTS) - bad} of {len(PLANTS)} plants caught in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
