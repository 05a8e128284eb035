"""The benchmark's workloads, built from a seed through airsplit's public API.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses an ``airsplit`` found anywhere else, so the benchmark always measures
the source tree it sits in.

Why these workloads:

* ``massive64``: the ``massive_3node`` preset (64x64 arrays, r=8, K=8 uses,
  comm loss on).  Step time goes to LAPACK and noise draws: the comm-loss
  SVD and ``crandn``.
* ``designs16``: the ``moving_3node`` preset (16x16, r=4, drift on, comm
  loss off) trained once per ``side x form`` design.  The only workload that
  drifts the channel and runs the transmitter and combined layouts; it is
  dispatch-bound, and the no-change control for comm-loss work.
* ``regret``: ``regret_experiment`` (dim 64, 8 seeds, 3 sigmas) at shortened
  ``steps``.  Einsum work and large noise draws; it never touches ``nn``,
  ``oac`` or ``channel``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "airsplit" / "__init__.py").is_file():
    raise ImportError(f"no airsplit sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import airsplit  # noqa: E402
from airsplit import bench, runtime  # noqa: E402
from airsplit.channel import NOISELESS, sample_channel  # noqa: E402
from airsplit.linalg import crandn, make_rng  # noqa: E402
from airsplit.oac import ALL_DESIGNS, OacLayer, equivalent_weight  # noqa: E402

if Path(airsplit.__file__).resolve().parent != SRC / "airsplit":
    raise ImportError(f"airsplit imported from {airsplit.__file__}, not {SRC}")

NAMES = ("massive64", "designs16", "regret")
TRAINING = ("massive64", "designs16")

# Train steps per run and the eval cadence inside it; regret steps per call.
# "tiny" sizes keep the same structure and exist for the smoke test.
_TRAIN_STEPS = {"full": (80, 20), "tiny": (60, 30)}
_REGRET_STEPS = {"full": 500, "tiny": 300}
# Final test accuracy must beat this multiple of chance (1 / classes).
ACCURACY_OVER_CHANCE = 3.0
EQUIVALENCE_TOL = 1e-9


def training_configs(workload: str, seed: int, tiny: bool = False) -> list:
    """The ExperimentConfigs one pass of a training workload runs, in order."""
    steps, eval_every = _TRAIN_STEPS["tiny" if tiny else "full"]
    if workload == "massive64":
        base, designs = bench.preset("massive_3node"), [None]
    elif workload == "designs16":
        base, designs = bench.preset("moving_3node"), list(ALL_DESIGNS)
    else:
        raise ValueError(f"{workload!r} is not a training workload")
    data = dataclasses.replace(base.data, seed=seed)
    if tiny:
        base = dataclasses.replace(base, n_tx=8, n_rx=8, r_values=(2,))
    base = dataclasses.replace(
        base, seeds=(seed,), channel_seed=1000 + seed, data=data,
        train=dataclasses.replace(base.train, steps=steps, eval_every=eval_every))
    out = []
    for d in designs:
        cfg = base if d is None else dataclasses.replace(
            base, side=d.side, form=d.form, name=f"{base.name}_{d.side}_{d.form}")
        out.append(bench.validate_config(cfg))
    return out


def regret_config(seed: int, tiny: bool = False) -> runtime.RegretConfig:
    cfg = runtime.RegretConfig(steps=_REGRET_STEPS["tiny" if tiny else "full"],
                               seed=seed)
    if tiny:
        cfg = dataclasses.replace(cfg, dim=8, n_seeds=4)
    return cfg


def steps_per_pass(workload: str, seed: int, tiny: bool = False) -> int:
    """Train steps (regret steps for ``regret``) one pass runs."""
    if workload == "regret":
        return regret_config(seed, tiny).steps
    return sum(c.train.steps for c in training_configs(workload, seed, tiny))


def setup(workload: str, seed: int, tiny: bool = False) -> None:
    """What a run builds before its first step: data, channels, systems.

    Mirrors the set-up half of ``run_experiment`` through public calls.
    """
    if workload == "regret":
        regret_config(seed, tiny)
        return
    cfgs = training_configs(workload, seed, tiny)
    first = cfgs[0]
    bench.generate_dataset(first.data)
    channels = [sample_channel(first.n_tx, first.n_rx, first.n_paths,
                               make_rng(first.channel_seed, 2, i))
                for i in range(first.n_nodes - 1)]
    for cfg in cfgs:
        bench.build_system(cfg, cfg.r_values[0], cfg.snr_values[0], cfg.seeds[0],
                           channels)


@dataclasses.dataclass
class PassResult:
    digest: str              # hash of the deterministic outputs
    failures: list           # one message per failed check
    checks: int              # checks made, failed or not
    accuracy: float = math.nan
    regret_slope: float = math.nan


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def run_pass(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> PassResult:
    """Run the workload once and check its outputs."""
    if workload == "regret":
        res = runtime.regret_experiment(regret_config(seed, tiny))
        failures = []
        if res.diverged or not np.all(np.isfinite(res.final)):
            failures.append("regret diverged")
        worst = float(np.max(res.slopes))
        if not worst < 0.0:
            failures.append(f"regret slope {worst:.3f} is not negative")
        return PassResult(digest=_digest(res.final.tobytes(), res.slopes.tobytes()),
                          failures=failures, checks=2, regret_slope=worst)
    rows = []
    for i, cfg in enumerate(training_configs(workload, seed, tiny)):
        rows.extend(bench.run_experiment(cfg, out_dir / str(i)))
    failures = []
    floor = ACCURACY_OVER_CHANCE / cfg.data.n_classes
    for row in rows:
        tag = f"run r={row['r']} seed={row['seed']}"
        if row["status"] != "ok":
            failures.append(f"{tag}: status {row['status']}")
        elif not (_finite(row["train_loss"]) and _finite(row["eval_loss"])):
            failures.append(f"{tag}: non-finite loss")
        elif not row["eval_accuracy"] >= floor:
            failures.append(f"{tag}: accuracy {row['eval_accuracy']} below {floor}")
    accs = [row["eval_accuracy"] for row in rows if row["status"] == "ok"]
    return PassResult(digest=_digest(rows), failures=failures, checks=len(rows),
                      accuracy=float(np.mean(accs)) if accs else math.nan)


def equivalence_failures(workload: str, seed: int, tiny: bool = False) -> list:
    """Noiseless forward equals W_eff x + b for all four designs at this size."""
    if workload not in TRAINING:
        return []
    cfg = training_configs(workload, seed, tiny)[0]
    n, r = cfg.n_tx, cfg.r_values[0]
    rng = make_rng(seed, 90)
    channel = sample_channel(n, n, cfg.n_paths, rng)
    x = crandn(rng, (n, 32))
    out = []
    for design in ALL_DESIGNS:
        layer = OacLayer(design, n, n, n, n, r, rng)
        y, _ = layer.forward(x, channel, NOISELESS)
        ref = equivalent_weight(layer, channel) @ x + layer.params["b"][:, None]
        err = float(np.linalg.norm(y - ref) / np.linalg.norm(ref))
        if not err <= EQUIVALENCE_TOL:
            out.append(f"equivalent_weight {design.side}/{design.form}: "
                       f"relative error {err:.2e}")
    return out

