"""Write the byte-identity reference runs of this tree into one directory.

Usage::

    python tools/identity_runs.py [-h] OUT_DIR

Runs ``run_experiment`` for 16 short configs (40 steps, seed 0, eval every
20 steps, log every 10, BLAS on one thread) into ``OUT_DIR/<config>``:
moving_3node and sparse_3node (comm loss on) under all four side x form
designs, massive_3node, complex_2node proposed and centralized, moving_3node
with SGD, the ideal baseline with Adam and with SGD, sparse_3node
combined with r = 3 (padded chunks), and sparse_3node with 12 receive
antennas (a non-square array, so each transmit call allocates the received
stack instead of receiving into the sent one).  It also runs
``regret_experiment`` for a one-chunk stream (the default config at 500
steps) and a three-chunk one (1100 steps, dim 8, 3 seeds), and writes each
result's arrays and scalar fields as ``.npy`` files into
``OUT_DIR/regret_<steps>``.  Last, it trains a two-node conv split system
(conv node, noisy over-the-air conv link with the comm loss on, pooled
dense head) for 5 Adam steps and writes each parameter and the per-step
loss and comm loss as ``.npy`` files into ``OUT_DIR/conv_split``.  A change
that must not move a byte is checked by running this in the parent checkout
and in the changed one, then ``diff -r`` over the two directories.  Exits 1
unless every run ends ``ok``, no regret run diverges and every conv loss is
finite.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, so reductions add in one order; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402

from airsplit.bench import preset, run_experiment  # noqa: E402
from airsplit.channel import NoiseModel, sample_channel  # noqa: E402
from airsplit.linalg import crandn, make_rng  # noqa: E402
from airsplit.nn import Adam, AvgPool2d, ComplexNet, Conv2d, Dense, Flatten  # noqa: E402
from airsplit.oac import OacConvLayer, OacDesign  # noqa: E402
from airsplit.runtime import (RegretConfig, SplitLink, SplitSystem,  # noqa: E402
                              regret_experiment)


def _short(name: str, **fields):
    cfg = preset(name)
    train = dataclasses.replace(cfg.train, steps=40, eval_every=20, log_every=10,
                                **fields.pop("train", {}))
    return dataclasses.replace(cfg, seeds=(0,), train=train, **fields)


def identity_configs() -> dict:
    """The 16 configs by output directory name."""
    out = {}
    for name in ("moving_3node", "sparse_3node"):
        for side in ("transmitter", "receiver"):
            for form in ("combined", "separated"):
                out[f"{name}_{side}_{form}"] = _short(name, side=side, form=form)
    out["massive_3node"] = _short("massive_3node")
    out["complex_2node"] = _short("complex_2node")
    out["complex_2node_centralized"] = _short("complex_2node", baseline="centralized")
    out["moving_3node_sgd"] = _short("moving_3node", train={"optimizer": "sgd"})
    out["moving_3node_ideal"] = _short("moving_3node", baseline="ideal")
    out["moving_3node_ideal_sgd"] = _short("moving_3node", baseline="ideal",
                                           train={"optimizer": "sgd"})
    out["sparse_3node_combined_r3"] = _short("sparse_3node", form="combined", r_values=(3,))
    out["sparse_3node_nrx12"] = _short("sparse_3node", n_rx=12)
    return out


def regret_configs() -> dict:
    """The one-chunk and the three-chunk regret stream by output directory name."""
    return {"regret_500": RegretConfig(steps=500),
            "regret_1100": RegretConfig(steps=1100, dim=8, n_seeds=3)}


_REGRET_SCALARS = ("measured_ratio", "predicted_ratio", "c0", "c1", "diameter",
                   "grad_bound", "diverged")


def write_regret(cfg: RegretConfig, out: Path):
    """Run one regret config and save its outputs under out; returns the result."""
    res = regret_experiment(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("ts", "avg_regret", "slopes", "final"):
        np.save(out / f"{name}.npy", getattr(res, name))
    np.save(out / "scalars.npy",
            np.array([float(getattr(res, name)) for name in _REGRET_SCALARS]))
    return res


def conv_split_system() -> SplitSystem:
    """Conv node -> noisy over-the-air conv link -> pooled dense head, on (B, 2, 4, 4)."""
    rng = make_rng(0, 1)
    channel = sample_channel(4, 4, 4, make_rng(0, 2))
    layer = OacConvLayer(3, 4, 3, OacDesign("receiver", "separated"), 4, 4, 2, rng)
    link = SplitLink(layer, channel, NoiseModel(snr_db=10.0), make_rng(0, 3),
                     make_rng(0, 4), comm_weight=1e-2)
    nodes = [ComplexNet([Conv2d(2, 3, 3, rng)]),
             ComplexNet([AvgPool2d(), Flatten(), Dense(4, 3, rng)])]
    return SplitSystem(nodes, [link])


def write_conv(out: Path) -> np.ndarray:
    """Train the conv split system for 5 Adam steps, one fresh batch of 6
    per step, and save its parameters and (loss, comm loss) per step under
    out; returns the (5, 2) losses."""
    system, opt, rng = conv_split_system(), Adam(lr=0.01), make_rng(0, 5)
    losses = []
    for _ in range(5):
        x = crandn(rng, (6, 2, 4, 4))
        metrics = system.train_batch(x, rng.integers(0, 3, 6), opt)
        losses.append((metrics.loss, metrics.comm_loss))
    losses = np.array(losses)
    out.mkdir(parents=True, exist_ok=True)
    for name, arr in system.parameters().items():
        np.save(out / f"{name}.npy", arr)
    np.save(out / "losses.npy", losses)
    return losses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir", type=Path, metavar="OUT_DIR",
                        help="directory to write the reference runs into")
    out = parser.parse_args(argv).out_dir
    bad = []
    for name, cfg in identity_configs().items():
        for row in run_experiment(cfg, out / name):
            print(f"{name}: r={row['r']} seed={row['seed']} {row['status']}")
            if row["status"] != "ok":
                bad.append(name)
    for name, cfg in regret_configs().items():
        res = write_regret(cfg, out / name)
        print(f"{name}: slopes={res.slopes.tolist()} diverged={res.diverged}")
        if res.diverged:
            bad.append(name)
    losses = write_conv(out / "conv_split")
    print(f"conv_split: losses={losses.tolist()}")
    if not np.all(np.isfinite(losses)):
        bad.append("conv_split")
    if bad:
        print(f"not ok: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
