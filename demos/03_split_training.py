"""Training straight through the radio, no channel estimation anywhere.

A two-node classifier whose middle layer is computed over the air.  The
forward activations and the backward gradients both ride the channel; the
precoders and combiners learn alongside the network weights.  Compare the
final accuracy against the same stack with an ordinary dense middle layer.

Runs in under a minute at these sizes.
"""
import dataclasses
import time

from airsplit.bench import generate_dataset, link_channels, preset, train_run

cfg = preset("complex_2node")
cfg = dataclasses.replace(
    cfg,
    data=dataclasses.replace(cfg.data, train_per_class=100, test_per_class=30),
    train=dataclasses.replace(cfg.train, steps=600, eval_every=200))
ds = generate_dataset(cfg.data)
print(f"dataset: {ds.train_y.size} train / {ds.test_y.size} test, "
      f"{ds.train_x.shape[0]} complex features, "
      f"{int(ds.train_y.max()) + 1} classes")


def train(cfg, label, r, snr_db, seed=0):
    t0 = time.time()
    row, curve = train_run(cfg, ds, link_channels(cfg), r, snr_db, seed)
    if row["status"] != "ok":
        raise SystemExit(f"{label}: {row['status']} {row['message']}")
    for phase, step, _, acc, _ in curve:
        if phase == "eval":
            print(f"  {label}: step {step:4d}, test accuracy {acc:.3f}")
    print(f"  {label}: final {row['eval_accuracy']:.3f}  [{time.time() - t0:.1f}s]")
    return row["eval_accuracy"]


print()
print("== centralized reference (plain dense everywhere) ==")
central = train(dataclasses.replace(cfg, baseline="centralized"),
                "dense ", 16, float("inf"))

print()
print("== over the air at 35 dB, full stream budget ==")
clean = train(cfg, "35 dB ", 16, 35.0)

print()
print("== over the air at 10 dB: full budget vs a lean one ==")
full = train(cfg, "r=16  ", 16, 10.0)
lean = train(cfg, "r=4   ", 4, 10.0)

print()
print(f"clean link gap to centralized: {100 * (central - clean):+.1f} points")
print(f"at 10 dB, r=4 vs r=16:         {100 * (lean - full):+.1f} points")
print("fewer streams per use means fewer noise entries folded into each")
print("output, which is worth more than the extra expressiveness at low SNR")
