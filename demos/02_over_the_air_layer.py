"""A dense layer computed by the channel itself.

Builds the four precoder/combiner layouts, confirms each one is exactly a
linear layer in disguise, then installs a chosen weight matrix so the air
computes it.
"""
import numpy as np

from airsplit.channel import NOISELESS, NoiseModel, sample_channel
from airsplit.linalg import crandn, make_rng
from airsplit.oac import (ALL_DESIGNS, OacDesign, OacLayer, equivalent_weight,
                          layer_from_weight, snr_report)

rng = make_rng(1, 0)
channel = sample_channel(n_tx=4, n_rx=4, n_paths=6, rng=rng)
x = crandn(rng, (6, 3))

print("== four ways to park the same computation on the radio ==")
for design in ALL_DESIGNS:
    layer = OacLayer(design, n_in=6, n_out=5, n_tx=4, n_rx=4, r=2, rng=rng,
                     bias=False)
    y, transcript = layer.forward(x, channel, NOISELESS)
    w_eff = equivalent_weight(layer, channel)
    err = np.max(np.abs(y - w_eff @ x))
    print(f"{design.side:11s}/{design.form:9s}: {layer.k_total} channel uses, "
          f"y == W_eff @ x to {err:.1e}")
print("each use moves r streams; narrower r costs more uses, not correctness")

print()
print("== the transcript shows what actually went over the air ==")
layer = OacLayer(OacDesign("receiver", "separated"), 6, 5, 4, 4, 2, rng)
_, transcript = layer.forward(x, channel, NOISELESS)
for k, scale in enumerate(transcript.a):
    print(f"use {k}: transmit scale {scale:.3f}")
print("scales renormalize every transmission to unit average power")

print()
print("== installing a target weight ==")
w_target = crandn(rng, (5, 5))
layer = layer_from_weight(w_target, channel, OacDesign("transmitter", "combined"),
                          r=3, rng=rng)
err = np.max(np.abs(equivalent_weight(layer, channel) - w_target))
print(f"decomposed into {layer.k_total} uses, reinstalled error {err:.1e}")

print()
print("== what noise does to the received streams ==")
x5 = crandn(rng, (5, 16))
g_y = crandn(rng, (5, 16))
p_n = NoiseModel(snr_db=10.0).total_power(channel)
report = snr_report(layer, channel, x5, g_y, p_n)
for k, (f_snr, b_snr) in enumerate(zip(report.forward, report.backward)):
    active = f_snr[f_snr > -100.0]      # rows other uses own sit at the floor
    print(f"use {k}: forward streams {np.round(active, 1)} dB, "
          f"backward streams {np.round(b_snr, 1)} dB")
print("per-stream SNR varies with how well each stream aligns with the channel")
