"""End-to-end behavior checks, one per guaranteed property.

Every test prints a single [PASS]/[FAIL] line so a plain pytest run doubles
as a readable scorecard.  The heavier statistical checks pin their seeds, so
a pass here is reproducible, not probabilistic.
"""
import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from airsplit.bench import (DataConfig, LayerSpec, cost_report, generate_dataset,
                            link_channels, preset, run_experiment, train_run)
from airsplit.channel import NOISELESS, NoiseModel, sample_channel
from airsplit.cli import main as cli_main
from airsplit.linalg import crandn, make_rng
from airsplit.nn import Conv2d
from airsplit.oac import (ALL_DESIGNS, FeasibilityError, OacConvLayer,
                          OacDesign, OacLayer, decompose_weight,
                          equivalent_weight)
from airsplit.runtime import RegretConfig, regret_experiment

import _oracles as oracles


@contextmanager
def _scored(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {num:02d} {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] {num:02d} {label}")


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _final_accuracy(cfg, ds, channels, r, snr_db, seed):
    """Train one run to completion and return its test accuracy.  It is
    evaluated at the last step only: a mid-run evaluation draws from the
    links' training forward-noise streams, so it would move the run."""
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(
        cfg.train, eval_every=cfg.train.steps))
    row, _ = train_run(cfg, ds, channels, r, snr_db, seed)
    assert row["status"] == "ok", (row["status"], row["message"])
    return row["eval_accuracy"]


SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def complex_2node_setup():
    cfg = preset("complex_2node")
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train,
                                                             steps=2000))
    return cfg, generate_dataset(cfg.data), link_channels(cfg)


def test_01_noiseless_layer_matches_its_composed_dense_map(capsys):
    with _scored(capsys, 1, "noiseless over-the-air layer matches its "
                 "composed dense map"):
        start = time.monotonic()
        for n in (4, 8, 16):
            rng = make_rng(200, n)
            channel = sample_channel(n, n, n + 4, rng)
            x = crandn(rng, (n, 5))
            g_y = crandn(rng, (n, 5))
            for design in ALL_DESIGNS:
                layer = OacLayer(design, n, n, n, n, max(1, n // 2), rng)
                w = oracles.composed_weight(design.side, design.form,
                                            layer.params, channel.matrix,
                                            n, n, layer.r, layer.k_total)
                y, transcript = layer.forward(x, channel, NOISELESS)
                assert _rel(y, w @ x + layer.params["b"][:, None]) <= 1e-8
                res = layer.backward(transcript, g_y, channel, NOISELESS)
                assert _rel(res.g_x, w.conj().T @ g_y) <= 1e-8
                assert _rel(res.grads["b"], g_y.sum(axis=1)) <= 1e-8
        assert time.monotonic() - start < 10.0


def test_02_decomposition_succeeds_exactly_when_streams_cover_the_weight(capsys):
    with _scored(capsys, 2, "weight decomposition succeeds exactly when "
                 "k*r covers the smaller dimension"):
        start = time.monotonic()
        rng = make_rng(201)
        channel = sample_channel(8, 8, 12, rng)
        h = channel.matrix
        for n in (2, 4, 6):
            for k in range(1, 5):
                for r in range(1, 5):
                    w = crandn(rng, (n, n))
                    if k * r >= n:
                        p_list, c_list = decompose_weight(w, channel, k=k, r=r)
                        assert len(p_list) == k and len(c_list) == k
                        recon = sum(c.conj().T @ h @ p
                                    for p, c in zip(p_list, c_list))
                        assert _rel(recon, w) <= 1e-8, (n, k, r)
                    else:
                        with pytest.raises(FeasibilityError):
                            decompose_weight(w, channel, k=k, r=r)
        assert time.monotonic() - start < 30.0


def test_03_backward_streams_ride_the_transposed_channel(capsys):
    with _scored(capsys, 3, "noiseless backward streams equal the reverse-"
                 "channel image of the combined gradient"):
        rng = make_rng(202)
        for i in range(100):
            design = ALL_DESIGNS[i % len(ALL_DESIGNS)]
            n_tx, n_rx = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            n_in, n_out = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            r = int(rng.integers(1, 4))
            paths = int(rng.integers(2, 7))
            channel = sample_channel(n_tx, n_rx, paths, rng)
            layer = OacLayer(design, n_in, n_out, n_tx, n_rx, r, rng)
            x = crandn(rng, (n_in, int(rng.integers(1, 5))))
            _, transcript = layer.forward(x, channel, NOISELESS)
            g_y = crandn(rng, (n_out, x.shape[1]))
            res = layer.backward(transcript, g_y, channel, NOISELESS)
            for k in range(layer.k_total):
                c_k = oracles.full_combiner(design.side, design.form,
                                            layer.params, n_out, r,
                                            layer.k_total, k)
                want = channel.matrix.conj().T @ c_k @ g_y
                err = float(np.max(np.abs(res.stream_grads[k] - want)))
                assert err <= 1e-10, (i, k, err)


def test_04_noisy_activation_gradients_are_unbiased(capsys):
    with _scored(capsys, 4, "mean noisy activation gradient at 10 dB matches "
                 "the noiseless one within 5 standard errors"):
        rng = make_rng(203)
        channel = sample_channel(4, 4, 6, rng)
        layer = OacLayer(OacDesign("receiver", "separated"), 6, 5, 4, 4, 2, rng)
        x = crandn(rng, (6, 2))
        _, transcript = layer.forward(x, channel, NOISELESS)
        g_y = crandn(rng, (5, 2))
        clean = layer.backward(transcript, g_y, channel, NOISELESS).g_x
        noise = NoiseModel(snr_db=10.0)
        noise_rng = make_rng(204)
        draws = np.empty((10_000,) + clean.shape, dtype=np.complex128)
        for i in range(draws.shape[0]):
            draws[i] = layer.backward(transcript, g_y, channel, noise,
                                      rng=noise_rng).g_x
        n = draws.shape[0]
        for part in (np.real, np.imag):
            mean = part(draws).mean(axis=0)
            stderr = part(draws).std(axis=0) / np.sqrt(n)
            assert np.all(np.abs(mean - part(clean)) <= 5.0 * stderr)


def test_05_average_regret_decays_with_noise_matched_coefficients(capsys):
    with _scored(capsys, 5, "average regret decays like a power law and the "
                 "noise-to-noise coefficient ratio matches its prediction"):
        start = time.monotonic()
        result = regret_experiment(RegretConfig())
        assert not result.diverged
        for slope in result.slopes:
            assert -0.65 <= slope <= -0.35, result.slopes
        # the offset fit fixes the prediction before the measured check
        assert 2.0 <= result.predicted_ratio <= 8.0, result.predicted_ratio
        assert 2.0 <= result.measured_ratio <= 8.0, result.measured_ratio
        assert abs(np.log(result.measured_ratio / result.predicted_ratio)) < 0.3
        assert time.monotonic() - start < 300.0


def test_06_kernel_mixing_equals_feature_map_mixing(capsys):
    with _scored(capsys, 6, "mixing kernels before convolution equals mixing "
                 "feature maps after"):
        rng = make_rng(205)
        conv = Conv2d(4, 4, 3, rng, bias=False, padding="same")
        x = crandn(rng, (2, 4, 8, 8))
        w = crandn(rng, (4, 4))
        after, _ = conv.forward(x)
        mixed_after = oracles.mix_channels(w, after)
        premixed = Conv2d(4, 4, 3, rng, bias=False, padding="same")
        premixed.kernels = oracles.mix_kernels(w, conv.kernels)
        mixed_kernels, _ = premixed.forward(x)
        assert float(np.max(np.abs(mixed_after - mixed_kernels))) <= 1e-10

        # the same identity through an actual channel mixing layer
        channel = sample_channel(4, 4, 6, rng)
        layer = OacConvLayer(4, 4, 3, OacDesign("receiver", "separated"),
                             4, 4, 2, rng, bias=False, padding="same")
        layer.conv.kernels = conv.kernels.copy()
        y, _ = layer.forward(x, channel, NOISELESS)
        w_eff = equivalent_weight(layer.mix, channel)
        local = Conv2d(4, 4, 3, rng, bias=False, padding="same")
        local.kernels = oracles.mix_kernels(w_eff, conv.kernels)
        want, _ = local.forward(x)
        assert float(np.max(np.abs(y - want))) <= 1e-10


def test_07_split_training_tracks_the_centralized_reference(capsys,
                                                            complex_2node_setup):
    with _scored(capsys, 7, "training over the air at 35 dB lands within 3 "
                 "points of the centralized reference"):
        start = time.monotonic()
        cfg, ds, channels = complex_2node_setup
        assert ds.train_y.size == 4000 and ds.test_y.size == 1000
        central_cfg = dataclasses.replace(cfg, baseline="centralized")
        central = [_final_accuracy(central_cfg, ds, [], 16, float("inf"), s)
                   for s in SEEDS]
        split = [_final_accuracy(cfg, ds, channels, 16, 35.0, s) for s in SEEDS]
        assert float(np.mean(central)) >= 0.95, central
        assert float(np.mean(split)) >= float(np.mean(central)) - 0.03, \
            (np.mean(central), np.mean(split))
        assert time.monotonic() - start < 600.0


def test_08_lean_stream_budget_wins_at_low_snr(capsys, complex_2node_setup):
    with _scored(capsys, 8, "at 10 dB a lean stream budget does at least as "
                 "well as a full one"):
        cfg, ds, channels = complex_2node_setup
        lean = [_final_accuracy(cfg, ds, channels, 4, 10.0, s) for s in SEEDS]
        full = [_final_accuracy(cfg, ds, channels, 16, 10.0, s) for s in SEEDS]
        assert float(np.mean(lean)) >= float(np.mean(full)), (lean, full)


def test_09_cost_accounting_reproduces_the_closed_forms(capsys):
    with _scored(capsys, 9, "cost accounting reproduces the closed-form "
                 "counts and the worked example"):
        rng = make_rng(206)
        for _ in range(50):
            r = int(rng.integers(1, 5))
            n_i, n_o = (r * int(rng.integers(1, 7)), r * int(rng.integers(1, 7)))
            n_ci, n_co = (r * int(rng.integers(1, 5)), r * int(rng.integers(1, 5)))
            n_t, n_r = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            n_k = int(rng.integers(1, 4))
            n_hi, n_wi = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            n_ho, n_wo = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            b = int(rng.integers(1, 5))
            rows = cost_report(LayerSpec(
                n_i=n_i, n_o=n_o, n_t=n_t, n_r=n_r, r=r, batch=b,
                n_ci=n_ci, n_co=n_co, n_k=n_k, n_hi=n_hi, n_wi=n_wi,
                n_ho=n_ho, n_wo=n_wo))
            assert len(rows) == 8
            for row in rows:
                if row.kind == "fc":
                    want = oracles.fc_cost(row.side, row.form, n_i, n_o,
                                           n_t, n_r, r, b)
                else:
                    want = oracles.conv_cost(row.side, row.form, n_ci, n_co,
                                             n_k, n_hi, n_wi, n_ho, n_wo,
                                             n_t, n_r, r, b)
                assert (row.parameters, row.macs, row.transmissions) == want, row
        example = cost_report(LayerSpec(n_i=6, n_o=6, n_t=4, n_r=4, r=3,
                                        batch=3))
        row = next(r for r in example
                   if r.side == "transmitter" and r.form == "separated")
        assert (row.parameters, row.macs, row.transmissions) == (60, 252, 6)


def test_10_slow_channel_drift_is_harmless_and_fast_drift_is_not(capsys):
    with _scored(capsys, 10, "slow channel drift costs at most 10 points and "
                 "fast drift costs more than slow"):
        mcfg = preset("moving_3node")
        ds = generate_dataset(mcfg.data)
        channels = link_channels(mcfg)

        def mean_acc(rho):
            cfg = dataclasses.replace(mcfg, rho=rho)
            return float(np.mean([_final_accuracy(cfg, ds, channels, 4, 10.0, s)
                                  for s in SEEDS]))

        static = mean_acc(0.0)
        slow = mean_acc(1e-4)
        fast = mean_acc(1e-1)
        assert static - slow <= 0.10, (static, slow)
        assert fast < slow, (fast, slow)


def test_11_identical_configs_reproduce_metric_files_byte_for_byte(capsys,
                                                                   tmp_path):
    with _scored(capsys, 11, "re-running with identical config and seeds "
                 "reproduces every metric file byte for byte"):
        cfg = preset("sparse_3node")
        cfg = dataclasses.replace(
            cfg, n_tx=8, n_rx=8, r_values=(2,), seeds=(0, 1),
            data=DataConfig(n_features=8, n_classes=4, train_per_class=30,
                            test_per_class=10, seed=3),
            train=dataclasses.replace(cfg.train, steps=60, batch_size=16,
                                      eval_every=25, log_every=20))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b and len(files_a) >= 6
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel

        reg = ["regret", "--override", "steps=400", "--override", "dim=8",
               "--override", "obs=2", "--override", "n_seeds=2",
               "--override", "fit_floor=20"]
        assert cli_main(reg + ["--out-dir", str(tmp_path / "ra")]) == 0
        assert cli_main(reg + ["--out-dir", str(tmp_path / "rb")]) == 0
        for name in ("regret_curves.csv", "regret_summary.json"):
            assert (tmp_path / "ra" / name).read_bytes() == \
                (tmp_path / "rb" / name).read_bytes(), name
