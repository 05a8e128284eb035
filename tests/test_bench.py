import csv
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from airsplit import bench
from airsplit.bench import (
    ConfigError, CostComparisonRow, DataConfig,
    ExperimentConfig, LayerSpec, PRESET_NAMES, TrainConfig, apply_overrides,
    build_system, config_from_dict, config_to_dict,
    cost_comparison, cost_report, generate_dataset,
    preset, run_experiment, validate_config,
)
from airsplit.channel import NoiseModel, channel_snr, sample_channel
from airsplit.linalg import crandn, make_rng
from airsplit.oac import ChannelRankError, equivalent_weight, ideal_matrices
from airsplit.runtime import SplitSystem

from _oracles import conv_cost, fc_cost


def _tiny_config(**kw):
    base = dict(
        name="tiny", n_nodes=2, n_tx=4, n_rx=4, n_paths=6,
        r_values=(2,), snr_values=(float("inf"),), seeds=(0,),
        data=DataConfig(n_features=6, n_classes=3, train_per_class=20,
                        test_per_class=8, seed=3),
    )
    base.update(kw)
    cfg = ExperimentConfig(**base)
    cfg.train = dataclasses.replace(cfg.train, steps=12, batch_size=8,
                                    eval_every=5, log_every=4)
    return validate_config(cfg)


# -- configuration ------------------------------------------------------------

def test_validate_rejects_bad_fields():
    for mutation in (dict(n_nodes=1), dict(side="middle"), dict(r_values=()),
                     dict(rho=1.5), dict(baseline="oracle")):
        cfg = dataclasses.replace(ExperimentConfig(), **mutation)
        with pytest.raises(ConfigError):
            validate_config(cfg)
    cfg = ExperimentConfig(train=dataclasses.replace(
        ExperimentConfig().train, optimizer="lbfgs"))
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_rejects_more_streams_than_antennas():
    cfg = dataclasses.replace(ExperimentConfig(), r_values=(4, 32))  # 16 x 16
    with pytest.raises(ConfigError, match="r_values"):
        validate_config(cfg)
    validate_config(dataclasses.replace(cfg, r_values=(16,)))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, values", [
    ("snr_values", (NAN,)), ("snr_values", (-INF,)), ("snr_values", (10.0, 10)),
    ("r_values", (2.5,)), ("r_values", (2.7,)), ("r_values", (4, 4)),
    ("seeds", (0, 0)), ("seeds", (0.5,)), ("seeds", (-1,)),
    ("r_values", (True,)), ("seeds", (True,)), ("snr_values", (True,)),
    ("rho", True), ("comm_weight", True), ("data.separation", True), ("train.lr", True),
    ("data.separation", INF), ("train.lr", INF), ("name", 5), ("name", ""),
    ("r_values", (np.True_,)), ("seeds", (np.True_,)), ("snr_values", (np.True_,)),
    ("snr_values", (300.5,)), ("snr_values", (10.0, -300.5)), ("snr_values", (4000.0,)),
], ids=str)
def test_configs_the_math_cannot_honour_fail_by_name(field, values):
    cfg = _with_field(ExperimentConfig(), field, values)
    with pytest.raises(ConfigError, match=rf"^{field}: "):
        validate_config(cfg)
    # Read back from JSON, the entries are neither truncated nor rewritten.
    record = config_to_dict(cfg)
    with pytest.raises(ConfigError, match=rf"^{field}: "):
        config_from_dict(json.loads(json.dumps(record)))


@pytest.mark.parametrize("path", [
    "n_nodes", "n_tx", "n_rx", "n_paths", "channel_seed", "data.n_features",
    "data.n_classes", "data.train_per_class", "data.test_per_class", "data.seed",
    "train.batch_size", "train.steps", "train.eval_every", "train.log_every",
])
@pytest.mark.parametrize("value", [2.5, 4.0, "4", -1, True])
def test_integer_fields_take_integers_only(path, value):
    cfg = _with_field(preset("moving_3node"), path, value)
    with pytest.raises(ConfigError, match=rf"^{path}: {value!r} must be an integer >= "):
        validate_config(cfg)
    validate_config(_with_field(cfg, path, np.int64(4)))


@pytest.mark.parametrize("sizes", [dict(n_i=6.5), dict(batch="2"), dict(r=0), dict(r=True),
                                   dict(n_ci=2, n_co=2, n_k=3, n_hi=4, n_wi=4, n_ho=4, n_wo=1.5)],
                         ids=str)
def test_layer_spec_sizes_take_integers_only(sizes):
    fields = {**dict(n_i=6, n_o=6, n_t=4, n_r=4, r=3), **sizes}
    name = next(k for k, v in sizes.items() if not (type(v) is int and v >= 1))
    with pytest.raises(ConfigError, match=rf"^{name}: .* must be an integer >= 1"):
        LayerSpec(**fields)


def test_an_infinite_comm_weight_fails_by_name(tmp_path):
    # It used to pass validation, and the run ended diverged@1.
    cfg = dataclasses.replace(preset("sparse_3node"), comm_weight=INF)
    with pytest.raises(ConfigError, match=r"^comm_weight: must be >= 0 and finite"):
        validate_config(cfg)
    with pytest.raises(ConfigError, match=r"^comm_weight: "):
        run_experiment(cfg, tmp_path)


def test_config_to_dict_writes_non_integral_entries_as_they_are():
    cfg = dataclasses.replace(ExperimentConfig(), r_values=(2.5, np.int64(4)),
                              seeds=(0.5, 1))
    record = json.loads(json.dumps(config_to_dict(cfg)))
    assert record["r_values"] == [2.5, 4] and record["seeds"] == [0.5, 1]
    for field in ("r_values", "seeds"):
        with pytest.raises(ConfigError, match=field):
            config_from_dict({**record, "r_values": [4], "seeds": [0],
                              field: record[field]})


@pytest.mark.parametrize("field, value", [
    ("n_tx", np.int64(4)), ("channel_seed", np.int32(5)), ("rho", np.float32(0.0)),
    ("data.seed", np.uint8(3)),
], ids=str)
def test_run_experiment_writes_numpy_scalars_as_python_values(field, value, tmp_path):
    # validate_config takes numpy numbers, and writing config.json then
    # raised "Object of type int64 is not JSON serializable".
    cfg = _with_field(_tiny_config(), field, value)
    rows = run_experiment(cfg, tmp_path / "numpy")
    assert [row["status"] for row in rows] == ["ok"]
    record = json.loads((tmp_path / "numpy" / "config.json").read_text())
    section, _, name = field.rpartition(".")
    written = (record[section] if section else record)[name]
    assert written == value.item() and type(written) is type(value.item())
    assert config_from_dict(record) == cfg
    # every artifact has the bytes of the run with the Python value
    run_experiment(_with_field(cfg, field, value.item()), tmp_path / "plain")
    files = sorted(p.relative_to(tmp_path / "plain")
                   for p in (tmp_path / "plain").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert ((tmp_path / "numpy" / rel).read_bytes()
                == (tmp_path / "plain" / rel).read_bytes()), rel


@pytest.mark.parametrize("snr", [True, False, "x", None], ids=repr)
def test_config_to_dict_writes_an_snr_that_is_not_a_number_as_it_is(snr):
    # A boolean SNR used to be written 1.0 (or 0.0), which reads back as a
    # valid dB value; a string made config_to_dict raise a TypeError.
    cfg = dataclasses.replace(preset("complex_2node"), snr_values=(snr,))
    record = json.loads(json.dumps(config_to_dict(cfg)))
    assert record["snr_values"] == [snr]
    with pytest.raises(ConfigError, match=r"^snr_values: "):
        config_from_dict(record)


def test_config_dict_round_trip_including_inf():
    # -300 and 300 dB are the edges of the finite SNR a config may take.
    cfg = dataclasses.replace(preset("sparse_3node"),
                              snr_values=(float("inf"), 10.0, -300.0, 300.0))
    record = config_to_dict(cfg)
    assert record["snr_values"] == ["inf", 10.0, -300.0, 300.0]
    text = json.dumps(record)          # must be JSON-serializable as-is
    back = config_from_dict(json.loads(text))
    assert back == cfg


def test_config_from_dict_rejects_unknown_fields():
    record = config_to_dict(ExperimentConfig())
    record["n_antennas"] = 4
    with pytest.raises(ConfigError):
        config_from_dict(record)
    record = config_to_dict(ExperimentConfig())
    record["train"]["momentum"] = 0.9
    with pytest.raises(ConfigError):
        config_from_dict(record)


@pytest.mark.parametrize("change, message", [
    (lambda rec: rec.update(n_antennas=4), "n_antennas: unknown field"),
    (lambda rec: rec["data"].update(noise=1.0), "data.noise: unknown field"),
    (lambda rec: rec["train"].update(momentum=0.9), "train.momentum: unknown field"),
    (lambda rec: rec.update(data=[1, 2]), "data: expected an object"),
    (lambda rec: rec.update(train="fast"), "train: expected an object"),
], ids=["top", "data", "train", "data-list", "train-str"])
def test_config_from_dict_names_the_field_it_rejects(change, message):
    record = config_to_dict(ExperimentConfig())
    change(record)
    with pytest.raises(ConfigError) as err:
        config_from_dict(record)
    assert str(err.value) == message


def test_config_from_dict_rejects_a_non_object():
    with pytest.raises(ConfigError) as err:
        config_from_dict([("name", "x")])
    assert str(err.value) == "config: expected an object"


def test_apply_overrides():
    record = config_to_dict(ExperimentConfig())
    out = apply_overrides(record, ["train.lr=0.01", "name=swept",
                                   "r_values=[2, 4]"])
    assert out["train"]["lr"] == 0.01
    assert out["name"] == "swept"          # non-JSON falls back to the string
    assert out["r_values"] == [2, 4]
    assert record["train"]["lr"] != 0.01   # the input record is untouched
    with pytest.raises(ConfigError):
        apply_overrides(record, ["train.lr"])
    with pytest.raises(ConfigError):
        apply_overrides(record, ["nowhere.lr=1"])


def test_presets_are_valid():
    for name in PRESET_NAMES:
        cfg = preset(name)
        assert cfg.name == name
        validate_config(cfg)
    with pytest.raises(ConfigError):
        preset("imagined")


# -- data ---------------------------------------------------------------------

def test_dataset_sizes_and_determinism():
    ds = generate_dataset(DataConfig())
    assert ds.train_x.shape == (16, 4000) and ds.test_x.shape == (16, 1000)
    assert ds.train_y.shape == (4000,) and set(ds.test_y) == set(range(10))
    counts = np.bincount(ds.train_y)
    assert np.all(counts == 400)
    again = generate_dataset(DataConfig())
    np.testing.assert_array_equal(ds.train_x, again.train_x)
    np.testing.assert_array_equal(ds.train_y, again.train_y)
    other = generate_dataset(DataConfig(seed=8))
    assert not np.allclose(ds.train_x, other.train_x)


def test_dataset_bytes_and_layout_are_pinned():
    # sha256 of each array's bytes, recorded from the implementation that
    # concatenated per-class slices and then permuted the train columns.
    # The layout is pinned too: each step gathers train_x's columns and the
    # first Dense layer multiplies them, both reading it F-ordered.
    ds = generate_dataset(DataConfig(n_features=4, n_classes=3, train_per_class=6,
                                     test_per_class=2, seed=5))
    for name, digest in (
            ("train_x", "683a9d8e9efd5f9a988a44e8af2ea572a17cb0a647971ae3eba56a4142cd11d0"),
            ("train_y", "3ddec73dc065816fb89e5d9fd4fae7c8438cb98152f2208a9997ecd21d3b2f2d"),
            ("test_x", "447c2f0d69625cf09bc83de6aecb0dc62ca5ff88acf00f183133cdcad9557766"),
            ("test_y", "b8d04b8e4644977df092c27fedde0c770d5fb5f0ef931471306a21f8d18c3aea")):
        assert hashlib.sha256(getattr(ds, name).tobytes()).hexdigest() == digest, name
    assert ds.train_x.dtype == ds.test_x.dtype == np.complex128
    assert ds.train_y.dtype == ds.test_y.dtype == np.int64
    assert ds.train_x.flags.f_contiguous and ds.train_x.strides == (16, 64)
    assert ds.test_x.flags.c_contiguous and ds.test_x.strides == (96, 16)


def test_dataset_peak_memory_stays_near_its_outputs():
    # Each split is one gather from the (classes, features, samples) cube,
    # so the peak holds the cube, both splits (one cube between them) and
    # the permutation's two index arrays, ~2.06 cubes here.  Holding an
    # unpermuted train copy next to the permuted one measured ~2.89.
    cfg = DataConfig()
    cube_bytes = cfg.n_classes * cfg.n_features * \
        (cfg.train_per_class + cfg.test_per_class) * 16
    generate_dataset(DataConfig(n_features=2, n_classes=2, train_per_class=3,
                                test_per_class=1))
    tracemalloc.start()
    try:
        generate_dataset(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / cube_bytes < 2.25


# -- system assembly ----------------------------------------------------------

def test_build_system_split_and_centralized_widths_match():
    cfg = _tiny_config()
    channels = [sample_channel(4, 4, 6, make_rng(50, 2, 0))]
    split, _ = build_system(cfg, r=2, snr_db=float("inf"), seed=0,
                            channels=channels)
    assert isinstance(split, SplitSystem)
    central, _ = build_system(dataclasses.replace(cfg, baseline="centralized"),
                              r=2, snr_db=float("inf"), seed=0, channels=[])
    assert isinstance(central, SplitSystem) and central.links == []
    n_split = sum(v.size for v in split.parameters().values())
    n_central = sum(v.size for v in central.parameters().values())
    # same node stacks; the link trades P/C/W0 against one dense w
    assert n_central == sum(v.size for k, v in split.parameters().items()
                            if not k.startswith("link")) + 4 * 4 + 4


def test_build_system_requires_matching_channel_count():
    cfg = _tiny_config(n_nodes=3)
    with pytest.raises(ValueError):
        build_system(cfg, r=2, snr_db=10.0, seed=0, channels=[])


def test_ideal_baseline_freezes_matched_filters():
    cfg = _tiny_config(baseline="ideal")
    channel = sample_channel(4, 4, 6, make_rng(51, 2, 0))
    system, opt = build_system(cfg, r=2, snr_db=float("inf"), seed=0,
                               channels=[channel])
    layer = system.links[0].layer
    p_want, c_want = ideal_matrices(channel, 2)
    np.testing.assert_array_equal(layer.params["P"], p_want)
    np.testing.assert_array_equal(layer.params["C"], c_want)
    before = {k: v.copy() for k, v in system.parameters().items()}
    ds = generate_dataset(cfg.data)
    system.train_batch(ds.train_x[:, :8], ds.train_y[:8], opt)
    after = system.parameters()
    np.testing.assert_array_equal(after["link0.P"], before["link0.P"])
    np.testing.assert_array_equal(after["link0.C"], before["link0.C"])
    assert not np.array_equal(after["link0.W0"], before["link0.W0"])


@pytest.mark.parametrize("baseline", ["proposed", "ideal"])
def test_sgd_links_undo_the_backward_scale_and_adam_links_do_not(baseline):
    # Adam is invariant to the gradient's scale, so its links skip the
    # rescale; plain SGD steps by it, so a noiseless SGD link must deliver
    # the exact adjoint W_eff^H g_y.
    channel = sample_channel(4, 4, 6, make_rng(54, 2, 0))
    adam = _tiny_config(baseline=baseline)
    sgd = dataclasses.replace(adam, train=dataclasses.replace(adam.train, optimizer="sgd"))
    system, _ = build_system(adam, 2, INF, 0, [channel])
    assert [link.layer.backward_rescale for link in system.links] == [False]
    system, _ = build_system(sgd, 2, INF, 0, [channel])
    link = system.links[0]
    assert link.layer.backward_rescale is True
    rng = make_rng(55)
    x, g_y = crandn(rng, (4, 5)), crandn(rng, (4, 5))
    _, transcript = link.layer.forward(x, link.channel, link.noise)
    res = link.layer.backward(transcript, g_y, link.channel, link.noise)
    want = equivalent_weight(link.layer, link.channel).conj().T @ g_y
    np.testing.assert_allclose(res.g_x, want, rtol=0, atol=1e-10)


def test_comm_penalty_enabled_by_weight():
    channel = [sample_channel(4, 4, 6, make_rng(52, 2, 0))]
    plain, _ = build_system(_tiny_config(), 2, 10.0, 0, channel)
    assert plain.links[0].comm_weight == 0.0
    pen, _ = build_system(_tiny_config(comm_weight=1e-3), 2, 10.0, 0, channel)
    assert pen.links[0].comm_weight == 1e-3


def test_link_snr_matches_request():
    channel = sample_channel(6, 5, 4, make_rng(53, 2, 0))
    power = NoiseModel(snr_db=12.0).total_power(channel)
    assert abs(channel_snr(channel, power) - 12.0) < 1e-9


# -- experiment driver --------------------------------------------------------

def test_run_experiment_writes_all_artifacts(tmp_path):
    cfg = _tiny_config(seeds=(0, 1))
    summary = run_experiment(cfg, tmp_path)
    assert len(summary) == 2 and all(row["status"] == "ok" for row in summary)
    assert (tmp_path / "config.json").exists()
    assert (tmp_path / "channels" / "link0.json").exists()
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "aggregate.csv").exists()
    for row in summary:
        assert (tmp_path / "runs" / row["file"]).exists()
        assert 0.0 <= row["eval_accuracy"] <= 1.0
    agg = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 2 and agg[1].split(",")[2] == "2"


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = _tiny_config()
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for rel in ("summary.csv", "aggregate.csv", "runs/r2_snrinf_seed0.csv",
                "channels/link0.json", "config.json"):
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), rel


def test_a_negative_snr_is_spelled_with_m_in_file_names(tmp_path):
    # A whole and a fractional negative SNR both write "m" for the sign.
    summary = run_experiment(_tiny_config(snr_values=(-5.0, -5.5)), tmp_path)
    names = ["r2_snrm5_seed0.csv", "r2_snrm5.5_seed0.csv"]
    assert [row["file"] for row in summary] == names
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(names)


@pytest.mark.parametrize("baseline", ["proposed", "centralized"])
def test_run_experiment_leaves_no_file_of_an_earlier_run(tmp_path, baseline):
    # A 3-node sweep over seeds (0, 1), then a 2-node seed-0 sweep into the
    # same directory: it must read as if the second had run alone.  The
    # centralized second sweep writes no channels/ at all.
    run_experiment(_tiny_config(n_nodes=3, seeds=(0, 1)), tmp_path / "reused")
    assert (tmp_path / "reused" / "channels" / "link1.json").exists()
    assert (tmp_path / "reused" / "runs" / "r2_snrinf_seed1.csv").exists()
    cfg = _tiny_config(baseline=baseline)
    run_experiment(cfg, tmp_path / "reused")
    run_experiment(cfg, tmp_path / "fresh")

    def tree(root):
        return {p.relative_to(root): p.read_bytes() if p.is_file() else None
                for p in root.rglob("*")}

    assert tree(tmp_path / "reused") == tree(tmp_path / "fresh")


def test_run_experiment_records_failures_and_continues(tmp_path, monkeypatch):
    # no valid config is known to break one combination and not the others,
    # so the failure is injected into the r = 1 run only
    def build_or_fail(cfg, r, *args):
        if r == 1:
            raise ChannelRankError("injected")
        return build_system(cfg, r, *args)

    monkeypatch.setattr(bench, "build_system", build_or_fail)
    cfg = _tiny_config(r_values=(1, 2), baseline="ideal")
    summary = run_experiment(cfg, tmp_path)
    by_r = {row["r"]: row["status"] for row in summary}
    assert by_r[1] == "failed:ChannelRankError"
    assert by_r[2] == "ok"
    # a run that fails before its first step keeps step 0, its file and a
    # curve of the header alone
    assert (summary[0]["steps"], summary[0]["file"]) == (0, "r1_snrinf_seed0.csv")
    assert (tmp_path / "runs" / "r1_snrinf_seed0.csv").read_text() == \
        "phase,step,loss,accuracy,comm_loss\n"
    assert json.loads((tmp_path / "failures.json").read_text()) == [
        {"r": 1, "snr_db": "inf", "seed": 0, "step": 0, "class": "ChannelRankError",
         "message": "injected"}]


def test_a_run_that_raises_mid_run_keeps_its_step_curve_and_message(tmp_path, monkeypatch):
    # Seed 1 raises in its 7th train_batch.  Its row keeps step 7 and its
    # file, its curve is the rows the unfailed run logged before step 7, and
    # failures.json holds the one failure; seed 0 is untouched.  A re-run
    # into the same directory that no longer fails leaves no failures.json.
    cfg = _tiny_config(seeds=(0, 1))
    clean = run_experiment(cfg, tmp_path / "clean")

    def build_failing(cfg, r, snr_db, seed, channels):
        system, opt = build_system(cfg, r, snr_db, seed, channels)
        if seed == 1:
            steps, train_batch = iter(range(1, cfg.train.steps + 1)), system.train_batch

            def train_or_fail(*args):
                if next(steps) == 7:
                    raise FloatingPointError("injected at step 7")
                return train_batch(*args)
            system.train_batch = train_or_fail
        return system, opt

    monkeypatch.setattr(bench, "build_system", build_failing)
    failed = run_experiment(cfg, tmp_path / "out")
    assert failed[0] == clean[0]
    assert failed[1] == {"r": 2, "snr_db": INF, "seed": 1,
                         "status": "failed:FloatingPointError", "steps": 7,
                         "train_loss": "", "train_accuracy": "", "eval_loss": "",
                         "eval_accuracy": "", "file": "r2_snrinf_seed1.csv",
                         "message": "injected at step 7"}
    runs, clean_runs = tmp_path / "out" / "runs", tmp_path / "clean" / "runs"
    assert (runs / "r2_snrinf_seed0.csv").read_bytes() == \
        (clean_runs / "r2_snrinf_seed0.csv").read_bytes()
    partial = (runs / "r2_snrinf_seed1.csv").read_bytes()
    assert (clean_runs / "r2_snrinf_seed1.csv").read_bytes().startswith(partial)
    assert [line.split(",")[:2] for line in partial.decode().splitlines()[1:]] == \
        [["train", "4"], ["eval", "5"]]
    assert (tmp_path / "out" / "failures.json").read_text() == (
        '[\n  {\n    "class": "FloatingPointError",\n    "message": "injected at step 7",\n'
        '    "r": 2,\n    "seed": 1,\n    "snr_db": "inf",\n    "step": 7\n  }\n]\n')
    summary_csv = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary_csv[2] == "2,inf,1,failed:FloatingPointError,7,,,,,r2_snrinf_seed1.csv"
    assert (tmp_path / "out" / "aggregate.csv").read_text().splitlines()[1].split(",")[:3] \
        == ["2", "inf", "1"]
    monkeypatch.undo()
    run_experiment(cfg, tmp_path / "out")
    assert not (tmp_path / "out" / "failures.json").exists()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        sorted(p.name for p in (tmp_path / "clean").iterdir())


def test_aggregate_recomputes_from_the_ok_rows_of_the_summary(tmp_path, monkeypatch):
    # Per (r, snr) cell, two ok seeds, one run marked diverged (its eval
    # values are finite, so letting it in would move every cell) and one
    # that fails.  Each aggregate cell is the count of its ok, diverged and
    # failed rows, and the mean and the population spread (ddof 0) of the ok
    # rows' eval accuracy and eval loss.
    train_run = bench.train_run

    def build_or_fail(cfg, r, snr_db, seed, channels):
        if seed == 3:
            raise RuntimeError("planted")
        return build_system(cfg, r, snr_db, seed, channels)

    def planted(cfg, ds, channels, r, snr_db, seed):
        row, curve = train_run(cfg, ds, channels, r, snr_db, seed)
        if seed == 2:
            row["status"] = f"diverged@{row['steps']}"
        return row, curve

    monkeypatch.setattr(bench, "build_system", build_or_fail)
    monkeypatch.setattr(bench, "train_run", planted)
    run_experiment(_tiny_config(seeds=(0, 1, 2, 3), snr_values=(INF, 10.0)), tmp_path)
    with open(tmp_path / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    with open(tmp_path / "aggregate.csv", newline="") as fh:
        aggregate = list(csv.DictReader(fh))
    assert [row["status"] for row in summary] == \
        ["ok", "ok", "diverged@12", "failed:RuntimeError"] * 2
    assert [(row["r"], row["snr_db"]) for row in aggregate] == [("2", "inf"), ("2", "10.0")]

    def mean(v):
        return sum(v) / len(v)

    def spread(v):
        return math.sqrt(sum((x - mean(v)) ** 2 for x in v) / len(v))

    for cell in aggregate:
        ok = [row for row in summary if (row["r"], row["snr_db"], row["status"])
              == (cell["r"], cell["snr_db"], "ok")]
        accs = [float(row["eval_accuracy"]) for row in ok]
        losses = [float(row["eval_loss"]) for row in ok]
        # the loss spread is nonzero and differs from the accuracy spread,
        # so a swapped column or a sample spread shows in the values
        assert spread(losses) > 0.0 and abs(spread(losses) - spread(accs)) > 1e-6
        cell_rows = [row for row in summary
                     if (row["r"], row["snr_db"]) == (cell["r"], cell["snr_db"])]
        for col, prefix in (("n_ok", "ok"), ("n_diverged", "diverged@"),
                            ("n_failed", "failed:")):
            want = sum(row["status"].startswith(prefix) for row in cell_rows)
            assert cell[col] == str(want), col
        assert (cell["n_ok"], cell["n_diverged"], cell["n_failed"]) == ("2", "1", "1")
        for col, want in (("mean_accuracy", mean(accs)), ("std_accuracy", spread(accs)),
                          ("mean_loss", mean(losses)), ("std_loss", spread(losses))):
            assert float(cell[col]) == pytest.approx(want, rel=1e-12, abs=1e-15), col


def test_a_run_evaluates_at_its_last_step_when_eval_every_does_not_divide_steps():
    cfg = _tiny_config()
    cfg.train = dataclasses.replace(cfg.train, steps=7, eval_every=3)
    row, curve = bench.train_run(cfg, generate_dataset(cfg.data), bench.link_channels(cfg),
                                 2, INF, 0)
    assert [(phase, step) for phase, step, *_ in curve] == [
        ("eval", 3), ("train", 4), ("eval", 6), ("train", 7), ("final", 7)]
    assert (row["status"], row["steps"]) == ("ok", 7)
    assert (row["eval_loss"], row["eval_accuracy"]) == curve[-1][2:4]


@pytest.mark.parametrize("lr, phase, step", [(1e4, "eval", 10), (1e30, "train", 3)])
def test_run_experiment_stops_and_marks_a_diverged_run(tmp_path, lr, phase, step):
    # SGD at lr=1e4 keeps the batch-normalized train loss finite but blows up
    # the running statistics, so the first eval is nan; at lr=1e30 the train
    # loss itself turns nan.  Neither run may be recorded ok or aggregated.
    cfg = dataclasses.replace(preset("moving_3node"), n_tx=4, n_rx=4,
                              r_values=(2,), seeds=(0,))
    cfg.train = dataclasses.replace(cfg.train, steps=30, optimizer="sgd", lr=lr,
                                    eval_every=10, log_every=5)
    with np.errstate(all="ignore"):
        summary = run_experiment(cfg, tmp_path)
    row = summary[0]
    assert row["status"] == f"diverged@{step}" and row["steps"] == step
    curve = (tmp_path / "runs" / row["file"]).read_text().splitlines()
    last = curve[-1].split(",")
    assert last[:3] == [phase, str(step), "nan"]
    assert all(line.split(",")[0] != "final" for line in curve)
    summary_csv = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary_csv[1].split(",")[3] == f"diverged@{step}"
    agg = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert agg[0] == ("r,snr_db,n_ok,n_diverged,n_failed,mean_accuracy,std_accuracy,"
                      "mean_loss,std_loss")
    assert agg[1] == "2,10.0,0,1,0,,,,"


def test_run_experiment_marks_comm_loss_divergence(tmp_path):
    # With the comm loss at weight w = 1e60, each SGD step at lr = 1e4
    # multiplies the combiners' weak-subspace part by about 2 * lr * w, and
    # the comm loss by its square, 4e128: from 1.7e60 at step 1 to 6e188 at
    # step 2, past the float range at step 3, where the run must stop with
    # its curve, not fail in the projector's SVD of the overflowed tracker.
    # Every step clears the float limit by tens of orders of magnitude, so
    # the step is fixed whatever the rounding; no eval falls in the run.
    cfg = dataclasses.replace(preset("sparse_3node"), n_tx=4, n_rx=4,
                              r_values=(2,), seeds=(0,), comm_weight=1e60)
    cfg.train = dataclasses.replace(cfg.train, steps=200, optimizer="sgd", lr=1e4,
                                    eval_every=1000, log_every=1)
    with np.errstate(all="ignore"):
        row = run_experiment(cfg, tmp_path)[0]
    assert row["status"] == "diverged@3" and row["steps"] == 3
    curve = (tmp_path / "runs" / row["file"]).read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in curve] == [
        ["train", "1"], ["train", "2"], ["train", "3"]]
    comm = [float(line.split(",")[-1]) for line in curve]
    assert 1e59 < comm[0] < 1e61 and 1e180 < comm[1] < 1e200
    assert np.isnan(comm[2])
    assert np.isfinite(float(curve[1].split(",")[2]))



def _fuzz_config(rng) -> ExperimentConfig:
    """A random small valid config: every design, baseline and optimizer."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    n_tx, n_rx = (int(v) for v in rng.integers(1, 7, size=2))
    return ExperimentConfig(
        name="fuzz", n_nodes=int(rng.integers(2, 4)), n_tx=n_tx, n_rx=n_rx,
        n_paths=int(rng.integers(1, 7)), side=pick(("transmitter", "receiver")),
        form=pick(("auto", "combined", "separated")),
        r_values=(int(rng.integers(1, min(n_tx, n_rx) + 1)),),
        snr_values=(pick((INF, 30.0, 10.0, 0.0, -10.0)),),
        seeds=(int(rng.integers(0, 1000)),), channel_seed=int(rng.integers(0, 1000)),
        rho=pick((0.0, 1e-3, 0.5, 1.0)),
        baseline=pick(("proposed", "ideal", "centralized")),
        comm_weight=pick((0.0, 1e-3, 1.0)),
        data=DataConfig(n_features=int(rng.integers(1, 5)),
                        n_classes=int(rng.integers(2, 4)),
                        train_per_class=int(rng.integers(1, 6)),
                        test_per_class=int(rng.integers(1, 4)),
                        seed=int(rng.integers(0, 1000))),
        train=TrainConfig(batch_size=int(rng.integers(1, 9)), steps=6,
                          lr=float(10.0 ** rng.uniform(-3, 1)),
                          optimizer=pick(("adam", "sgd")),
                          eval_every=int(rng.integers(1, 7)),
                          log_every=int(rng.integers(1, 7))))


# (field, value) pairs the math cannot honour, each on an otherwise valid
# config: the edge values of test_configs_the_math_cannot_honour_fail_by_name,
# then out-of-range sizes, rates and weights.
_FUZZ_INVALID = [
    ("snr_values", (NAN,)), ("snr_values", (-INF,)), ("snr_values", (10.0, 10)),
    ("r_values", (2.5,)), ("r_values", (2.7,)), ("r_values", (1, 1)),
    ("seeds", (0, 0)), ("seeds", (0.5,)), ("seeds", (-1,)),
    ("r_values", (7,)), ("n_tx", 0), ("rho", 1.5), ("rho", NAN),
    ("comm_weight", -1.0), ("data.n_classes", 1), ("train.lr", 0.0),
    ("train.lr", NAN), ("train.batch_size", 0), ("train.steps", 0), ("name", 5),
]


def _with_field(cfg: ExperimentConfig, path: str, value) -> ExperimentConfig:
    section, _, name = path.rpartition(".")
    if not section:
        return dataclasses.replace(cfg, **{name: value})
    inner = dataclasses.replace(getattr(cfg, section), **{name: value})
    return dataclasses.replace(cfg, **{section: inner})


def test_seeded_config_fuzz_fails_by_name_or_runs_ok_or_diverged(tmp_path):
    # A config either raises a ConfigError that names a field, or every run
    # ends ok or diverged@<step>, never failed:<Class>.
    rng = np.random.default_rng(20261018)
    statuses = set()
    for i in range(60):
        cfg = _fuzz_config(rng)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
        with np.errstate(all="ignore"):
            rows = run_experiment(cfg, tmp_path / f"ok{i}")
        for row in rows:
            assert row["status"] == "ok" or row["status"].startswith("diverged@"), (
                row["status"], cfg)
            statuses.add(row["status"].split("@")[0])
    assert statuses == {"ok", "diverged"}
    for i, (path, value) in enumerate(_FUZZ_INVALID):
        cfg = _with_field(_fuzz_config(rng), path, value)
        with pytest.raises(ConfigError, match=rf"^{path}: "):
            run_experiment(cfg, tmp_path / f"bad{i}")
        with pytest.raises(ConfigError, match=rf"^{path}: "):
            config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))


# -- cost accounting ----------------------------------------------------------

def test_cost_report_matches_closed_forms():
    rng = make_rng(54)
    for _ in range(20):
        r = int(rng.integers(1, 5))
        n_i, n_o = r * int(rng.integers(1, 6)), r * int(rng.integers(1, 6))
        n_t, n_r = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        b = int(rng.integers(1, 5))
        rows = cost_report(LayerSpec(n_i=n_i, n_o=n_o, n_t=n_t, n_r=n_r,
                                     r=r, batch=b))
        assert len(rows) == 4
        for row in rows:
            want = fc_cost(row.side, row.form, n_i, n_o, n_t, n_r, r, b)
            assert (row.parameters, row.macs, row.transmissions) == want, row


def test_conv_cost_report_matches_closed_forms():
    rng = make_rng(55)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        n_ci, n_co = r * int(rng.integers(1, 4)), r * int(rng.integers(1, 4))
        n_k = int(rng.integers(1, 4))
        n_hi, n_wi = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        n_t, n_r, b = (int(rng.integers(1, 7)), int(rng.integers(1, 7)),
                       int(rng.integers(1, 4)))
        rows = cost_report(LayerSpec(
            n_i=n_ci, n_o=n_co, n_t=n_t, n_r=n_r, r=r, batch=b,
            n_ci=n_ci, n_co=n_co, n_k=n_k, n_hi=n_hi, n_wi=n_wi,
            n_ho=n_hi, n_wo=n_wi))
        conv_rows = [row for row in rows if row.kind == "conv"]
        assert len(conv_rows) == 4
        for row in conv_rows:
            want = conv_cost(row.side, row.form, n_ci, n_co, n_k, n_hi, n_wi,
                             n_hi, n_wi, n_t, n_r, r, b)
            assert (row.parameters, row.macs, row.transmissions) == want, row


def test_layer_spec_validation():
    with pytest.raises(ConfigError):
        LayerSpec(n_i=0, n_o=4, n_t=4, n_r=4, r=2)
    with pytest.raises(ConfigError):
        LayerSpec(n_i=4, n_o=4, n_t=4, n_r=4, r=2, n_ci=2)  # partial conv
    spec = LayerSpec(n_i=4, n_o=4, n_t=4, n_r=4, r=2)
    assert not spec.has_conv and len(cost_report(spec)) == 4


def test_cost_comparison_factors():
    rows = cost_comparison(4)
    by_name = {row.algorithm: row for row in rows}
    assert isinstance(rows[0], CostComparisonRow)
    assert by_name["traditional"].transmission_factor == 1.0
    assert by_name["mimo_split"].transmission_factor == 0.25
    assert by_name["ideal"].transmission_factor == 1.0 / 64
    assert by_name["proposed"].estimation_factor == 0.0
    assert by_name["proposed"].transmission_bound
    with pytest.raises(ConfigError):
        cost_comparison(0)
