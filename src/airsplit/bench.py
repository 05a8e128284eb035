"""Experiment harness: configs, datasets, system assembly, runs, and costs.

Everything a run produces is a pure function of its config: channels come
from a dedicated channel seed (shared by every run seed so they compare on
identical links), the dataset from its own seed, and each run seed drives
initialization, batch sampling, and noise.  Metric files are written with
repr-formatted floats, so re-running a config reproduces them byte for byte.
"""
from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import MAX_SNR_DB, NoiseModel, sample_channel, save_channel
from .linalg import crandn, make_rng
from .nn import Adam, ComplexBatchNorm, ComplexNet, CRelu, Dense, Sgd
from .oac import OacDesign, OacLayer, ideal_matrices
from .runtime import SplitLink, SplitSystem, _finite, _integer

__all__ = [
    "ConfigError",
    "DataConfig",
    "TrainConfig",
    "ExperimentConfig",
    "config_to_dict",
    "config_from_dict",
    "apply_overrides",
    "preset",
    "PRESET_NAMES",
    "Dataset",
    "generate_dataset",
    "build_system",
    "link_channels",
    "train_run",
    "run_experiment",
    "LayerSpec",
    "CostRow",
    "cost_report",
    "CostComparisonRow",
    "cost_comparison",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class DataConfig:
    n_features: int = 16
    n_classes: int = 10
    train_per_class: int = 400
    test_per_class: int = 100
    separation: float = 0.85
    seed: int = 7


@dataclass
class TrainConfig:
    batch_size: int = 64
    steps: int = 1500
    lr: float = 0.005
    optimizer: str = "adam"
    eval_every: int = 250
    log_every: int = 25


@dataclass
class ExperimentConfig:
    """One sweep: r values x SNR values x run seeds on fixed channels."""

    name: str = "custom"
    n_nodes: int = 3
    n_tx: int = 16
    n_rx: int = 16
    n_paths: int = 4
    side: str = "receiver"
    form: str = "auto"
    r_values: tuple = (4,)
    snr_values: tuple = (10.0,)
    seeds: tuple = (0, 1, 2)
    channel_seed: int = 1000
    rho: float = 0.0
    baseline: str = "proposed"       # proposed | ideal | centralized
    comm_weight: float = 0.0         # 0 disables the subspace penalty
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


# The integer fields of a config, by path, and the least value of each.
_INTEGER_FIELDS = (
    ("n_nodes", 2), ("n_tx", 1), ("n_rx", 1), ("n_paths", 1), ("channel_seed", 0),
    ("data.n_features", 1), ("data.n_classes", 2), ("data.train_per_class", 1),
    ("data.test_per_class", 1), ("data.seed", 0), ("train.batch_size", 1),
    ("train.steps", 1), ("train.eval_every", 1), ("train.log_every", 1))


# The fields that list the values a sweep runs.
_LIST_FIELDS = ("r_values", "snr_values", "seeds")


def _require_lists(cfg: ExperimentConfig) -> None:
    for name in _LIST_FIELDS:
        value = getattr(cfg, name)
        _require(isinstance(value, (tuple, list)), name, f"{value!r} must be a list")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    _require(isinstance(cfg.name, str) and cfg.name != "", "name",
             f"{cfg.name!r} must be a non-empty string")
    _require_lists(cfg)
    for path, least in _INTEGER_FIELDS:
        section, _, name = path.rpartition(".")
        value = getattr(getattr(cfg, section) if section else cfg, name)
        _require(_integer(value) and value >= least, path,
                 f"{value!r} must be an integer >= {least}")
    _require(cfg.side in ("transmitter", "receiver"), "side",
             "must be 'transmitter' or 'receiver'")
    _require(cfg.form in ("auto", "combined", "separated"), "form",
             "must be 'auto', 'combined' or 'separated'")
    for name, least in (("r_values", 1), ("seeds", 0)):
        values = getattr(cfg, name)
        _require(len(values) > 0, name, "must not be empty")
        _require(all(_integer(v) and v >= least for v in values),
                 name, f"entries {values} must be integers >= {least}")
    streams = min(cfg.n_tx, cfg.n_rx)
    _require(max(cfg.r_values) <= streams, "r_values", f"entry {max(cfg.r_values)} "
             f"exceeds min(n_tx, n_rx) = {streams}, the most streams a use carries")
    _require(len(cfg.snr_values) > 0, "snr_values", "must not be empty")
    _require(all(v == math.inf or (_finite(v) and abs(v) <= MAX_SNR_DB)
                 for v in cfg.snr_values),
             "snr_values", f"entries {cfg.snr_values} must be dB in [{-MAX_SNR_DB:g}, "
             f"{MAX_SNR_DB:g}] or inf (noiseless), not nan or -inf")
    for name in _LIST_FIELDS:
        values = getattr(cfg, name)
        _require(len(set(values)) == len(values), name,
                 f"entries {values} repeat; a repeated run overwrites its curve file")
    _require(_finite(cfg.rho) and 0.0 <= cfg.rho <= 1.0, "rho", "must lie in [0, 1]")
    _require(cfg.baseline in ("proposed", "ideal", "centralized"), "baseline",
             "must be 'proposed', 'ideal' or 'centralized'")
    _require(_finite(cfg.comm_weight) and cfg.comm_weight >= 0.0, "comm_weight",
             "must be >= 0 and finite")
    for path, value in (("data.separation", cfg.data.separation), ("train.lr", cfg.train.lr)):
        _require(_finite(value) and value > 0, path, "must be > 0 and finite")
    _require(cfg.train.optimizer in ("adam", "sgd"), "train.optimizer", "must be 'adam' or 'sgd'")
    return cfg


def _snr_to_json(v):
    # A bool or a non-number is written as it is, so it reads back invalid
    # instead of as a dB value.
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return v
    return str(v) if math.isinf(v) else float(v)


def _snr_from_json(v, path: str) -> float:
    try:
        if not isinstance(v, bool):     # float() takes "inf" and numeric strings
            return float(v)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{path}: expected a number or 'inf', got {v!r}")


def _plain(v):
    # A numpy scalar is written as the Python value it holds (np.True_ as
    # true), so json can write it and an invalid one reads back invalid.
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v.item() if isinstance(v, np.generic) else v


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = dataclasses.asdict(cfg, dict_factory=lambda items: {k: _plain(v) for k, v in items})
    # A scalar is written as it is, so it reads back invalid.
    if isinstance(out["snr_values"], list):
        out["snr_values"] = [_snr_to_json(s) for s in out["snr_values"]]
    return out


def _build_section(cls, record: dict, path: str):
    """cls(**record), with errors that name path, or at the top level
    (path "") the field alone."""
    if not isinstance(record, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in record:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")
    try:
        return cls(**record)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from None


def _json_ints(values) -> tuple:
    # JSON may spell an integer 2.0; 2.7 stays as it is and fails validation.
    return tuple(int(v) if isinstance(v, float) and v.is_integer() else v for v in values)


def config_from_dict(record: dict) -> ExperimentConfig:
    cfg = _build_section(ExperimentConfig, record, "")
    _require_lists(cfg)
    sections = {name: _build_section(cls, record[name], name)
                for name, cls in (("data", DataConfig), ("train", TrainConfig))
                if name in record}
    return validate_config(dataclasses.replace(
        cfg, **sections,
        snr_values=tuple(_snr_from_json(v, "snr_values") for v in cfg.snr_values),
        r_values=_json_ints(cfg.r_values), seeds=_json_ints(cfg.seeds)))


def apply_overrides(record: dict, overrides) -> dict:
    """Apply 'path.to.field=value' strings onto a config dict.

    Values parse as JSON when possible and fall back to the raw string, so
    both lr=0.01 and optimizer=sgd work without quoting games.
    """
    out = json.loads(json.dumps(record))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        node = out
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                raise ConfigError(f"override {key!r}: no such section {part!r}")
            node = node[part]
        node[parts[-1]] = value
    return out


def preset(name: str) -> ExperimentConfig:
    """A named ready-to-run configuration."""
    if name == "complex_2node":
        return ExperimentConfig(
            name=name, n_nodes=2, n_tx=16, n_rx=16, n_paths=20,
            r_values=(16,), snr_values=(35.0,), seeds=(0, 1, 2))
    if name == "sparse_3node":
        return ExperimentConfig(
            name=name, n_nodes=3, n_tx=16, n_rx=16, n_paths=4,
            r_values=(4,), snr_values=(10.0,), seeds=(0, 1, 2),
            comm_weight=1e-3)
    if name == "massive_3node":
        return ExperimentConfig(
            name=name, n_nodes=3, n_tx=64, n_rx=64, n_paths=8,
            r_values=(8,), snr_values=(10.0,), seeds=(0,),
            comm_weight=1e-3)
    if name == "moving_3node":
        return ExperimentConfig(
            name=name, n_nodes=3, n_tx=16, n_rx=16, n_paths=4,
            r_values=(4,), snr_values=(10.0,), seeds=(0, 1, 2),
            rho=1e-4)
    raise ConfigError(f"unknown preset {name!r}")


PRESET_NAMES = ("complex_2node", "sparse_3node", "massive_3node", "moving_3node")


# -- data ---------------------------------------------------------------------

@dataclass
class Dataset:
    train_x: np.ndarray          # (features, n_train) complex
    train_y: np.ndarray          # (n_train,) int
    test_x: np.ndarray
    test_y: np.ndarray


def generate_dataset(cfg: DataConfig) -> Dataset:
    """Complex Gaussian class clusters with unit within-class noise.

    Class centers are drawn once with per-entry variance separation^2, so
    separation directly controls how far apart the clusters sit relative to
    the noise.  The train/test split and the training order are fixed by the
    data seed alone: each class's first train_per_class samples train, in
    one permuted order over all classes, and the rest test, in class order.

    Each split is one gather from the (classes, features, samples) cube, so
    the peak holds the cube, the two splits and the permutation's index
    arrays.  train_x is F-contiguous, as the per-step column gather reads it.
    """
    rng = make_rng(cfg.seed, 0)
    f, c, tpc = cfg.n_features, cfg.n_classes, cfg.train_per_class
    centers = crandn(rng, (c, f), var=cfg.separation ** 2)
    samples = crandn(rng, (c, f, tpc + cfg.test_per_class), var=1.0)
    samples += centers[:, :, None]
    test_x = samples[:, :, tpc:].transpose(1, 0, 2).reshape(f, -1)
    cls, col = np.divmod(rng.permutation(c * tpc), tpc)
    return Dataset(train_x=samples[cls, :, col].T, train_y=cls, test_x=test_x,
                   test_y=np.repeat(np.arange(c), cfg.test_per_class))


# -- systems ------------------------------------------------------------------

def _node_stacks(cfg: ExperimentConfig, rng) -> list:
    """Layer stacks for every node, drawn in node order from one rng."""
    f = cfg.data.n_features
    h = cfg.n_tx
    classes = cfg.data.n_classes
    stacks = [[Dense(f, h, rng), ComplexBatchNorm(h), CRelu()]]
    for _ in range(cfg.n_nodes - 2):
        stacks.append([ComplexBatchNorm(h), CRelu(), Dense(h, h, rng),
                       ComplexBatchNorm(h), CRelu()])
    stacks.append([ComplexBatchNorm(h), CRelu(), Dense(h, classes, rng)])
    return stacks


def _resolve_form(cfg: ExperimentConfig, r: int) -> str:
    if cfg.form != "auto":
        return cfg.form
    return "combined" if r == min(cfg.n_tx, cfg.n_rx) else "separated"


def build_system(cfg: ExperimentConfig, r: int, snr_db: float, seed: int,
                 channels: list):
    """Assemble the system one run trains, plus its optimizer.

    Parameter draw order is fixed: node stacks first (in node order,
    interleaved dense layers as they appear), then each link's layer.  The
    centralized baseline replaces every link with a dense layer drawn at the
    same point, so its width matches exactly, and trains the whole stack as
    one node with no links.
    """
    n_links = cfg.n_nodes - 1
    if cfg.baseline != "centralized" and len(channels) != n_links:
        raise ValueError(f"need {n_links} channels, got {len(channels)}")
    init_rng = make_rng(seed, 1)
    opt = Adam(cfg.train.lr) if cfg.train.optimizer == "adam" else Sgd(cfg.train.lr)
    stacks = _node_stacks(cfg, init_rng)
    h = cfg.n_tx
    if cfg.baseline == "centralized":
        layers = []
        for i, stack in enumerate(stacks):
            layers.extend(stack)
            if i < n_links:
                layers.append(Dense(h, h, init_rng))
        return SplitSystem([ComplexNet(layers)], []), opt
    form = _resolve_form(cfg, r)
    if cfg.baseline == "ideal":
        form = "separated"
    design = OacDesign(cfg.side, form)
    noise = NoiseModel(snr_db=snr_db)
    links = []
    for i in range(n_links):
        # Adam is invariant to the gradient's scale; plain SGD steps by it, so
        # its links undo the backward transmit scale.
        layer = OacLayer(design, h, h, cfg.n_tx, cfg.n_rx, r, init_rng,
                         backward_rescale=cfg.train.optimizer == "sgd")
        comm_weight = cfg.comm_weight
        if cfg.baseline == "ideal":
            p_slim, c_slim = ideal_matrices(channels[i], r)
            layer.params["P"][...] = p_slim
            layer.params["C"][...] = c_slim
            layer.freeze("P", "C")
            comm_weight = 0.0
        links.append(SplitLink(
            layer, channels[i], noise,
            noise_rng_f=make_rng(seed, 3, i), noise_rng_b=make_rng(seed, 4, i),
            comm_weight=comm_weight, rho=cfg.rho, evolve_rng=make_rng(seed, 5, i)))
    nodes = [ComplexNet(stack) for stack in stacks]
    return SplitSystem(nodes, links), opt


# -- runs ---------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (str, bool)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _snr_tag(snr_db: float) -> str:
    if math.isinf(snr_db):
        return "inf"
    tag = str(int(snr_db)) if float(snr_db) == int(snr_db) else str(float(snr_db))
    return tag.replace("-", "m")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, record) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The columns of summary.csv: the keys of the row train_run returns, and "file".
_SUMMARY_FIELDS = ("r", "snr_db", "seed", "status", "steps", "train_loss",
                  "train_accuracy", "eval_loss", "eval_accuracy", "file")


def link_channels(cfg: ExperimentConfig) -> list:
    """The channel of each link, link i drawn from make_rng(cfg.channel_seed,
    2, i), so every run of a config trains on the same links; [] for the
    centralized baseline, which has none."""
    if cfg.baseline == "centralized":
        return []
    return [sample_channel(cfg.n_tx, cfg.n_rx, cfg.n_paths, make_rng(cfg.channel_seed, 2, i))
            for i in range(cfg.n_nodes - 1)]


def train_run(cfg: ExperimentConfig, ds: Dataset, channels: list, r: int,
              snr_db: float, seed: int) -> tuple[dict, list]:
    """Train one run and return (row, curve), batches drawn from make_rng(seed, 0).

    curve holds (phase, step, loss, accuracy, comm_loss) rows: train every
    log_every steps, eval every eval_every steps and final at the last step.
    An evaluation draws from the links' training noise streams, so
    eval_every moves a noisy run.  row holds _SUMMARY_FIELDS but "file", and
    "message", the str() of what the run raised ("" if nothing); steps is
    the step the run reached, 0 if build_system raised.
    """
    t = cfg.train
    curve = []
    step, message = 0, ""
    try:
        system, opt = build_system(cfg, r, snr_db, seed, channels)
        batch_rng = make_rng(seed, 0)
        status, ev_loss, ev_acc = "ok", "", ""
        for step in range(1, t.steps + 1):
            idx = batch_rng.integers(0, ds.train_y.size, size=t.batch_size)
            metrics = system.train_batch(ds.train_x[:, idx], ds.train_y[idx], opt)
            finite = math.isfinite(metrics.loss) and math.isfinite(metrics.comm_loss)
            if step % t.log_every == 0 or step == t.steps or not finite:
                curve.append(("train", step, metrics.loss, metrics.accuracy,
                             metrics.comm_loss))
            if finite and (step % t.eval_every == 0 or step == t.steps):
                ev_loss, ev_acc = system.evaluate(ds.test_x, ds.test_y)
                curve.append(("final" if step == t.steps else "eval", step, ev_loss,
                             ev_acc, ""))
                finite = math.isfinite(ev_loss)
            if not finite:
                status = f"diverged@{step}"
                break
        values = (status, step, metrics.loss, metrics.accuracy, ev_loss, ev_acc)
    except Exception as exc:   # keep sweeping; the row and failures.json say why
        values = (f"failed:{type(exc).__name__}", step, "", "", "", "")
        message = str(exc)
    return {**dict(zip(_SUMMARY_FIELDS[:-1], (r, snr_db, seed, *values), strict=True)),
            "message": message}, curve


def run_experiment(cfg: ExperimentConfig, out_dir) -> list:
    """Run the full sweep of a config and write all artifacts under out_dir.

    Files: config.json, channels/link*.json, runs/<combo>.csv per run,
    summary.csv (one row per run) and aggregate.csv (per r and SNR, the
    count of ok, diverged and failed runs and the mean and spread over the
    ok seeds).  A run that raises is recorded as failed:<Class> with the step
    it reached and its partial curve, and the sweep continues; failures.json,
    written only then, lists each failure's r, snr_db, seed, step, class and
    message.  A run whose train, comm or eval loss turns non-finite stops
    there and is recorded as diverged@<step> with its partial curve.  Only
    ok runs enter the aggregate's means and spreads.  Returns the summary rows.

    out_dir may hold an earlier run: its runs/*.csv, channels/link*.json and
    failures.json are removed before anything is written, and so is
    channels/ once empty, so every such file in out_dir afterwards is one
    this run wrote.
    """
    validate_config(cfg)
    out = Path(out_dir)
    runs_dir = out / "runs"
    for stale in [*runs_dir.glob("*.csv"), *(out / "channels").glob("link*.json"),
                  *out.glob("failures.json")]:
        stale.unlink()
    if (out / "channels").is_dir() and not any((out / "channels").iterdir()):
        (out / "channels").rmdir()
    runs_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", config_to_dict(cfg))
    ds = generate_dataset(cfg.data)
    channels = link_channels(cfg)
    for i, state in enumerate(channels):
        (out / "channels").mkdir(exist_ok=True)
        save_channel(state, out / "channels" / f"link{i}.json")
    summary = []
    for r, snr_db, seed in itertools.product(cfg.r_values, cfg.snr_values, cfg.seeds):
        row, curve = train_run(cfg, ds, channels, r, snr_db, seed)
        name = f"r{r}_snr{_snr_tag(snr_db)}_seed{seed}.csv"
        _write_csv(runs_dir / name, ("phase", "step", "loss", "accuracy", "comm_loss"), curve)
        summary.append({**row, "file": name})
    _write_csv(out / "summary.csv", _SUMMARY_FIELDS,
               [[row[k] for k in _SUMMARY_FIELDS] for row in summary])
    failures = [{"r": int(row["r"]), "snr_db": _snr_to_json(row["snr_db"]),
                 "seed": int(row["seed"]), "step": row["steps"],
                 "class": row["status"].partition(":")[2], "message": row["message"]}
                for row in summary if row["status"].startswith("failed:")]
    if failures:
        _write_json(out / "failures.json", failures)
    agg_rows = []
    for r in cfg.r_values:
        for snr_db in cfg.snr_values:
            cell = [row for row in summary if (row["r"], row["snr_db"]) == (r, snr_db)]
            ok = [(row["eval_accuracy"], row["eval_loss"]) for row in cell
                  if row["status"] == "ok"]
            n_diverged = sum(row["status"].startswith("diverged@") for row in cell)
            n_failed = sum(row["status"].startswith("failed:") for row in cell)
            stats = ("", "", "", "")
            if ok:
                accs, losses = zip(*ok)
                stats = (float(np.mean(accs)), float(np.std(accs)),
                         float(np.mean(losses)), float(np.std(losses)))
            agg_rows.append((r, _snr_to_json(snr_db), len(ok), n_diverged, n_failed,
                             *stats))
    _write_csv(out / "aggregate.csv",
               ("r", "snr_db", "n_ok", "n_diverged", "n_failed", "mean_accuracy",
                "std_accuracy", "mean_loss", "std_loss"), agg_rows)
    return summary


# -- cost accounting ----------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    """Sizes entering the cost formulas.

    Dense sizes are always required; the conv fields switch on the four
    convolutional rows.  batch scales the per-batch MAC and transmission
    counts.
    """

    n_i: int
    n_o: int
    n_t: int
    n_r: int
    r: int
    batch: int = 1
    n_ci: int | None = None
    n_co: int | None = None
    n_k: int | None = None
    n_hi: int | None = None
    n_wi: int | None = None
    n_ho: int | None = None
    n_wo: int | None = None

    def __post_init__(self):
        conv = ("n_ci", "n_co", "n_k", "n_hi", "n_wi", "n_ho", "n_wo")
        given = [getattr(self, name) is not None for name in conv]
        if any(given) and not all(given):
            raise ConfigError("conv sizes must be given all together or not at all")
        for name in ("n_i", "n_o", "n_t", "n_r", "r", "batch") + (conv if all(given) else ()):
            value = getattr(self, name)
            if not (_integer(value) and value >= 1):
                raise ConfigError(f"{name}: {value!r} must be an integer >= 1")

    @property
    def has_conv(self) -> bool:
        return self.n_ci is not None


@dataclass(frozen=True)
class CostRow:
    kind: str                    # "fc" | "conv"
    side: str
    form: str
    parameters: int
    macs: int
    transmissions: int


def cost_report(spec: LayerSpec) -> list:
    """Parameter, MAC and per-batch transmission counts of every design.

    Uses ceil-based channel-use counts, which reduce to the familiar closed
    forms whenever r divides the chunked dimension.  The convolutional
    parameter column counts kernel parameters per input channel, matching
    the dense column's structure.
    """
    s = spec
    b = s.batch
    rows = []
    kt = math.ceil(s.n_o / s.r)
    kr = math.ceil(s.n_i / s.r)
    rows.append(CostRow("fc", "transmitter", "combined",
                        kt * s.n_t * s.n_i + s.n_r * s.r,
                        b * kt * (s.n_t * s.n_i + s.r * s.n_r),
                        b * kt))
    rows.append(CostRow("fc", "transmitter", "separated",
                        kt * s.r * s.n_i + (s.n_t + s.n_r) * s.r,
                        b * kt * s.r * (s.n_i + s.n_t + s.n_r),
                        b * kt))
    rows.append(CostRow("fc", "receiver", "combined",
                        kr * s.n_o * s.n_r + s.n_t * s.r,
                        b * kr * (s.n_t * s.r + s.n_o * s.n_r),
                        b * kr))
    rows.append(CostRow("fc", "receiver", "separated",
                        kr * s.r * s.n_o + (s.n_t + s.n_r) * s.r,
                        b * kr * s.r * (s.n_o + s.n_t + s.n_r),
                        b * kr))
    if not s.has_conv:
        return rows
    nk2 = s.n_k * s.n_k
    out_pix = s.n_ho * s.n_wo
    in_pix = s.n_hi * s.n_wi
    kct = math.ceil(s.n_co / s.r)
    kcr = math.ceil(s.n_ci / s.r)
    rows.append(CostRow("conv", "transmitter", "combined",
                        kct * s.n_t * nk2 + s.n_r * s.r,
                        b * kct * out_pix * (s.n_ci * s.n_t * nk2 + s.r * s.n_r),
                        b * kct * out_pix))
    rows.append(CostRow("conv", "transmitter", "separated",
                        kct * s.r * nk2 + (s.n_t + s.n_r) * s.r,
                        b * kct * s.r * out_pix * (s.n_ci * nk2 + s.n_t + s.n_r),
                        b * kct * out_pix))
    rows.append(CostRow("conv", "receiver", "combined",
                        kct * s.n_r * nk2 + s.n_t * s.r,
                        b * kcr * (s.n_co * out_pix * nk2 * s.n_r
                                   + s.r * in_pix * s.n_t),
                        b * kcr * in_pix))
    rows.append(CostRow("conv", "receiver", "separated",
                        s.n_co * nk2 + (s.n_t + s.n_r) * s.r,
                        b * s.n_ci * s.n_co * out_pix * nk2
                        + b * kcr * s.r * in_pix * (s.n_t + s.n_r),
                        b * kcr * in_pix))
    return rows


@dataclass(frozen=True)
class CostComparisonRow:
    algorithm: str
    transmission_factor: float   # relative to a plain digital split
    transmission_bound: bool     # True when the factor is an upper bound
    estimation_factor: float     # channel estimation relative cost
    estimation_bound: bool


# Symbols a digital link spends on one complex value: the paper's figure,
# behind the 1/(16 r) factors of its cost comparison.
SYMBOLS_PER_VALUE = 16


def cost_comparison(r: int) -> list:
    """Relative transmission and channel-estimation costs of four schemes.

    The analog schemes move one complex value per stream per use, while a
    digital link spends SYMBOLS_PER_VALUE symbols on it, hence the 1/(16 r)
    factors.  The reciprocity-trained scheme never estimates the channel at
    all.
    """
    if r < 1:
        raise ConfigError("r: must be >= 1")
    q = float(SYMBOLS_PER_VALUE * r)
    return [
        CostComparisonRow("traditional", 1.0, False, 1.0, False),
        CostComparisonRow("mimo_split", 1.0 / r, False, 1.0 / r, False),
        CostComparisonRow("ideal", 1.0 / q, True, 1.0 / q, True),
        CostComparisonRow("proposed", 1.0 / q, True, 0.0, False),
    ]
