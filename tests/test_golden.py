"""A noiseless golden run for each of the four designs.

Without noise a run is a pure function of its config, so its summary row and
learning curve pin the numerics of the whole over-the-air pipeline (forward,
backward, optimizer).  The values were recorded before the pipeline was
unified and must not drift.
"""
import csv
import dataclasses

import numpy as np
import pytest

from airsplit.bench import DataConfig, ExperimentConfig, run_experiment
from airsplit.oac import ALL_DESIGNS

# design -> ((train_loss, train_accuracy, eval_loss, eval_accuracy),
#            [(phase, step, loss, accuracy), ...])
GOLDEN = {
    "transmitter_combined": (
        (0.9551823556987488, 0.5, 1.0075093759143194, 0.5375),
        [
            ('train', 5, 1.5045309450500006, 0.375),
            ('train', 10, 1.1344422988949794, 0.5),
            ('eval', 10, 1.1166912612258864, 0.4375),
            ('train', 15, 0.8901956506204007, 0.6875),
            ('train', 20, 0.9970400272299037, 0.5),
            ('eval', 20, 0.9808551723385612, 0.5),
            ('train', 25, 1.288101141056529, 0.4375),
            ('train', 30, 0.9551823556987488, 0.5),
            ('final', 30, 1.0075093759143194, 0.5375),
        ],
    ),
    "transmitter_separated": (
        (1.1381119684705703, 0.625, 1.1980809162347892, 0.4625),
        [
            ('train', 5, 1.4758963348254817, 0.375),
            ('train', 10, 1.577784167448624, 0.3125),
            ('eval', 10, 1.4512067954494257, 0.3),
            ('train', 15, 1.4146284892382042, 0.1875),
            ('train', 20, 1.4562039697676818, 0.375),
            ('eval', 20, 1.261525887237239, 0.4625),
            ('train', 25, 1.3897124662219547, 0.4375),
            ('train', 30, 1.1381119684705703, 0.625),
            ('final', 30, 1.1980809162347892, 0.4625),
        ],
    ),
    "receiver_combined": (
        (1.040404416262453, 0.625, 1.0528821819881418, 0.575),
        [
            ('train', 5, 1.477334988967432, 0.375),
            ('train', 10, 1.2266620783473845, 0.25),
            ('eval', 10, 1.3365701097863838, 0.4125),
            ('train', 15, 1.0631218597781444, 0.5625),
            ('train', 20, 1.2898869052765987, 0.375),
            ('eval', 20, 1.230543772425003, 0.525),
            ('train', 25, 1.3587856567344907, 0.5625),
            ('train', 30, 1.040404416262453, 0.625),
            ('final', 30, 1.0528821819881418, 0.575),
        ],
    ),
    "receiver_separated": (
        (1.2277140356749943, 0.25, 1.0605083699858053, 0.5),
        [
            ('train', 5, 1.3400285793874542, 0.3125),
            ('train', 10, 1.152249649610245, 0.4375),
            ('eval', 10, 1.3725140470224138, 0.35),
            ('train', 15, 1.1783818495385776, 0.5),
            ('train', 20, 1.3742880929229215, 0.375),
            ('eval', 20, 1.3439448738646635, 0.3875),
            ('train', 25, 1.265598736949839, 0.3125),
            ('train', 30, 1.2277140356749943, 0.25),
            ('final', 30, 1.0605083699858053, 0.5),
        ],
    ),
}


def _golden_config(design):
    cfg = ExperimentConfig(name="golden", n_nodes=3, n_tx=8, n_rx=8, n_paths=4,
                           side=design.side, form=design.form, r_values=(2,),
                           snr_values=(float("inf"),), seeds=(0,),
                           data=DataConfig(n_features=8, n_classes=4,
                                           train_per_class=50, test_per_class=20))
    cfg.train = dataclasses.replace(cfg.train, batch_size=16, steps=30,
                                    eval_every=10, log_every=5)
    return cfg


@pytest.mark.parametrize("design", ALL_DESIGNS, ids=str)
def test_noiseless_run_matches_the_recorded_values(design, tmp_path):
    summary, curve = GOLDEN[f"{design.side}_{design.form}"]
    (row,) = run_experiment(_golden_config(design), tmp_path)
    assert row["status"] == "ok"
    got = [row[k] for k in ("train_loss", "train_accuracy", "eval_loss",
                            "eval_accuracy")]
    np.testing.assert_allclose(got, summary, rtol=1e-9, atol=0)
    with open(tmp_path / "runs" / row["file"], newline="") as fh:
        logged = list(csv.DictReader(fh))
    assert [(r["phase"], int(r["step"])) for r in logged] == \
        [(phase, step) for phase, step, _, _ in curve]
    np.testing.assert_allclose(
        [(float(r["loss"]), float(r["accuracy"])) for r in logged],
        [(loss, acc) for _, _, loss, acc in curve], rtol=1e-9, atol=0)
