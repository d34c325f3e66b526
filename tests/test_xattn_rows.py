"""scripts_calib/xattn_rows.py: the autoencoder augmentation's
cross-attention experiment, one seed at a time, and its per-seed rows."""

import importlib.util
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from codemix.cli import main as codemix_main
from codemix.errors import DataError
from codemix.seq2seq import Seq2SeqModel

_SPEC = importlib.util.spec_from_file_location(
    "xattn_rows",
    Path(__file__).resolve().parents[1] / "scripts_calib" / "xattn_rows.py")
xattn_rows = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(xattn_rows)

small_experiment = partial(xattn_rows.xattn_experiment, n_train=16,
                           n_dec_layers=2, epochs=2)


def test_grid_and_losses_shape():
    grid, losses = xattn_rows.xattn_experiment(0, n_train=60, n_dec_layers=2,
                                               epochs=2)
    assert grid.shape == (2, 2) and grid.dtype == np.float64
    assert np.all(grid > 0)
    assert len(losses) == 2 and all(np.isfinite(losses))


@pytest.mark.parametrize("epochs", [0, -2, 2.5])
def test_requires_an_epoch(epochs):
    with pytest.raises(DataError,
                       match=f"epochs must be an integer >= 1, got {epochs}"):
        xattn_rows.xattn_experiment(0, n_train=8, n_dec_layers=1,
                                    epochs=epochs)


def test_one_forward_per_epoch_for_every_layer(monkeypatch):
    forward, captures = Seq2SeqModel.forward, []

    def spy(self, src_ids, dec_in, rng=None, capture=None):
        if capture is not None:
            captures.append(capture)
        return forward(self, src_ids, dec_in, rng, capture)

    monkeypatch.setattr(Seq2SeqModel, "forward", spy)
    grid, _ = xattn_rows.xattn_experiment(0, n_train=16, n_dec_layers=3,
                                          epochs=2)
    assert grid.shape == (3, 2)
    assert [len(c) for c in captures] == [3, 3]  # one pass an epoch


def test_two_seeds_give_each_seeds_own_rows(monkeypatch, tmp_path):
    runs = {seed: small_experiment(seed) for seed in (0, 1)}
    assert not np.array_equal(runs[0][0], runs[1][0])
    monkeypatch.setattr(xattn_rows, "xattn_experiment", small_experiment)
    out = tmp_path / "rows.jsonl"
    xattn_rows.main(["--seeds", "0,1", "--out", str(out)])
    rows = [json.loads(ln) for ln in
            out.read_text(encoding="utf-8").splitlines()]
    assert [(r["seed"], r["epoch"]) for r in rows] == [
        (0, 1), (0, 2), (1, 1), (1, 2)]
    for r in rows:
        grid, losses = runs[r["seed"]]
        assert r["train_loss"] == round(losses[r["epoch"] - 1], 6)
        assert r["error"] == [round(float(e), 6)
                              for e in grid[:, r["epoch"] - 1]]


@pytest.mark.parametrize("seeds", ["a,b", "", ","],
                         ids=["letters", "empty", "comma-only"])
def test_seeds_that_name_no_integer_are_a_usage_error(seeds, tmp_path,
                                                      capsys):
    out = tmp_path / "rows.jsonl"
    with pytest.raises(SystemExit) as exc:
        xattn_rows.main(["--seeds", seeds, "--out", str(out)])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_xattn_is_no_longer_a_codemix_command(capsys):
    assert codemix_main(["analyze-xattn"]) == 1
    assert "invalid choice: 'analyze-xattn'" in capsys.readouterr().err
