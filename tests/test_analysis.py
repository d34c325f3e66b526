import numpy as np
import pytest

from codemix.analysis import (XAttnExperimentConfig, ae_xattn_experiment,
                              min_head_identity_error, xattn_identity_error)
from codemix.errors import DataError, ShapeError
from codemix.numerics import make_rng
from codemix.seq2seq import Seq2SeqConfig, init_model
from codemix.text import SynthTaskSpec, build_vocab, synthetic_vocab


class TestMinHeadIdentityError:
    def test_identity_head_gives_zero(self):
        c = np.stack([np.eye(3), np.full((3, 3), 1 / 3)])
        assert min_head_identity_error(c) == 0.0

    def test_swap_matrix_norm_two(self):
        c = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        assert min_head_identity_error(c) == pytest.approx(2.0, abs=1e-12)

    def test_min_over_heads(self):
        rng = make_rng(0)
        arbitrary = rng.dirichlet(np.ones(4), size=4)
        c = np.stack([arbitrary, np.eye(4)])
        assert min_head_identity_error(c) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            min_head_identity_error(np.zeros((2, 3, 4)))


def small_model(seed=0, dec_layers=2):
    vocab = build_vocab(["w0 w1 w2 w3 w4"], mode="word")
    cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1, n_dec_layers=dec_layers,
                        d_model=16, n_heads=2, d_ff=32, max_len=12,
                        dropout_prob=0.0)
    return init_model(cfg, make_rng(seed))


class TestXattnIdentityError:
    def test_random_model_positive_error(self):
        m = small_model(seed=1)
        e = xattn_identity_error(m, ["w0 w1 w2", "w3 w4"], layer=0)
        assert e > 0

    def test_batch_order_invariance_exact(self):
        m = small_model(seed=2)
        batch = ["w0 w1", "w2 w3 w4", "w1", "w4 w0"]
        a = xattn_identity_error(m, batch, layer=1)
        b = xattn_identity_error(m, list(reversed(batch)), layer=1)
        assert a == b

    def test_non_square_pair_rejected(self):
        m = small_model(seed=3)
        with pytest.raises(ShapeError, match="square"):
            xattn_identity_error(m, [("w0 w1 w2", "w0 w1")], layer=0)

    def test_pairs_with_equal_lengths_accepted(self):
        m = small_model(seed=4)
        e = xattn_identity_error(m, [("w0 w1", "w2 w3")], layer=0)
        assert e >= 0

    def test_layer_bounds_checked(self):
        m = small_model(seed=5)
        with pytest.raises(DataError):
            xattn_identity_error(m, ["w0"], layer=7)

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            xattn_identity_error(small_model(), [], layer=0)


class TestExperiment:
    def test_untrained_error_positive_all_layers(self):
        task = SynthTaskSpec(lexicon_size=12, seed=3)
        vocab = synthetic_vocab(task)
        mcfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=2, n_dec_layers=3,
                             d_model=16, n_heads=2, d_ff=32, max_len=16,
                             dropout_prob=0.0)
        model = init_model(mcfg, make_rng(6))
        from codemix.text import gen_synthetic_corpus
        _, val = gen_synthetic_corpus(task, 10, 10)
        for layer in range(3):
            e = xattn_identity_error(model, [ex.target for ex in val], layer)
            assert e > 0

    def test_curve_shape_and_records(self):
        cfg = XAttnExperimentConfig(n_train=60, n_dec_layers=2, epochs=2)
        curve = ae_xattn_experiment(cfg, seeds=[0])
        assert curve.errors.shape == (2, 2)
        assert np.all(curve.errors > 0)
        recs = curve.records()
        assert len(recs) == 4
        assert {r["layer"] for r in recs} == {0, 1}

    def test_requires_seeds(self):
        with pytest.raises(DataError):
            ae_xattn_experiment(XAttnExperimentConfig(), seeds=[])

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_requires_an_epoch(self, epochs):
        cfg = XAttnExperimentConfig()
        cfg.epochs = epochs
        with pytest.raises(DataError, match="epochs must be an integer >= 1"):
            ae_xattn_experiment(cfg, seeds=[0])
