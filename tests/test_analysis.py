import numpy as np
import pytest

from codemix.analysis import min_head_identity_error, xattn_identity_errors
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
        e = xattn_identity_errors(m, ["w0 w1 w2", "w3 w4"])[0]
        assert e > 0

    def test_batch_order_invariance_exact(self):
        m = small_model(seed=2)
        batch = ["w0 w1", "w2 w3 w4", "w1", "w4 w0"]
        a = xattn_identity_errors(m, batch)[1]
        b = xattn_identity_errors(m, list(reversed(batch)))[1]
        assert a == b

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            xattn_identity_errors(small_model(), [])


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
        errors = xattn_identity_errors(model, [ex.target for ex in val])
        assert len(errors) == 3
        assert all(e > 0 for e in errors)
