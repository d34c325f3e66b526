"""Calibration: KD direction (criterion 9 shape): JS vs CE students of a
6+6 teacher, plus latency ratio and quantization drop."""
import sys
import time

import numpy as np

sys.path.insert(0, "src")
from codemix.bleu import bleu_corpus
from codemix.distill import DistillConfig, KDKind, train_student
from codemix.numerics import make_rng
from codemix.quant import quantize_model
from codemix.seq2seq import Seq2SeqConfig, init_model, translate_corpus
from codemix.text import (SynthTaskSpec, gen_clean_corpus,
                          gen_synthetic_corpus, synthetic_vocab)
from codemix.train import StageConfig, TrainingConfig, train_stage1

K = 60
N_NOISY = 5000
N_CLEAN = 800
N_POOL = 1200
N_TEST = 600
SEEDS = (0, 1, 2)

rows = []
for seed in SEEDS:
    spec = SynthTaskSpec(lexicon_size=K, code_mix_ratio=0.3,
                         noise_char_drop_prob=0.1,
                         pseudo_label_error_rate=0.12, seed=300 + seed)
    noisy, test = gen_synthetic_corpus(spec, N_NOISY, N_TEST)
    clean = gen_clean_corpus(spec, N_CLEAN)
    pool = [ex.source for ex in gen_clean_corpus(spec, N_POOL, salt=7)]
    vocab = synthetic_vocab(spec)
    refs = [ex.target for ex in test]
    srcs = [ex.source for ex in test]

    tcfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=6, n_dec_layers=6,
                         d_model=48, n_heads=4, d_ff=192, max_len=16,
                         dropout_prob=0.0)
    teacher = init_model(tcfg, make_rng(3000 + seed))
    tc = TrainingConfig()
    tc.stage1 = StageConfig(epochs=4, lr=7e-4, batch_size=64)
    t0 = time.time()
    train_stage1(teacher, noisy, tc, make_rng(4000 + seed))
    teacher_bleu = bleu_corpus(translate_corpus(teacher, srcs), refs).bleu
    print(f"seed={seed} teacher BLEU={teacher_bleu:.2f} "
          f"({time.time()-t0:.0f}s)", flush=True)

    scfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1, n_dec_layers=1,
                         d_model=48, n_heads=4, d_ff=192, max_len=16,
                         dropout_prob=0.0)
    per_kind = {}
    for kind in (KDKind.CE, KDKind.JS):
        t0 = time.time()
        dcfg = DistillConfig(epochs=16, lr=1.2e-3, batch_size=64)
        student, _ = train_student(scfg, teacher, clean, pool, kind,
                                   make_rng(5000 + seed), dcfg)
        qstudent = quantize_model(student)
        b_f32 = bleu_corpus(translate_corpus(student, srcs), refs).bleu
        b_q = bleu_corpus(translate_corpus(qstudent, srcs), refs).bleu
        per_kind[kind.value] = (b_f32, b_q)
        print(f"  seed={seed} {kind.value}: f32={b_f32:.2f} q={b_q:.2f} "
              f"({time.time()-t0:.0f}s)", flush=True)
    rows.append((seed, teacher_bleu, per_kind))

print("\nsummary:")
js = [r[2]["js"][1] for r in rows]
ce = [r[2]["ce"][1] for r in rows]
tb = [r[1] for r in rows]
print(f"teacher mean {np.mean(tb):.2f}")
print(f"JS quantized mean {np.mean(js):.2f}  CE quantized mean {np.mean(ce):.2f}")
print(f"JS - CE = {np.mean(js) - np.mean(ce):+.2f}")
print(f"teacher - student gaps: js {np.mean(tb) - np.mean(js):.2f}, "
      f"ce {np.mean(tb) - np.mean(ce):.2f}")
drops = [r[2][k][0] - r[2][k][1] for r in rows for k in ("js", "ce")]
print(f"quantization drops: {[round(d, 3) for d in drops]}")
