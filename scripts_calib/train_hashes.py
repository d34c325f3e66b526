"""Fingerprints of trained weights, for checking that a change to the model
code leaves training bit-for-bit unchanged.

    python3 scripts_calib/train_hashes.py SRC_DIR

imports codemix from SRC_DIR (for instance `src`, or the `src` of a
second checkout), runs a fixed recipe and prints the first 16 hex digits of
the sha256 of the weights after each phase:

  stages   a d32 2+2 model (dropout 0.1) after train_stage1 and
           train_stage2 with their default augmentation kinds;
  ce, js   a d32 2+2 student distilled from that model with the CE and
           the JS KD loss (train_student, default augmentation);
  crf      the CRF language detector's weights and transitions after
           train_crf (3 epochs, default batch size) on 120 queries of
           gen_langid_corpus;
  detect   the Viterbi labels that CRF gives the next 200 queries of the
           same corpus, held out from its training;
  translit the hybrid_transliterate outputs of 12 four-word texts, most
           words outside the dictionary, from a d32 char model trained
           with train_translit on 40 letter-shift pairs;
  int8     the manifest.tsv and weights.bin that save_checkpoint writes
           for quantize_model of the stages model, then the beam-3 ids
           that int8 model and its load_checkpoint copy give 40 held-out
           queries of gen_clean_corpus;
  xattn    the per-layer, per-epoch identity errors of xattn_experiment in
           scripts_calib/xattn_rows.py (seed 0, 200 training pairs, 2
           decoder layers, 2 epochs), which covers the experiment's fixed
           settings.

Two trees train, detect, transliterate, quantize and run the cross-attention
experiment identically when they print the same eight lines. BLAS is pinned
to one thread, so the GEMMs split their work the same way on both.
"""
import hashlib
import os
import sys
import tempfile
from pathlib import Path

if len(sys.argv) != 2:
    sys.exit(__doc__)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(sys.argv[1]).resolve()))

import numpy as np  # noqa: E402

from codemix.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from codemix.distill import DistillConfig, KDKind, train_student  # noqa: E402
from codemix.langid import gen_langid_corpus, train_crf, viterbi  # noqa: E402
from codemix.numerics import make_rng  # noqa: E402
from codemix.quant import quantize_model  # noqa: E402
from codemix.seq2seq import (Seq2SeqConfig, beam_search_batch,  # noqa: E402
                             encode_source, init_model)
from codemix.text import (SynthTaskSpec, build_vocab,  # noqa: E402
                          gen_clean_corpus, gen_synthetic_corpus,
                          synthetic_vocab)
from codemix.train import (StageConfig, TrainingConfig,  # noqa: E402
                           train_stage1, train_stage2)
from codemix.translit import (TranslitDict, char_seq2seq_config,  # noqa: E402
                              hybrid_transliterate, train_translit)
from xattn_rows import xattn_experiment  # noqa: E402


def fingerprint(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()[:16]


def params(model) -> dict:
    return {name: p.data for name, p in model.params.items()}


spec = SynthTaskSpec(lexicon_size=30, code_mix_ratio=0.3,
                     noise_char_drop_prob=0.1, pseudo_label_error_rate=0.1,
                     seed=7)
noisy, _ = gen_synthetic_corpus(spec, 1200, 1)
clean = gen_clean_corpus(spec, 80)
pool = [ex.source for ex in gen_clean_corpus(spec, 60, salt=3)]
vocab = synthetic_vocab(spec)


config = Seq2SeqConfig(vocab=vocab, n_enc_layers=2, n_dec_layers=2,
                       d_model=32, n_heads=4, d_ff=64, max_len=16,
                       dropout_prob=0.1)
model = init_model(config, make_rng(1))
tc = TrainingConfig()
tc.stage1 = StageConfig(epochs=4, lr=2e-3, batch_size=32)
tc.stage2 = StageConfig(epochs=2, lr=5e-4, batch_size=16,
                        kinds=tc.stage2.kinds)
train_stage1(model, noisy, tc, make_rng(2))
train_stage2(model, clean, tc, make_rng(3))
print(f"stages {fingerprint(params(model))}", flush=True)

for kind in (KDKind.CE, KDKind.JS):
    student, _ = train_student(config, model, clean, pool, kind,
                               make_rng(4),
                               DistillConfig(epochs=2, batch_size=16))
    print(f"{kind.value:6s} {fingerprint(params(student))}", flush=True)

langid = gen_langid_corpus(320, seed=5)
crf = train_crf(langid[:120], epochs=3, rng=make_rng(6))
crf_arrays = {"weights": crf.weights, "transitions": crf.transitions}
print(f"crf    {fingerprint(crf_arrays)}", flush=True)

labels = "\n".join(" ".join(viterbi(crf, [tok.word for tok in query]))
                   for query in langid[120:])
print(f"detect {hashlib.sha256(labels.encode()).hexdigest()[:16]}", flush=True)

letters = "abcdefghijklm"
shift = str.maketrans(letters, "nopqrstuvwxyz")
word_rng = make_rng(8)
words = ["".join(letters[int(i)] for i in word_rng.integers(13, size=n))
         for n in word_rng.integers(2, 9, size=88)]
pairs = [(w, w.translate(shift)) for w in words[:40]]
tvocab = build_vocab([w for p in pairs for w in p], mode="char")
tconfig = char_seq2seq_config(tvocab)
tconfig.d_model, tconfig.d_ff = 32, 64
tmodel = train_translit(pairs, config=tconfig, rng=make_rng(9), epochs=20,
                        lr=2e-3, batch_size=16)
tdict = TranslitDict(dict(pairs[:10]))
texts = [" ".join(words[i:i + 4]) for i in range(0, 48, 4)]
outs = "\n".join(hybrid_transliterate(t, tdict, tmodel) for t in texts)
print(f"translit {hashlib.sha256(outs.encode()).hexdigest()[:16]}", flush=True)

int8 = quantize_model(model)
held_out = [encode_source(ex.source, vocab)
            for ex in gen_clean_corpus(spec, 40, salt=11)]
h = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    save_checkpoint(int8, tmp)
    for fname in ("manifest.tsv", "weights.bin"):
        h.update((Path(tmp) / fname).read_bytes())
    loaded = load_checkpoint(tmp)
for m in (int8, loaded):
    h.update(repr([r.ids for r in beam_search_batch(m, held_out,
                                                    beam=3)]).encode())
print(f"int8   {h.hexdigest()[:16]}", flush=True)

grid, _ = xattn_experiment(0, n_train=200, n_dec_layers=2, epochs=2)
print(f"xattn  {hashlib.sha256(grid.tobytes()).hexdigest()[:16]}", flush=True)
