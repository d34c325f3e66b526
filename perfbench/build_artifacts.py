"""Build the benchmark's committed artifacts from fixed seeds.

    python3 perfbench/build_artifacts.py

writes, under perfbench/artifacts/:
  teacher/          2+2-layer d64 checkpoint (v1 format): 4 epochs of
                    train_stage1 on 6,000 noisy pairs of the benchmark task
  crf.json          CRF trained on the first 1,500 langid queries
  reference.json    f32 and int8 beam outputs for every serve query of the
                    reference seed (0), which later runs diff against
  SHA256SUMS        hashes of the files above; run.py refuses to run when
                    one does not match

Run it from the repository root with one BLAS thread. It takes about two
minutes on one core; the same numpy build gives the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from codemix.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from codemix.langid import save_crf, train_crf  # noqa: E402
from codemix.numerics import make_rng  # noqa: E402
from codemix.quant import quantize_model  # noqa: E402
from codemix.seq2seq import (Seq2SeqConfig, beam_search, encode_source,  # noqa: E402
                             init_model)
from codemix.text import synthetic_vocab  # noqa: E402
from codemix.train import StageConfig, TrainingConfig, train_stage1  # noqa: E402

ARTIFACTS = HERE / "artifacts"
TEACHER_DIR = ARTIFACTS / "teacher"
CRF_PATH = ARTIFACTS / "crf.json"
REFERENCE_PATH = ARTIFACTS / "reference.json"
SUMS_PATH = ARTIFACTS / "SHA256SUMS"
BEAM = 3


def artifact_files() -> list[Path]:
    return sorted([*TEACHER_DIR.iterdir(), CRF_PATH, REFERENCE_PATH])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_teacher() -> None:
    cfg = Seq2SeqConfig(vocab=synthetic_vocab(inputs.TASK))
    teacher = init_model(cfg, make_rng(1))
    tc = TrainingConfig(stage1=StageConfig(epochs=4))
    report = train_stage1(teacher, inputs.teacher_corpus(), tc, make_rng(2))
    save_checkpoint(teacher, TEACHER_DIR)
    print(f"teacher: vocab {len(cfg.vocab)}, final loss "
          f"{report.epochs[-1].train_loss:.4f}", flush=True)


def build_crf() -> None:
    crf = train_crf(inputs.langid_corpus()[:inputs.CRF_TRAIN], rng=make_rng(3))
    save_crf(crf, CRF_PATH)
    print(f"crf: {len(crf.feature_index)} features", flush=True)


def build_reference() -> None:
    """Beam outputs of the teacher and its int8 copy for every serve query
    of the reference seed: {query: {"f32": ids, "int8": ids}}."""
    teacher = load_checkpoint(TEACHER_DIR)
    models = {"f32": teacher, "int8": quantize_model(teacher)}
    vocab = teacher.config.vocab
    out: dict[str, dict[str, list[int]]] = {}
    chunks = inputs.serve_chunks(inputs.REFERENCE_SEED, inputs.SERVE_CHUNKS)
    for chunk in chunks:
        for query in chunk:
            src = encode_source(query, vocab)
            out[query] = {name: beam_search(m, src, beam=BEAM).ids
                          for name, m in models.items()}
    REFERENCE_PATH.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"reference: {len(out)} queries", flush=True)


def main() -> None:
    ARTIFACTS.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    build_teacher()
    build_crf()
    build_reference()
    lines = [f"{sha256(p)}  {p.relative_to(ARTIFACTS).as_posix()}\n"
             for p in artifact_files()]
    SUMS_PATH.write_text("".join(lines), encoding="utf-8")
    print(f"done in {time.perf_counter() - t0:.0f} s", flush=True)


if __name__ == "__main__":
    main()
