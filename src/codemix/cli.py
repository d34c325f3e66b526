"""Command-line surface tying the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data/model error.
Subcommands: gen-corpus, train, distill, translate, detect-lang, translit,
eval-bleu, bench-latency, train-langid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bleu import bleu_corpus
from .checkpoint import load_checkpoint, read_kv, save_checkpoint
from .distill import DistillConfig, KDKind, bench_latency, train_student
from .errors import CodemixError, DataError, UsageError
from .langid import (LabeledQuery, detect_query_language, eval_prf,
                     gen_langid_corpus, load_crf, load_token_labels,
                     query_gold_language, save_crf, save_token_labels,
                     train_crf)
from .numerics import make_rng
from .quant import quantize_model
from .seq2seq import (Seq2SeqConfig, check_length, init_model,
                      translate_corpus)
from .text import (SynthTaskSpec, build_vocab, check_count, decode_utf8,
                   gen_clean_corpus, gen_synthetic_corpus, load_parallel_tsv,
                   read_utf8, save_parallel_tsv, split_lines)
from .train import (TrainingConfig, check_pairs, config_from_items,
                    stage2_val_count, train_stage1, train_stage2)
from .translit import (check_translit_model, hybrid_transliterate,
                       load_translit_dict, oov_words)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, never 2
        raise UsageError(message)


def _read_lines(spec: str, keep_blank: bool = False) -> list[str]:
    """The lines of a file, or of stdin for "-", both decoded by
    `decode_utf8` and cut by `split_lines`; blank lines are skipped unless
    `keep_blank`."""
    text = (decode_utf8(sys.stdin.buffer.read(), "<stdin>") if spec == "-"
            else read_utf8(spec))
    return [ln for ln in split_lines(text) if keep_blank or ln.strip()]


def _check_nonempty(flag: str, spec: str, items: list, what: str) -> None:
    """DataError naming `flag` and its file (`<stdin>` for "-") when the
    file gave no `what` to train on, before any model is loaded or built."""
    if not items:
        name = "<stdin>" if spec == "-" else spec
        raise DataError(f"{flag} {name}: no {what} to train on")


def _write_lines(spec: str, lines: list[str]) -> None:
    text = "".join(ln + "\n" for ln in lines)
    if spec == "-":
        sys.stdout.write(text)
    else:
        Path(spec).write_text(text, encoding="utf-8")


def _check_lines(lines: list[str], check, where: str = "") -> None:
    """`check(line)` on every non-blank line, which raises a DataError for
    a line the command cannot take; the error then names the line
    (1-based), after `where`."""
    for i, line in enumerate(lines):
        if line.strip():
            try:
                check(line)
            except DataError as e:
                raise DataError(f"{where}line {i + 1}: {e}") from None


def _map_lines(args, fn, check=None) -> int:
    """One line of args.output per line of args.input: fn maps the list of
    non-blank input lines to their outputs; a blank line is not passed to
    fn and gets an empty output line, so output line i answers input i.
    `check`, when given, runs on the lines before fn (`_check_lines`)."""
    lines = _read_lines(args.input, keep_blank=True)
    if check:
        _check_lines(lines, check)
    idx = [i for i, ln in enumerate(lines) if ln.strip()]
    out = [""] * len(lines)
    for i, res in zip(idx, fn([lines[i] for i in idx])):
        out[i] = res
    _write_lines(args.output, out)
    return 0


def _write_records(path: str | None, records: list[dict]) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _print_records(path: str | None, records: list[dict]) -> None:
    """Print each record as a JSON line, then write them all to `path`
    (--report) when it is given."""
    for rec in records:
        print(json.dumps(rec))
    _write_records(path, records)


# Each model flag's dest and the Seq2SeqConfig field it sets.
_MODEL_FLAGS = {"enc_layers": "n_enc_layers", "dec_layers": "n_dec_layers",
                "d_model": "d_model", "heads": "n_heads", "d_ff": "d_ff",
                "max_len": "max_len", "dropout": "dropout_prob"}


def _model_config(args, vocab, **fixed) -> Seq2SeqConfig:
    """The model flags' config, with the `fixed` fields that the command's
    flags do not set; a flag not given takes Seq2SeqConfig's default."""
    given = {field: getattr(args, dest) for dest, field in _MODEL_FLAGS.items()
             if getattr(args, dest, None) is not None}
    return Seq2SeqConfig(vocab=vocab, **given, **fixed)


def _add_model_flags(p: argparse.ArgumentParser,
                     layers: int | None = None) -> None:
    """The model flags but --max-len. Each defaults to None, which leaves
    its field at Seq2SeqConfig's default, but the layer counts default to
    `layers` when it is given."""
    p.add_argument("--enc-layers", type=int, default=layers)
    p.add_argument("--dec-layers", type=int, default=layers)
    p.add_argument("--d-model", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--d-ff", type=int)
    p.add_argument("--dropout", type=float)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_corpus(args) -> int:
    check_count("--n-train", args.n_train, least=1)
    for flag, n in (("--n-test", args.n_test), ("--n-clean", args.n_clean),
                    ("--langid-n", args.langid_n), ("--seed", args.seed)):
        check_count(flag, n)
    spec = SynthTaskSpec(lexicon_size=args.lexicon_size,
                         code_mix_ratio=args.code_mix_ratio,
                         noise_char_drop_prob=args.noise,
                         pseudo_label_error_rate=args.q,
                         min_len=args.min_len, max_len=args.max_words,
                         seed=args.seed)
    # every corpus is generated before any write
    train, test = gen_synthetic_corpus(spec, args.n_train, args.n_test)
    clean = gen_clean_corpus(spec, args.n_clean) if args.n_clean else None
    queries = (gen_langid_corpus(args.langid_n, seed=args.seed)
               if args.langid_n else None)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_parallel_tsv(train, out / "train.tsv")
    save_parallel_tsv(test, out / "test.tsv")
    print(f"wrote {len(train)} noisy pairs to {out / 'train.tsv'}")
    print(f"wrote {len(test)} clean test pairs to {out / 'test.tsv'}")
    if clean is not None:
        save_parallel_tsv(clean, out / "clean.tsv")
        print(f"wrote {len(clean)} clean pairs to {out / 'clean.tsv'}")
    if queries is not None:
        save_token_labels(queries, out / "langid.conll")
        print(f"wrote {len(queries)} labeled queries to {out / 'langid.conll'}")
    return 0


def _cmd_train(args) -> int:
    for dest in _MODEL_FLAGS:
        if args.init_from and getattr(args, dest) is not None:
            raise UsageError(f"--{dest.replace('_', '-')} cannot be given "
                             f"with --init-from, whose checkpoint sets the "
                             f"model")
    tcfg = TrainingConfig()
    if args.config:
        tcfg = config_from_items(read_kv(Path(args.config)))
    if args.seed is not None:
        tcfg.seed = args.seed
    noisy = load_parallel_tsv(args.train_tsv) if args.train_tsv else []
    clean = load_parallel_tsv(args.clean_tsv) if args.clean_tsv else []
    for flag, path, pairs, stage in (
            ("--train-tsv", args.train_tsv, noisy, "stage1"),
            ("--clean-tsv", args.clean_tsv, clean, "stage2")):
        if args.stage not in (stage, "both"):
            continue
        if not path:
            raise UsageError(f"{flag} is required for {stage} training")
        _check_nonempty(flag, path, pairs, "pairs")
    if args.stage != "stage1":
        try:
            stage2_val_count(len(clean), tcfg.stage2)
        except DataError as e:
            raise DataError(f"--clean-tsv {args.clean_tsv}: {e}") from None
    rng = make_rng(tcfg.seed)
    init_rng, s1_rng, s2_rng = rng.spawn(3)
    if args.init_from:
        model = load_checkpoint(args.init_from)
    else:
        vocab = build_vocab(noisy + clean, mode="word")
        model = init_model(_model_config(args, vocab), init_rng)
    for path, corpus in ((args.train_tsv, noisy), (args.clean_tsv, clean)):
        check_pairs(corpus, model.config, path)
    records = []
    if args.stage in ("stage1", "both"):
        rep = train_stage1(model, noisy, tcfg, s1_rng)
        records += rep.records()
    if args.stage in ("stage2", "both"):
        rep = train_stage2(model, clean, tcfg, s2_rng)
        records += rep.records()
    save_checkpoint(model, args.out)
    _print_records(args.report, records)
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_distill(args) -> int:
    dcfg = DistillConfig(epochs=args.epochs, lr=args.lr,
                         batch_size=args.batch_size, lam=args.lam)
    clean = load_parallel_tsv(args.clean_tsv)
    pool = _read_lines(args.pool)
    _check_nonempty("--clean-tsv", args.clean_tsv, clean, "pairs")
    _check_nonempty("--pool", args.pool, pool, "queries")
    teacher = load_checkpoint(args.teacher)
    student_cfg = _model_config(args, teacher.config.vocab,
                                max_len=teacher.config.max_len)
    check_pairs(clean, student_cfg, args.clean_tsv)
    try:
        student, report = train_student(student_cfg, teacher, clean, pool,
                                        KDKind(args.kd), make_rng(args.seed),
                                        dcfg, beam=args.beam)
    except DataError as e:
        if not str(e).startswith("unlabeled_pool"):
            raise
        name = "<stdin>" if args.pool == "-" else args.pool
        raise DataError(f"--pool {name}: {e}") from None
    if args.quantize:
        student = quantize_model(student)
    save_checkpoint(student, args.out)
    records = [{"epoch": i + 1, **{k: round(v, 6) for k, v in m.items()}}
               for i, m in enumerate(report.epoch_means)]
    _print_records(args.report, records)
    print(f"student checkpoint written to {args.out}")
    return 0


def _cmd_translate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    return _map_lines(args, lambda qs: translate_corpus(
        model, qs, beam=args.beam, max_len=args.max_len),
        lambda q: check_length(q, model.config))


def _cmd_detect_lang(args) -> int:
    crf = load_crf(args.model)
    return _map_lines(args, lambda qs: [
        detect_query_language(crf, q).value for q in qs])


def _cmd_translit(args) -> int:
    tdict = load_translit_dict(args.dict)
    model = load_checkpoint(args.model) if args.model else None
    if model is not None:
        try:
            check_translit_model(model)
        except DataError as e:
            raise DataError(f"{args.model}: {e}") from None
    return _map_lines(args, lambda ts: [
        hybrid_transliterate(t, tdict, model) for t in ts],
        lambda t: oov_words(t, tdict, model))


def _cmd_eval_bleu(args) -> int:
    # One candidate or reference per line, blank lines included: an empty
    # translation is written as an empty line.
    cands = _read_lines(args.candidates, keep_blank=True)
    refs = _read_lines(args.references, keep_blank=True)
    report = bleu_corpus(cands, refs)
    print(f"BLEU = {report.bleu:.2f}")
    print(f"precisions = {['%.4f' % p for p in report.precisions]}")
    print(f"brevity_penalty = {report.brevity_penalty:.4f} "
          f"(candidate {report.candidate_len} / reference "
          f"{report.reference_len} tokens)")
    _write_records(args.report, report.records())
    return 0


def _cmd_bench_latency(args) -> int:
    model = load_checkpoint(args.checkpoint)
    lines = _read_lines(args.queries, keep_blank=True)
    _check_lines(lines, lambda q: check_length(q, model.config),
                 f"{args.queries}: ")
    queries = [ln for ln in lines if ln.strip()]
    rep = bench_latency(model, queries, warmup=args.warmup,
                        samples=args.samples, beam=args.beam,
                        max_len=args.max_len)
    records = rep.records()
    rec = records[0]  # print the report's rounded numbers, not raw ones
    print(f"model={rec['model']} p50={rec['p50_ms']:.2f}ms "
          f"p95={rec['p95_ms']:.2f}ms ({rec['n_samples']} samples, "
          f"hardware: {rec['hardware']})")
    _write_records(args.report, records)
    return 0


def _load_queries(path: str) -> list[LabeledQuery]:
    """The labeled queries of a CoNLL file; a file with none is a DataError
    naming it."""
    queries = load_token_labels(path)
    if not queries:
        raise DataError(f"{path}: no labeled queries")
    return queries


def _cmd_train_langid(args) -> int:
    # both files are read before training, so a bad one writes no model
    queries = _load_queries(args.conll)
    test = _load_queries(args.eval_conll) if args.eval_conll else None
    crf = train_crf(queries, l2=args.l2, epochs=args.epochs,
                    rng=make_rng(args.seed))
    save_crf(crf, args.out)
    print(f"CRF model written to {args.out} "
          f"({len(crf.feature_index)} features)")
    if test is not None:
        preds = [detect_query_language(crf, " ".join(t.word for t in q))
                 for q in test]
        gold = [query_gold_language(q) for q in test]
        p, r, f1 = eval_prf(preds, gold)
        print(f"hinglish detection: precision={p:.3f} recall={r:.3f} "
              f"f1={f1:.3f}")
    return 0


# ---------------------------------------------------------------------------

_DECODE_MAX_LEN_HELP = ("most tokens to decode per query (default: the "
                        "model's own limit, its max_len - 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="codemix",
                     description="Code-mix query translation lab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-corpus", parents=[], help="generate the "
                       "synthetic benchmark corpora")
    p.add_argument("--out", required=True)
    p.add_argument("--lexicon-size", type=int, default=100)
    p.add_argument("--code-mix-ratio", type=float, default=0.3)
    p.add_argument("--noise", type=float, default=0.1,
                   help="interior character drop probability")
    p.add_argument("--q", type=float, default=0.05,
                   help="pseudo-label word error rate")
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--max-words", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=20000)
    p.add_argument("--n-test", type=int, default=2000)
    p.add_argument("--n-clean", type=int, default=0)
    p.add_argument("--langid-n", type=int, default=0)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("train", help="train a translation model")
    p.add_argument("--train-tsv")
    p.add_argument("--clean-tsv")
    p.add_argument("--out", required=True)
    p.add_argument("--stage", choices=("stage1", "stage2", "both"),
                   default="both")
    p.add_argument("--config", help="flat key=value training config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--init-from", help="checkpoint to continue from")
    p.add_argument("--report", help="write JSONL epoch records here")
    p.add_argument("--max-len", type=int)
    _add_model_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("distill", help="distill a teacher into a student")
    p.add_argument("--teacher", required=True)
    p.add_argument("--clean-tsv", required=True)
    p.add_argument("--pool", required=True,
                   help="unlabeled sources, one per line ('-' for stdin)")
    p.add_argument("--kd", choices=("ce", "js"), default="js")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantize", action="store_true")
    p.add_argument("--report")
    _add_model_flags(p, layers=1)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("translate", help="translate queries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--max-len", type=int, help=_DECODE_MAX_LEN_HELP)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("detect-lang", help="label query language")
    p.add_argument("--model", required=True, help="CRF model JSON")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_detect_lang)

    p = sub.add_parser("translit", help="hybrid transliteration")
    p.add_argument("--dict", required=True)
    p.add_argument("--model", help="char-level checkpoint for OOV words")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_translit)

    p = sub.add_parser("eval-bleu", help="corpus BLEU of candidates vs "
                       "references")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_eval_bleu)

    p = sub.add_parser("bench-latency", help="beam-decode latency "
                       "percentiles")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--max-len", type=int, help=_DECODE_MAX_LEN_HELP)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_bench_latency)

    p = sub.add_parser("train-langid", help="train the CRF language "
                       "detector")
    p.add_argument("--conll", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-conll")
    p.set_defaults(func=_cmd_train_langid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    try:
        # NaN and Inf raise NonFiniteError naming the op; NumPy's warnings
        # about them would print more lines before the one error line
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (CodemixError, OSError) as e:  # OSError: an unwritable output
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
