import argparse
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from codemix.bleu import bleu_corpus
from codemix import cli
from codemix import distill as distill_mod
from codemix.cli import main
from codemix.distill import (DistillConfig, KDKind, LatencyReport,
                             train_student)
from codemix.checkpoint import load_checkpoint, save_checkpoint
from codemix.langid import detect_query_language, load_crf
from codemix.quant import quantize_model
from codemix.seq2seq import (beam_search, encode_source, greedy_decode,
                             translate, translate_corpus)
from codemix.numerics import make_rng
from codemix.seq2seq import Seq2SeqConfig, Seq2SeqModel
from codemix.text import decode, load_parallel_tsv
from codemix.translit import train_translit

from oracles import reference_beam_search


def run(argv):
    return main(argv)


def read(path):
    return Path(path).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = run(["gen-corpus", "--out", str(out), "--lexicon-size", "14",
              "--n-train", "300", "--n-test", "40", "--n-clean", "60",
              "--langid-n", "120", "--seed", "5", "--noise", "0.1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def checkpoint_dir(corpus_dir, tmp_path_factory):
    ck = tmp_path_factory.mktemp("ckpt") / "model"
    cfg = tmp_path_factory.mktemp("cfg") / "train.cfg"
    cfg.write_text("stage1.epochs = 4\nstage1.lr = 1e-3\n"
                   "stage2.epochs = 3\nstage2.lr = 5e-4\nseed = 7\n",
                   encoding="utf-8")
    rc = run(["train", "--train-tsv", str(corpus_dir / "train.tsv"),
              "--clean-tsv", str(corpus_dir / "clean.tsv"),
              "--out", str(ck), "--config", str(cfg),
              "--d-model", "32", "--d-ff", "64", "--heads", "2",
              "--max-len", "16", "--dropout", "0.0"])
    assert rc == 0
    return ck


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run(["eval-bleu", "--nope"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
        assert run(["translate", "--help"]) == 0

    def test_data_error_is_exit_two(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab here\n", encoding="utf-8")
        rc = run(["train", "--train-tsv", str(bad), "--out",
                  str(tmp_path / "ck"), "--stage", "stage1"])
        assert rc == 2

    def test_bad_seed_list_is_usage_error(self, capsys):
        assert run(["analyze-xattn", "--seeds", "a,b"]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_missing_checkpoint_is_exit_two(self, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("a b\n", encoding="utf-8")
        rc = run(["translate", "--checkpoint", str(tmp_path / "nope"),
                  "--input", str(inp), "--output", "-"])
        assert rc == 2


class TestGenCorpus:
    def test_same_seed_byte_identical(self, tmp_path):
        args = ["gen-corpus", "--lexicon-size", "10", "--n-train", "50",
                "--n-test", "10", "--seed", "3"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("train.tsv", "test.tsv"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)

    def test_tsv_shape(self, corpus_dir):
        lines = read(corpus_dir / "train.tsv").splitlines()
        assert len(lines) == 300
        assert all(line.count("\t") == 1 for line in lines)


class TestTranslate:
    def test_beam_one_equals_greedy(self, corpus_dir, checkpoint_dir,
                                    tmp_path, capsys):
        model = load_checkpoint(checkpoint_dir)
        src_lines = [ln.split("\t")[0] for ln in
                     read(corpus_dir / "test.tsv").splitlines()[:5]]
        inp = tmp_path / "in.txt"
        inp.write_text("".join(s + "\n" for s in src_lines), encoding="utf-8")
        out1 = tmp_path / "out1.txt"
        rc = run(["translate", "--checkpoint", str(checkpoint_dir),
                  "--input", str(inp), "--output", str(out1), "--beam", "1",
                  "--max-len", "12"])
        assert rc == 0
        vocab = model.config.vocab
        expected = [decode(greedy_decode(model, encode_source(s, vocab),
                                         max_len=12), vocab)
                    for s in src_lines]
        assert read(out1).splitlines() == expected

    def test_output_line_count(self, corpus_dir, checkpoint_dir, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("a b\nc d\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        rc = run(["translate", "--checkpoint", str(checkpoint_dir),
                  "--input", str(inp), "--output", str(out)])
        assert rc == 0
        assert len(read(out).splitlines()) == 2


    def test_cached_decoder_matches_full_prefix_reference(self, corpus_dir,
                                                          checkpoint_dir):
        model = load_checkpoint(checkpoint_dir)
        vocab = model.config.vocab
        for line in read(corpus_dir / "test.tsv").splitlines()[:12]:
            src = encode_source(line.split("\t")[0], vocab)
            got = beam_search(model, src, beam=3, max_len=12)
            want = reference_beam_search(model, src, beam=3, max_len=12)
            assert (got.ids, got.finished) == (want.ids, want.finished)
            assert abs(got.score - want.score) <= 1e-5 * max(1.0,
                                                              abs(want.score))

    @pytest.mark.parametrize("scale", ["abc", "0", "-1", "nan", "inf"])
    def test_bad_int8_scale_is_exit_two(self, checkpoint_dir, tmp_path,
                                        capsys, scale):
        ck = tmp_path / "int8"
        save_checkpoint(quantize_model(load_checkpoint(checkpoint_dir)), ck)
        manifest = ck / "manifest.tsv"
        rows = manifest.read_text(encoding="utf-8").splitlines()
        i = next(i for i, r in enumerate(rows) if r.split("\t")[1] == "i8")
        rows[i] = "\t".join(rows[i].split("\t")[:4] + [scale])
        manifest.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
        inp = tmp_path / "in.txt"
        inp.write_text("a b\n", encoding="utf-8")
        capsys.readouterr()
        rc = run(["translate", "--checkpoint", str(ck), "--input", str(inp),
                  "--output", str(tmp_path / "out.txt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and "bad scale" in err


class TestEvalBleu:
    def test_identical_files_print_100(self, tmp_path, capsys):
        f = tmp_path / "x.txt"
        f.write_text("red shoe cover online\nkala juta wala\n",
                     encoding="utf-8")
        rc = run(["eval-bleu", "--candidates", str(f), "--references",
                  str(f)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BLEU = 100.00" in out

    def test_report_jsonl(self, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("a b c d\n", encoding="utf-8")
        rep = tmp_path / "rep.jsonl"
        rc = run(["eval-bleu", "--candidates", str(f), "--references",
                  str(f), "--report", str(rep)])
        assert rc == 0
        rec = json.loads(read(rep).splitlines()[0])
        assert rec["bleu"] == 100.0

    def test_blank_line_is_an_empty_candidate(self, tmp_path):
        cands = ["a b c d", "", "e f g h"]
        refs = ["a b c d", "p q", "e f g h"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("".join(ln + "\n" for ln in cands), encoding="utf-8")
        b.write_text("".join(ln + "\n" for ln in refs), encoding="utf-8")
        rep = tmp_path / "rep.jsonl"
        assert run(["eval-bleu", "--candidates", str(a), "--references",
                    str(b), "--report", str(rep)]) == 0
        rec = json.loads(read(rep).splitlines()[0])
        assert rec == bleu_corpus(cands, refs).records()[0]
        assert (rec["candidate_len"], rec["reference_len"]) == (8, 10)

    def test_count_mismatch_is_data_error(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("x\n", encoding="utf-8")
        b.write_text("x\ny\n", encoding="utf-8")
        assert run(["eval-bleu", "--candidates", str(a), "--references",
                    str(b)]) == 2


class TestLangidCli:
    def test_train_and_detect(self, corpus_dir, tmp_path, capsys):
        model_file = tmp_path / "crf.json"
        rc = run(["train-langid", "--conll", str(corpus_dir / "langid.conll"),
                  "--out", str(model_file), "--epochs", "3",
                  "--eval-conll", str(corpus_dir / "langid.conll")])
        assert rc == 0
        assert "f1=" in capsys.readouterr().out
        inp = tmp_path / "q.txt"
        inp.write_text("radata zipaxu\n", encoding="utf-8")
        out = tmp_path / "labels.txt"
        rc = run(["detect-lang", "--model", str(model_file), "--input",
                  str(inp), "--output", str(out)])
        assert rc == 0
        assert read(out).strip() in {"english", "hinglish", "other"}

    def test_crlf_conll_trains_the_same_crf(self, corpus_dir, tmp_path):
        lf, crlf = corpus_dir / "langid.conll", tmp_path / "crlf.conll"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        for src, out in ((lf, "lf.json"), (crlf, "crlf.json")):
            assert run(["train-langid", "--conll", str(src), "--epochs", "1",
                        "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "lf.json").read_bytes() == \
               (tmp_path / "crlf.json").read_bytes()

    @pytest.mark.parametrize("field,value,message", [
        ("template_version", "ngram12-window5-v0", "feature template"),
        ("transitions", [[0.0] * 2] * 2, "transition matrix"),
        ("weights", [[float("nan"), 0.0, 0.0]], "non-finite"),
        ("transitions", [[0.0, float("inf"), 0.0]] + [[0.0] * 3] * 2,
         "non-finite"),
        ("features", ["0:1:a", "0:1:a"], "feature '0:1:a' is listed twice"),
        ("features", [7], "feature name 7 is not a string"),
        ("features", "0:1:a", "features must be a list"),
        ("weights", [[10 ** 400, 0.0, 0.0]], "corrupt CRF model file"),
        ("transitions", [[0.0, -10 ** 400, 0.0]] + [[0.0] * 3] * 2,
         "corrupt CRF model file"),
    ], ids=["template_version", "transitions", "nan-weight", "inf-transition",
            "duplicate-feature", "non-string-feature", "features-not-a-list",
            "huge-int-weight", "huge-int-transition"])
    def test_incompatible_crf_is_exit_two(self, field, value, message,
                                          tmp_path, capsys):
        payload = {"template_version": "ngram134-window3-v1",
                   "features": ["0:1:a"], "weights": [[0.0, 0.0, 0.0]],
                   "transitions": [[0.0] * 3] * 3}
        payload[field] = value
        crf = tmp_path / "crf.json"
        crf.write_text(json.dumps(payload), encoding="utf-8")
        inp = tmp_path / "q.txt"
        inp.write_text("radata zipaxu\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["detect-lang", "--model", str(crf), "--input",
                    str(inp), "--output", str(tmp_path / "out.txt")]) == 2
        assert message in _one_error_line(capsys)


class TestTranslitCli:
    def test_dict_only_pipeline(self, tmp_path):
        d = tmp_path / "d.tsv"
        d.write_text("juta\tjoota\nkala\tkaala\n", encoding="utf-8")
        inp = tmp_path / "in.txt"
        inp.write_text("kala juta\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        rc = run(["translit", "--dict", str(d), "--input", str(inp),
                  "--output", str(out)])
        assert rc == 0
        assert read(out).strip() == "kaala joota"

    def test_oov_without_model_is_data_error(self, tmp_path):
        d = tmp_path / "d.tsv"
        d.write_text("juta\tjoota\n", encoding="utf-8")
        inp = tmp_path / "in.txt"
        inp.write_text("zzz\n", encoding="utf-8")
        assert run(["translit", "--dict", str(d), "--input", str(inp),
                    "--output", "-"]) == 2

    def test_oov_without_model_names_its_line(self, tmp_path, capsys):
        d, inp = tmp_path / "d.tsv", tmp_path / "in.txt"
        d.write_text("juta\tjoota\nkala\tkaala\n", encoding="utf-8")
        inp.write_text("kala\n\njuta zzz\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        capsys.readouterr()
        assert run(["translit", "--dict", str(d), "--input", str(inp),
                    "--output", str(out)]) == 2
        assert _one_error_line(capsys) == (
            "error: line 3: word 'zzz' not in the transliteration dictionary "
            "and no fallback model was given\n")
        assert not out.exists()

    def test_over_long_oov_word_names_its_line(self, tmp_path, capsys):
        # the char model's max_len is 24: a 30-letter word needs 31 ids;
        # a dictionary word is not decoded, so its length does not count
        save_checkpoint(train_translit([("kala", "kaala")], epochs=0),
                        tmp_path / "model")
        d, inp = tmp_path / "d.tsv", tmp_path / "in.txt"
        d.write_text("juta\tjoota\n" + "a" * 30 + "\tlong\n",
                     encoding="utf-8")
        inp.write_text("juta " + "a" * 30 + "\n\nkala K" + "a" * 29 + "\n",
                       encoding="utf-8")
        out = tmp_path / "out.txt"
        capsys.readouterr()
        rc = run(["translit", "--dict", str(d), "--model",
                  str(tmp_path / "model"), "--input", str(inp),
                  "--output", str(out)])
        assert rc == 2
        assert _one_error_line(capsys) == (
            "error: line 3: sequence length 31 exceeds max_len 24\n")
        assert not out.exists()


# Pairs too long for a max_len-32 model, with the length that counts:
# source tokens + EOS, or BOS + target tokens.
LONG_PAIRS = [(" ".join(["kala"] * 40) + "\tkala", 41),
              ("kala\t" + " ".join(["kala"] * 32), 33)]


def _with_last_line(tsv, pair: str, tmp_path):
    """A copy of `tsv` with `pair` appended, and the number of its line."""
    lines = read(tsv).splitlines() + [pair]
    out = tmp_path / "pairs.tsv"
    out.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
    return out, len(lines)


class TestTrainCli:
    def test_same_seed_byte_identical_checkpoints(self, corpus_dir,
                                                  tmp_path):
        common = ["train", "--train-tsv", str(corpus_dir / "train.tsv"),
                  "--stage", "stage1", "--seed", "11", "--d-model", "16",
                  "--d-ff", "32", "--heads", "2", "--max-len", "16",
                  "--dropout", "0.0"]
        # tiny run: override epochs through a config file
        cfg = tmp_path / "c.cfg"
        cfg.write_text("stage1.epochs = 1\n", encoding="utf-8")
        assert run(common + ["--config", str(cfg), "--seed", "11",
                             "--out", str(tmp_path / "a")]) == 0
        assert run(common + ["--config", str(cfg), "--seed", "11",
                             "--out", str(tmp_path / "b")]) == 0
        for f in ("weights.bin", "manifest.tsv", "config.txt", "vocab.txt"):
            assert (tmp_path / "a" / f).read_bytes() == \
                   (tmp_path / "b" / f).read_bytes()

    def test_bad_config_key_is_data_error(self, corpus_dir, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("frobnicate = 1\n", encoding="utf-8")
        rc = run(["train", "--train-tsv", str(corpus_dir / "train.tsv"),
                  "--out", str(tmp_path / "ck"), "--config", str(cfg),
                  "--stage", "stage1"])
        assert rc == 2

    def test_int8_init_is_exit_two(self, corpus_dir, checkpoint_dir,
                                   tmp_path, capsys):
        ck = tmp_path / "int8"
        save_checkpoint(quantize_model(load_checkpoint(checkpoint_dir)), ck)
        for stage in ("stage1", "stage2", "both"):
            capsys.readouterr()
            rc = run(["train", "--train-tsv", str(corpus_dir / "train.tsv"),
                      "--clean-tsv", str(corpus_dir / "clean.tsv"),
                      "--stage", stage, "--init-from", str(ck),
                      "--out", str(tmp_path / "out")])
            assert rc == 2
            assert "int8" in _one_error_line(capsys)
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--heads", "0", "n_heads"), ("--d-model", "-4", "d_model"),
        ("--dropout", "1.0", "dropout_prob"),
        ("--dropout", "-0.5", "dropout_prob")])
    def test_bad_model_config_is_exit_two(self, flag, value, field,
                                          corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("stage1.epochs = 1\n", encoding="utf-8")
        capsys.readouterr()
        rc = run(["train", "--train-tsv", str(corpus_dir / "train.tsv"),
                  "--stage", "stage1", "--config", str(cfg),
                  "--out", str(tmp_path / "out"), flag, value])
        assert rc == 2
        assert field in _one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["stage1.lr = inf", "stage1.lr = nan",
                                      "weight_decay = nan"])
    def test_non_finite_step_is_exit_two(self, line, corpus_dir, tmp_path,
                                         capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"stage1.epochs = 1\n{line}\n", encoding="utf-8")
        capsys.readouterr()
        rc = run(["train", "--train-tsv", str(corpus_dir / "train.tsv"),
                  "--stage", "stage1", "--config", str(cfg),
                  "--out", str(tmp_path / "out")] + TINY_MODEL)
        assert rc == 2
        assert "after the optimizer step" in _one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,message", [
        ("stage1.batch_size = 0", "stage1: batch_size must be an integer"),
        ("stage2.epochs = -1", "stage2: epochs must be an integer >= 0"),
        ("stage1.epochs = x", "stage1.epochs = 'x'"),
        ("stage1.lr = -0.01", "stage1: lr must be > 0, got -0.01"),
        ("weight_decay = -1", "weight_decay must be >= 0, got -1.0")])
    def test_bad_loop_config_is_exit_two(self, line, message, corpus_dir,
                                         tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        capsys.readouterr()
        rc = run(["train", "--train-tsv", str(corpus_dir / "train.tsv"),
                  "--stage", "stage1", "--config", str(cfg),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in _one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_split_leaving_no_training_pair_is_exit_two(self, corpus_dir,
                                                        tmp_path, capsys):
        clean = tmp_path / "clean.tsv"
        clean.write_text("".join(ln + "\n" for ln in read(
            corpus_dir / "clean.tsv").splitlines()[:20]), encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("stage2.val_fraction = 0.99\n", encoding="utf-8")
        capsys.readouterr()
        rc = run(["train", "--clean-tsv", str(clean), "--stage", "stage2",
                  "--config", str(cfg), "--out", str(tmp_path / "out")]
                 + TINY_MODEL)
        assert rc == 2
        assert ("stage2.val_fraction 0.99 holds out 20 of 20 clean pairs"
                in _one_error_line(capsys))
        assert not (tmp_path / "out").exists()

    def test_stage1_requires_train_tsv(self, tmp_path):
        assert run(["train", "--out", str(tmp_path / "ck"),
                    "--stage", "stage1"]) == 1

    @pytest.mark.parametrize("pair,n", LONG_PAIRS, ids=["source", "target"])
    def test_over_long_pair_is_named_before_training(
            self, pair, n, corpus_dir, tmp_path, capsys, monkeypatch):
        clean, lines = _with_last_line(corpus_dir / "clean.tsv", pair,
                                       tmp_path)
        stage1 = []
        monkeypatch.setattr(cli, "train_stage1",
                            lambda *a: stage1.append(a))
        capsys.readouterr()
        rc = run(["train", "--train-tsv", str(corpus_dir / "train.tsv"),
                  "--clean-tsv", str(clean), "--out", str(tmp_path / "out")]
                 + TINY_MODEL)
        assert rc == 2
        assert _one_error_line(capsys) == (
            f"error: {clean}: line {lines}: sequence length {n} exceeds "
            f"max_len 32\n")
        assert stage1 == []
        assert not (tmp_path / "out").exists()


TINY_MODEL = ["--d-model", "16", "--d-ff", "32", "--heads", "2"]
TEACHER = (Path(__file__).resolve().parents[1] / "perfbench" / "artifacts"
           / "teacher")


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ")
    return err


class TestBadInputFiles:
    """An input file that is missing or not UTF-8 is a data error: exit
    code 2 and one line on stderr, never a traceback."""

    # argv templates: {missing} is a path that does not exist, {latin1} a
    # file holding Latin-1 bytes, {ck} a trained checkpoint, {crf} a CRF
    CASES = {
        "translate-input-missing": ["translate", "--checkpoint", "{ck}",
                                    "--input", "{missing}"],
        "translate-input-latin1": ["translate", "--checkpoint", "{ck}",
                                   "--input", "{latin1}"],
        "detect-lang-input-latin1": ["detect-lang", "--model", "{crf}",
                                     "--input", "{latin1}"],
        "detect-lang-model-missing": ["detect-lang", "--model", "{missing}",
                                      "--input", "{latin1}"],
        "translit-dict-missing": ["translit", "--dict", "{missing}"],
        "translit-dict-latin1": ["translit", "--dict", "{latin1}"],
        "train-langid-conll-missing": ["train-langid", "--conll",
                                       "{missing}", "--out", "{out}"],
        "train-langid-conll-latin1": ["train-langid", "--conll", "{latin1}",
                                      "--out", "{out}"],
        "train-tsv-missing": ["train", "--train-tsv", "{missing}",
                              "--stage", "stage1", "--out", "{out}"],
        "train-config-missing": ["train", "--config", "{missing}",
                                 "--stage", "stage1", "--out", "{out}"],
        "eval-bleu-candidates-missing": ["eval-bleu", "--candidates",
                                         "{missing}", "--references",
                                         "{latin1}"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_two_with_one_line(self, case, checkpoint_dir, tmp_path,
                                    capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("café kala\tjuta\n".encode("latin-1"))
        crf = tmp_path / "crf.json"
        crf.write_text(json.dumps({"features": ["0:1:a"],
                                   "weights": [[0.0, 0.0, 0.0]],
                                   "transitions": [[0.0] * 3] * 3}),
                       encoding="utf-8")
        paths = {"missing": tmp_path / "missing.txt", "latin1": latin1,
                 "ck": checkpoint_dir, "crf": crf, "out": tmp_path / "out"}
        argv = [a.format(**{k: str(v) for k, v in paths.items()})
                for a in self.CASES[case]]
        capsys.readouterr()
        assert run(argv) == 2
        err = _one_error_line(capsys)
        assert ("missing.txt" in err) or ("not valid UTF-8" in err)

    @pytest.mark.parametrize("fname", ["vocab.txt", "manifest.tsv"])
    def test_non_utf8_checkpoint_text_is_exit_two(self, fname,
                                                  checkpoint_dir, tmp_path,
                                                  capsys):
        ck = tmp_path / "ck"
        shutil.copytree(checkpoint_dir, ck)
        with open(ck / fname, "ab") as fh:
            fh.write(b"\xff\n")
        inp = tmp_path / "in.txt"
        inp.write_text("a b\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["translate", "--checkpoint", str(ck), "--input",
                    str(inp), "--output", str(tmp_path / "out.txt")]) == 2
        err = _one_error_line(capsys)
        assert fname in err and "not valid UTF-8" in err

    @pytest.mark.parametrize("key,value", [("n_heads", "0"),
                                           ("d_model", "sixty-four"),
                                           ("dropout_prob", "2.0")])
    def test_bad_checkpoint_config_is_exit_two(self, key, value,
                                               checkpoint_dir, tmp_path,
                                               capsys):
        ck = tmp_path / "ck"
        shutil.copytree(checkpoint_dir, ck)
        lines = [f"{key} = {value}" if ln.startswith(f"{key} =") else ln
                 for ln in read(ck / "config.txt").splitlines()]
        (ck / "config.txt").write_text("\n".join(lines) + "\n",
                                       encoding="utf-8")
        inp = tmp_path / "in.txt"
        inp.write_text("a b\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["translate", "--checkpoint", str(ck), "--input",
                    str(inp), "--output", str(tmp_path / "out.txt")]) == 2
        err = _one_error_line(capsys)
        assert "config.txt" in err and (key in err or value in err)


def _as_int8(manifest_line: str) -> str:
    """The manifest line with its tensor stored as int8 at scale 0.01."""
    name, _, shape, offset, _ = manifest_line.split("\t")
    return "\t".join([name, "i8", shape, offset, "0.01"])


class TestCorruptCheckpoint:
    """Each way a checkpoint's text files can be damaged is exit code 2
    with one error line naming the problem."""

    # file -> its edited lines, and the message
    CASES = {
        "bad-config-line": ("config.txt", lambda ls: ls + ["no equals"],
                            "bad key-value line"),
        "unknown-format": (
            "config.txt", lambda ls: ["format = seq2seq-v0"] + ls[1:],
            "unknown checkpoint format 'seq2seq-v0'"),
        "missing-config-key": (
            "config.txt", lambda ls: [ln for ln in ls
                                      if not ln.startswith("d_ff =")],
            "config.txt missing key 'd_ff'"),
        "bad-manifest-line": ("manifest.tsv",
                              lambda ls: ls + ["tok_emb\tf32"],
                              "bad manifest line"),
        "unexpected-tensor": (
            "manifest.tsv", lambda ls: ["tok_embedding" + ls[0][7:]] + ls[1:],
            "unexpected tensor 'tok_embedding'"),
        # the first tensor's bytes stay in weights.bin, so no byte trails
        "missing-tensor": ("manifest.tsv", lambda ls: ls[1:],
                           "manifest missing tensors: ['tok_emb']"),
        # enc_pos listed again over dec_pos's bytes
        "duplicate-tensor": (
            "manifest.tsv",
            lambda ls: ls[:3] + ["\t".join(ls[1].split("\t")[:3]
                                           + ls[2].split("\t")[3:])] + ls[3:],
            "tensor 'enc_pos' listed twice"),
        # quantization keeps embeddings and 1-D tensors in float32
        "int8-embedding": (
            "manifest.tsv", lambda ls: [_as_int8(ls[0])] + ls[1:],
            "tensor 'tok_emb' is int8, but quantization keeps it float32"),
        "int8-layer-norm-gain": (
            "manifest.tsv",
            lambda ls: [_as_int8(ln) if ln.startswith("enc0.ln1.g\t") else ln
                        for ln in ls],
            "tensor 'enc0.ln1.g' is int8, but quantization keeps it float32"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_two_with_one_line(self, case, checkpoint_dir, tmp_path,
                                    capsys):
        fname, edit, message = self.CASES[case]
        ck = tmp_path / "ck"
        shutil.copytree(checkpoint_dir, ck)
        lines = read(ck / fname).splitlines()
        assert lines[0].startswith("format =" if fname == "config.txt"
                                   else "tok_emb\t")
        (ck / fname).write_text("".join(ln + "\n" for ln in edit(lines)),
                                encoding="utf-8")
        inp = tmp_path / "in.txt"
        inp.write_text("a b\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["translate", "--checkpoint", str(ck), "--input",
                    str(inp), "--output", str(tmp_path / "out.txt")]) == 2
        assert message in _one_error_line(capsys)
        assert not (tmp_path / "out.txt").exists()

    def test_non_finite_weight_is_exit_two(self, checkpoint_dir, tmp_path,
                                           capsys):
        ck = tmp_path / "ck"
        shutil.copytree(checkpoint_dir, ck)
        offset = next(int(ln.split("\t")[3])
                      for ln in read(ck / "manifest.tsv").splitlines()
                      if ln.startswith("enc0.attn.wq\t"))
        blob = bytearray((ck / "weights.bin").read_bytes())
        blob[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
        (ck / "weights.bin").write_bytes(bytes(blob))
        inp = tmp_path / "in.txt"
        inp.write_text("a b\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["translate", "--checkpoint", str(ck), "--input",
                    str(inp), "--output", str(tmp_path / "out.txt")]) == 2
        assert (_one_error_line(capsys)
                == f"error: {ck}: tensor 'enc0.attn.wq' holds NaN or Inf\n")
        assert not (tmp_path / "out.txt").exists()


def _teacher_queries(n: int) -> list[str]:
    """Queries the committed teacher (read only) translates to non-empty
    finished outputs."""
    reference = json.loads(read(TEACHER.parent / "reference.json"))
    return [q for q in sorted(reference) if reference[q]["f32"]][:n]


def _options(command: str) -> dict[str, tuple]:
    """Each option of a subcommand's parser: its dest, default, type,
    whether it is required, its choices and nargs."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[-1]: (a.dest, a.default, a.type, a.required,
                                   a.choices, a.nargs)
            for a in sub.choices[command]._actions if a.dest != "help"}


def _model_options(layers: int) -> dict[str, tuple]:
    return {"--enc-layers": ("enc_layers", layers, int, False, None, None),
            "--dec-layers": ("dec_layers", layers, int, False, None, None),
            "--d-model": ("d_model", 64, int, False, None, None),
            "--heads": ("heads", 4, int, False, None, None),
            "--d-ff": ("d_ff", 256, int, False, None, None),
            "--dropout": ("dropout", 0.1, float, False, None, None)}


class TestModelFlags:
    def test_train_options(self):
        assert _options("train") == {
            "--train-tsv": ("train_tsv", None, None, False, None, None),
            "--clean-tsv": ("clean_tsv", None, None, False, None, None),
            "--out": ("out", None, None, True, None, None),
            "--stage": ("stage", "both", None, False,
                        ("stage1", "stage2", "both"), None),
            "--config": ("config", None, None, False, None, None),
            "--seed": ("seed", None, int, False, None, None),
            "--init-from": ("init_from", None, None, False, None, None),
            "--report": ("report", None, None, False, None, None),
            "--max-len": ("max_len", 32, int, False, None, None),
            **_model_options(layers=2)}

    def test_distill_options(self):
        # no --max-len: the student takes the teacher's
        assert _options("distill") == {
            "--teacher": ("teacher", None, None, True, None, None),
            "--clean-tsv": ("clean_tsv", None, None, True, None, None),
            "--pool": ("pool", None, None, True, None, None),
            "--kd": ("kd", "js", None, False, ("ce", "js"), None),
            "--out": ("out", None, None, True, None, None),
            "--epochs": ("epochs", 4, int, False, None, None),
            "--lr": ("lr", 1e-3, float, False, None, None),
            "--batch-size": ("batch_size", 64, int, False, None, None),
            "--lam": ("lam", 0.5, float, False, None, None),
            "--beam": ("beam", 3, int, False, None, None),
            "--seed": ("seed", 0, int, False, None, None),
            "--quantize": ("quantize", False, None, False, None, 0),
            "--report": ("report", None, None, False, None, None),
            **_model_options(layers=1)}


class TestDistillCli:
    def test_student_is_the_flags_model(self, tmp_path):
        """The checkpoint equals, byte for byte, the student that
        train_student trains from the flags' config written out by hand."""
        queries = _teacher_queries(12)
        pool, clean = tmp_path / "pool.txt", tmp_path / "clean.tsv"
        pool.write_text("".join(q + "\n" for q in queries), encoding="utf-8")
        clean.write_text("".join(f"{q}\t{q}\n" for q in queries),
                         encoding="utf-8")
        assert run(["distill", "--teacher", str(TEACHER), "--clean-tsv",
                    str(clean), "--pool", str(pool), "--out",
                    str(tmp_path / "cli"), "--epochs", "1", "--seed", "3",
                    "--dropout", "0.2"] + TINY_MODEL) == 0
        teacher = load_checkpoint(TEACHER)
        config = Seq2SeqConfig(vocab=teacher.config.vocab, n_enc_layers=1,
                               n_dec_layers=1, d_model=16, n_heads=2,
                               d_ff=32, max_len=teacher.config.max_len,
                               dropout_prob=0.2)
        student, _ = train_student(
            config, teacher, load_parallel_tsv(clean), queries, KDKind.JS, make_rng(3), DistillConfig(epochs=1))
        save_checkpoint(student, tmp_path / "api")
        for f in ("weights.bin", "manifest.tsv", "config.txt", "vocab.txt"):
            assert (tmp_path / "cli" / f).read_bytes() == \
                   (tmp_path / "api" / f).read_bytes()

    @pytest.mark.parametrize("pair,n", LONG_PAIRS, ids=["source", "target"])
    def test_over_long_clean_pair_is_named_before_training(
            self, pair, n, tmp_path, capsys, monkeypatch):
        queries = _teacher_queries(12)
        pool = tmp_path / "pool.txt"
        pool.write_text("".join(q + "\n" for q in queries), encoding="utf-8")
        tsv = tmp_path / "q.tsv"
        tsv.write_text("".join(f"{q}\t{q}\n" for q in queries),
                       encoding="utf-8")
        clean, lines = _with_last_line(tsv, pair, tmp_path)
        trained = []
        monkeypatch.setattr(cli, "train_student",
                            lambda *a, **k: trained.append(a))
        capsys.readouterr()
        rc = run(["distill", "--teacher", str(TEACHER), "--clean-tsv",
                  str(clean), "--pool", str(pool),
                  "--out", str(tmp_path / "student")] + TINY_MODEL)
        assert rc == 2
        assert _one_error_line(capsys) == (
            f"error: {clean}: line {lines}: sequence length {n} exceeds "
            f"max_len 32\n")
        assert trained == []
        assert not (tmp_path / "student").exists()
    @pytest.mark.parametrize("quantize", [False, True],
                             ids=["float32", "int8"])
    def test_writes_a_student_that_translates(self, quantize, tmp_path,
                                              capsys):
        queries = _teacher_queries(12)
        pool, clean = tmp_path / "pool.txt", tmp_path / "clean.tsv"
        pool.write_text("".join(q + "\n" for q in queries), encoding="utf-8")
        clean.write_text("".join(f"{q}\t{q}\n" for q in queries),
                         encoding="utf-8")
        student, report = tmp_path / "student", tmp_path / "report.jsonl"
        capsys.readouterr()
        rc = run(["distill", "--teacher", str(TEACHER), "--clean-tsv",
                  str(clean), "--pool", str(pool), "--out", str(student),
                  "--epochs", "2", "--report", str(report)] + TINY_MODEL
                 + (["--quantize"] if quantize else []))
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        records = [json.loads(ln) for ln in read(report).splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]
        assert all(set(r) == {"epoch", "loss_s", "loss_d", "loss_kd"}
                   for r in records)
        assert out == [json.dumps(r) for r in records] + [
            f"student checkpoint written to {student}"]

        model = load_checkpoint(student)
        assert type(model) is Seq2SeqModel and model.quantized == quantize
        assert model.model_id == "seq2seq-1x1-d16" + ("-int8" if quantize
                                                      else "")
        inp, got = tmp_path / "in.txt", tmp_path / "out.txt"
        inp.write_text("".join(q + "\n" for q in queries[:4]),
                       encoding="utf-8")
        assert run(["translate", "--checkpoint", str(student), "--input",
                    str(inp), "--output", str(got)]) == 0
        assert read(got).splitlines() == [translate(model, q)
                                          for q in queries[:4]]

    def test_int8_teacher_checkpoint(self, tmp_path, capsys, monkeypatch):
        # the pseudo-labels are the int8 teacher's own translations, and a
        # second run with the same seed writes the same bytes
        teacher = tmp_path / "teacher"
        save_checkpoint(quantize_model(load_checkpoint(TEACHER)), teacher)
        queries = _teacher_queries(12)
        pool, clean = tmp_path / "pool.txt", tmp_path / "clean.tsv"
        pool.write_text("".join(q + "\n" for q in queries), encoding="utf-8")
        clean.write_text("".join(f"{q}\t{q}\n" for q in queries),
                         encoding="utf-8")
        labelled = []
        real = distill_mod.generate_pseudo_labels

        def spy(model, sources, **kw):
            out = real(model, sources, **kw)
            labelled.append((model, out[0]))
            return out

        monkeypatch.setattr(distill_mod, "generate_pseudo_labels", spy)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(["distill", "--teacher", str(teacher), "--clean-tsv",
                        str(clean), "--pool", str(pool), "--out",
                        str(out / "student"), "--report",
                        str(out / "report.jsonl"), "--epochs", "2",
                        "--seed", "4"] + TINY_MODEL) == 0
        capsys.readouterr()
        for model, pseudo in labelled:
            assert model.model_id.endswith("-int8") and pseudo
            assert [ex.target for ex in pseudo] == translate_corpus(
                load_checkpoint(teacher), [ex.source for ex in pseudo])
        records = [json.loads(ln) for ln in
                   read(outs[0] / "report.jsonl").splitlines()]
        assert len(records) == 2
        assert all(np.isfinite(r[k]) for r in records
                   for k in ("loss_s", "loss_d", "loss_kd"))
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                       if p.is_file())
        assert len(files) == 5
        for f in files:
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f

    def test_no_usable_pseudo_labels_is_exit_two(self, tmp_path, capsys):
        # the committed teacher translates this query to nothing
        reference = json.loads(read(TEACHER.parent / "reference.json"))
        assert reference["beboero"]["f32"] == []
        pool, clean = tmp_path / "pool.txt", tmp_path / "clean.tsv"
        pool.write_text("beboero\n", encoding="utf-8")
        clean.write_text("beboero\tbeboero\n", encoding="utf-8")
        capsys.readouterr()
        rc = run(["distill", "--teacher", str(TEACHER), "--clean-tsv",
                  str(clean), "--pool", str(pool),
                  "--out", str(tmp_path / "student")] + TINY_MODEL)
        assert rc == 2
        assert "teacher produced no usable pseudo-labels" in \
            _one_error_line(capsys)
        assert not (tmp_path / "student").exists()

    @pytest.mark.parametrize("lam", ["1.5", "-0.1"])
    def test_lambda_outside_unit_interval_is_exit_two(self, lam, tmp_path,
                                                      capsys):
        rc = run(["distill", "--teacher", str(tmp_path / "teacher"),
                  "--clean-tsv", str(tmp_path / "clean.tsv"),
                  "--pool", str(tmp_path / "pool.txt"),
                  "--out", str(tmp_path / "student"), "--lam", lam])
        assert rc == 2
        assert "lambda must be in [0, 1]" in _one_error_line(capsys)

    def test_bad_batch_size_is_exit_two(self, tmp_path, capsys):
        rc = run(["distill", "--teacher", str(tmp_path / "teacher"),
                  "--clean-tsv", str(tmp_path / "clean.tsv"),
                  "--pool", str(tmp_path / "pool.txt"),
                  "--out", str(tmp_path / "student"), "--batch-size", "0"])
        assert rc == 2
        assert "batch_size must be an integer >= 1" in _one_error_line(capsys)

    def test_non_finite_lr_is_exit_two(self, tmp_path, capsys):
        queries = _teacher_queries(12)
        pool, clean = tmp_path / "pool.txt", tmp_path / "clean.tsv"
        pool.write_text("".join(q + "\n" for q in queries), encoding="utf-8")
        clean.write_text("".join(f"{q}\t{q}\n" for q in queries),
                         encoding="utf-8")
        capsys.readouterr()
        rc = run(["distill", "--teacher", str(TEACHER), "--clean-tsv",
                  str(clean), "--pool", str(pool),
                  "--out", str(tmp_path / "student"), "--lr", "nan",
                  "--epochs", "1"] + TINY_MODEL)
        assert rc == 2
        assert "after the optimizer step" in _one_error_line(capsys)
        assert not (tmp_path / "student").exists()


class TestUnwritableOutput:
    """An output path that cannot be written is exit code 2 with one
    error line, never an OSError traceback."""

    # {nodir} is a directory that does not exist, {file} a regular file
    CASES = {
        "translate-output": ["translate", "--checkpoint", "{ck}",
                             "--input", "{queries}",
                             "--output", "{nodir}/out.txt"],
        "train-out-is-a-file": ["train", "--train-tsv", "{train}",
                                "--stage", "stage1", "--config", "{cfg}",
                                "--out", "{file}"] + TINY_MODEL,
        "train-langid-out": ["train-langid", "--conll", "{conll}",
                             "--epochs", "1", "--out", "{nodir}/crf.json"],
        "eval-bleu-report": ["eval-bleu", "--candidates", "{queries}",
                             "--references", "{queries}",
                             "--report", "{nodir}/bleu.jsonl"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_two_with_one_line(self, case, corpus_dir, checkpoint_dir,
                                    tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("a b\n", encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("stage1.epochs = 1\n", encoding="utf-8")
        regular = tmp_path / "regular"
        regular.write_text("", encoding="utf-8")
        paths = {"ck": checkpoint_dir, "queries": queries, "cfg": cfg,
                 "train": corpus_dir / "train.tsv", "file": regular,
                 "conll": corpus_dir / "langid.conll",
                 "nodir": tmp_path / "missing"}
        argv = [a.format(**{k: str(v) for k, v in paths.items()})
                for a in self.CASES[case]]
        capsys.readouterr()
        assert run(argv) == 2
        err = _one_error_line(capsys)
        assert "missing" in err or "regular" in err


class TestBadArguments:
    """A flag or config value no run can use is exit code 2 with one error
    line, and nothing is written."""

    # {ck} a trained checkpoint, {queries} two queries around a blank line,
    # {blank} only a blank line, {seedcfg} a training config with seed = -1,
    # {clean} a clean corpus for the committed teacher, {out} the output
    CASES = {
        "translate-max-len-0": (
            ["translate", "--checkpoint", "{ck}", "--input", "{queries}",
             "--output", "{out}", "--max-len", "0"],
            "max_len must be an integer >= 1"),
        "translate-blank-input-max-len-0": (
            ["translate", "--checkpoint", "{ck}", "--input", "{blank}",
             "--output", "{out}", "--max-len", "0"],
            "max_len must be an integer >= 1"),
        "bench-latency-max-len-negative": (
            ["bench-latency", "--checkpoint", "{ck}", "--queries",
             "{queries}", "--max-len", "-1", "--report", "{out}"],
            "max_len must be an integer >= 1"),
        "train-seed-negative": (
            ["train", "--train-tsv", "{train}", "--stage", "stage1",
             "--seed", "-1", "--out", "{out}"] + TINY_MODEL,
            "seed must be an integer >= 0, got -1"),
        "train-config-seed-negative": (
            ["train", "--train-tsv", "{train}", "--stage", "stage1",
             "--config", "{seedcfg}", "--out", "{out}"] + TINY_MODEL,
            "seed must be an integer >= 0, got -1"),
        "distill-seed-negative": (
            ["distill", "--teacher", "{teacher}", "--clean-tsv", "{clean}",
             "--pool", "{queries}", "--seed", "-3", "--out", "{out}"],
            "seed must be an integer >= 0, got -3"),
        "distill-lr-negative": (
            ["distill", "--teacher", "{teacher}", "--clean-tsv", "{clean}",
             "--pool", "{queries}", "--lr", "-0.5", "--out", "{out}"],
            "lr must be > 0, got -0.5"),
        "train-langid-epochs-negative": (
            ["train-langid", "--conll", "{conll}", "--epochs", "-1",
             "--out", "{out}"], "epochs must be an integer >= 1, got -1"),
        "train-langid-l2-negative": (
            ["train-langid", "--conll", "{conll}", "--l2", "-1",
             "--out", "{out}"], "l2 must be a finite number >= 0, got -1.0"),
        "train-langid-l2-nan": (
            ["train-langid", "--conll", "{conll}", "--l2", "nan",
             "--out", "{out}"], "l2 must be a finite number >= 0, got nan"),
        "gen-corpus-n-train-negative": (
            ["gen-corpus", "--out", "{out}", "--n-train", "-1"],
            "--n-train must be an integer >= 0, got -1"),
        "gen-corpus-negative-counts": (
            ["gen-corpus", "--out", "{out}", "--n-train", "10",
             "--n-test", "-3", "--n-clean", "-2", "--langid-n", "-4"],
            "--n-test must be an integer >= 0, got -3"),
        "gen-corpus-n-clean-negative": (
            ["gen-corpus", "--out", "{out}", "--n-train", "10",
             "--n-clean", "-2"], "--n-clean must be an integer >= 0, got -2"),
        "gen-corpus-langid-n-negative": (
            ["gen-corpus", "--out", "{out}", "--n-train", "10",
             "--langid-n", "-4"], "--langid-n must be an integer >= 0, got -4"),
        "analyze-xattn-epochs-0": (
            ["analyze-xattn", "--epochs", "0", "--report", "{out}"],
            "epochs must be an integer >= 1, got 0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_two_with_one_line(self, case, corpus_dir, checkpoint_dir,
                                    tmp_path, capsys):
        queries, blank = tmp_path / "queries.txt", tmp_path / "blank.txt"
        queries.write_text("kala juta\n\nred shoe\n", encoding="utf-8")
        blank.write_text("\n", encoding="utf-8")
        seedcfg, clean = tmp_path / "seed.cfg", tmp_path / "clean.tsv"
        seedcfg.write_text("stage1.epochs = 1\nseed = -1\n", encoding="utf-8")
        clean.write_text("kala juta\tblack shoe\n", encoding="utf-8")
        paths = {"ck": checkpoint_dir, "queries": queries, "blank": blank,
                 "seedcfg": seedcfg, "clean": clean, "teacher": TEACHER,
                 "train": corpus_dir / "train.tsv",
                 "conll": corpus_dir / "langid.conll",
                 "out": tmp_path / "out"}
        argv, message = self.CASES[case]
        argv = [a.format(**{k: str(v) for k, v in paths.items()})
                for a in argv]
        capsys.readouterr()
        assert run(argv) == 2
        assert message in _one_error_line(capsys)
        assert not (tmp_path / "out").exists()


class TestBlankInputLines:
    """translate, detect-lang and translit write output line i for input
    line i: a blank input line gets an empty output line."""

    def _run(self, argv, lines, tmp_path) -> list[str]:
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inp.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        assert run(argv + ["--input", str(inp), "--output", str(out)]) == 0
        return read(out).splitlines()

    def test_translate(self, corpus_dir, checkpoint_dir, tmp_path):
        srcs = [ln.split("\t")[0] for ln in
                read(corpus_dir / "test.tsv").splitlines()[:3]]
        got = self._run(["translate", "--checkpoint", str(checkpoint_dir),
                         "--max-len", "12"],
                        ["", srcs[0], "", srcs[1], "   ", srcs[2]], tmp_path)
        want = translate_corpus(load_checkpoint(checkpoint_dir), srcs,
                                max_len=12)
        assert got == ["", want[0], "", want[1], "", want[2]]

    def test_detect_lang(self, corpus_dir, tmp_path):
        crf = tmp_path / "crf.json"
        assert run(["train-langid", "--conll", str(corpus_dir / "langid.conll"),
                    "--epochs", "1", "--out", str(crf)]) == 0
        queries = ["radata zipaxu", "red shoe", "kala juta"]
        got = self._run(["detect-lang", "--model", str(crf)],
                        [queries[0], "", queries[1], "\t", queries[2]],
                        tmp_path)
        model = load_crf(crf)
        want = [detect_query_language(model, q).value for q in queries]
        assert got == [want[0], "", want[1], "", want[2]]

    def test_translit(self, tmp_path):
        d = tmp_path / "d.tsv"
        d.write_text("juta\tjoota\nkala\tkaala\n", encoding="utf-8")
        got = self._run(["translit", "--dict", str(d)],
                        ["kala juta", "", "juta", " "], tmp_path)
        assert got == ["kaala joota", "", "joota", ""]


class TestTranslateLineTooLong:
    def test_error_names_the_line(self, tmp_path, capsys):
        # line 1 is blank, line 2 holds 40 words: 41 ids with EOS > 32
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inp.write_text("\n" + " ".join(["kala"] * 40) + "\nkala juta\n",
                       encoding="utf-8")
        capsys.readouterr()
        rc = run(["translate", "--checkpoint", str(TEACHER), "--input",
                  str(inp), "--output", str(out)])
        assert rc == 2
        assert _one_error_line(capsys) == (
            "error: line 2: sequence length 41 exceeds max_len 32\n")
        assert not out.exists()


class TestBenchLatencyCli:
    def test_prints_percentiles_and_writes_report(self, checkpoint_dir,
                                                  tmp_path, capsys):
        queries, report = tmp_path / "q.txt", tmp_path / "lat.jsonl"
        queries.write_text("kala juta\nred shoe\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["bench-latency", "--checkpoint", str(checkpoint_dir),
                    "--queries", str(queries), "--report", str(report)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("model=seq2seq-2x2-d32 p50=")
        assert "(200 samples, hardware: " in line
        (rec,) = [json.loads(ln) for ln in read(report).splitlines()]
        assert rec["model"] == "seq2seq-2x2-d32"
        assert rec["n_samples"] == 200
        assert 0 < rec["p50_ms"] <= rec["p95_ms"]
        assert f"p50={rec['p50_ms']:.2f}ms" in line

    def test_line_prints_the_reported_numbers(self, checkpoint_dir, tmp_path,
                                              capsys, monkeypatch):
        # a raw p50 of 0.6349996 formats as 0.63; the report holds its
        # rounding 0.635, which formats as 0.64, and the line must agree
        rep = LatencyReport("m", "hw", [0.6] * 200, 0.6349996, 1.2349996)
        monkeypatch.setattr(cli, "bench_latency", lambda *a, **k: rep)
        queries, report = tmp_path / "q.txt", tmp_path / "lat.jsonl"
        queries.write_text("kala juta\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["bench-latency", "--checkpoint", str(checkpoint_dir),
                    "--queries", str(queries), "--report", str(report)]) == 0
        line = capsys.readouterr().out.strip()
        (rec,) = [json.loads(ln) for ln in read(report).splitlines()]
        assert (rec["p50_ms"], rec["p95_ms"]) == (0.635, 1.235)
        assert line == ("model=m p50=0.64ms p95=1.24ms "
                        "(200 samples, hardware: hw)")


class TestAnalyzeXattnCli:
    def test_prints_layer_epoch_records(self, tmp_path, capsys):
        report = tmp_path / "xattn.jsonl"
        capsys.readouterr()
        assert run(["analyze-xattn", "--seeds", "0", "--epochs", "2",
                    "--dec-layers", "2", "--n-train", "64",
                    "--report", str(report)]) == 0
        out = capsys.readouterr().out.splitlines()
        records = [json.loads(ln) for ln in out]
        assert [(r["layer"], r["epoch"]) for r in records] == [
            (0, 1), (0, 2), (1, 1), (1, 2)]
        assert all(r["error"] > 0 for r in records)
        assert read(report).splitlines() == out
