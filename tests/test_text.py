import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemix import text
from codemix.checkpoint import load_checkpoint, read_kv, save_checkpoint
from codemix.cli import _read_lines
from codemix.errors import DataError
from codemix.langid import load_token_labels
from codemix.quant import quantize_model
from codemix.seq2seq import Seq2SeqConfig, init_model
from codemix.text import (BOS, EOS, MASK, PAD, UNK, UNK_TOKEN, ParallelExample,
                          SynthTaskSpec, Vocab, build_lexicon,
                          build_vocab, decode, drop_interior_char, encode,
                          gen_clean_corpus, gen_synthetic_corpus,
                          load_parallel_tsv, save_parallel_tsv, split_lines,
                          synthetic_vocab)
from codemix.translit import load_translit_dict
from codemix.numerics import make_rng

from oracles import reference_gen_split


def benchmark_task() -> SynthTaskSpec:
    """`TASK` of perfbench/inputs.py, the task every benchmark input and
    the committed teacher come from."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TASK


def shuffle_corpus(corpus, rng):
    """The corpus in the order of one permutation drawn from `rng`."""
    order = rng.permutation(len(corpus))
    return [corpus[i] for i in order]


class TestVocab:
    def test_special_ids_fixed(self):
        v = build_vocab(["a b"], mode="word")
        assert (PAD, BOS, EOS, UNK, MASK) == (0, 1, 2, 3, 4)
        assert v.id_to_token[UNK] == "<unk>"

    def test_min_count_one_keeps_both(self):
        v = build_vocab(["a b", "a"], mode="word")
        assert "a" in v.token_to_id and "b" in v.token_to_id
        assert len(v) == 7

    def test_identical_corpus_identical_ids(self):
        texts = ["red shoe", "blue shoe", "shoe laces"]
        v1 = build_vocab(texts, mode="word")
        v2 = build_vocab(list(texts), mode="word")
        assert v1.id_to_token == v2.id_to_token

    def test_ordering_frequency_then_lexicographic(self):
        v = build_vocab(["b a c b", "b c"], mode="word")
        # b:3, c:2, a:1
        assert v.id_to_token[5:] == ["b", "c", "a"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], mode="word")

    def test_char_mode(self):
        v = build_vocab(["ab"], mode="char")
        assert decode(encode("ab", v), v) == "ab"

    def test_bijection(self):
        v = build_vocab(["x y z"], mode="word")
        assert len(v.token_to_id) == len(v.id_to_token)


class TestEncodeDecode:
    def test_empty_round_trip(self):
        v = build_vocab(["a"], mode="word")
        assert encode("", v) == []
        assert decode([], v) == ""

    def test_oov_renders_unk_marker(self):
        v = build_vocab(["a"], mode="word")
        assert decode(encode("zzz", v), v) == UNK_TOKEN

    def test_out_of_range_id_rejected(self):
        v = build_vocab(["a"], mode="word")
        with pytest.raises(DataError):
            decode([99], v)

    @given(st.lists(st.sampled_from(["red", "shoe", "lace", "cover"]),
                    min_size=0, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_in_vocab_round_trip_identity(self, words):
        v = build_vocab(["red shoe lace cover"], mode="word")
        text = " ".join(words)
        assert decode(encode(text, v), v) == text


class TestParallelTsv:
    def test_two_lines(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("a b\tc d\ne\tf\n", encoding="utf-8")
        corpus = load_parallel_tsv(p)
        assert len(corpus) == 2
        assert corpus[0].source == "a b" and corpus[0].target == "c d"

    def test_extra_tabs_name_the_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("a\tb\nx\ty\tz\tw\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_parallel_tsv(p)

    def test_blank_line_named(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("a\tb\n\nc\td\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_parallel_tsv(p)

    def test_empty_file_is_valid_empty_corpus(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("", encoding="utf-8")
        assert load_parallel_tsv(p) == []

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes(b"a\t\xff\xfe\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_parallel_tsv(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_parallel_tsv(tmp_path / "absent.tsv")

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_parallel_tsv(tmp_path)

    def test_round_trip(self, tmp_path):
        corpus = [ParallelExample("juta wala", "shoe")]
        p = tmp_path / "c.tsv"
        save_parallel_tsv(corpus, p)
        back = load_parallel_tsv(p)
        assert back[0].source == "juta wala" and back[0].target == "shoe"


class TestSplitLines:
    @pytest.mark.parametrize("text,lines", [
        ("", []), ("a", ["a"]), ("a\n", ["a"]), ("a\r\n", ["a"]),
        ("a\n\n", ["a", ""]), ("a\rb\n", ["a\rb"]),
        ("a\u2028b\n", ["a\u2028b"])],
        ids=["empty", "no-lf", "lf", "crlf", "blank-last", "mid-cr", "u2028"])
    def test_cases(self, text, lines):
        assert split_lines(text) == lines

    # a line that ends in CR loses it, so none is drawn
    @given(st.lists(st.text().map(lambda s: s.replace("\n", "").rstrip("\r")),
                    max_size=5))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_written_lines_read_back(self, lines):
        assert split_lines("".join(ln + "\n" for ln in lines)) == lines


def _line_file(text):
    """A case's writer: `text` in the file `f`, its one line file."""
    def write(d):
        (d / "f").write_text(text, encoding="utf-8")
        return ["f"]
    return write


def _int8_checkpoint(d):
    """A tiny int8 checkpoint in d/ck. Its line files are config.txt and
    manifest.tsv: vocab.txt is not cut by lines, since a token may hold a
    CR."""
    cfg = Seq2SeqConfig(vocab=Vocab(["kala", "juta"]), n_enc_layers=1,
                        n_dec_layers=1, d_model=8, n_heads=2, d_ff=16,
                        max_len=8)
    save_checkpoint(quantize_model(init_model(cfg, make_rng(0))), d / "ck")
    return ["ck/config.txt", "ck/manifest.tsv"]


def _resaved_checkpoint(d):
    save_checkpoint(load_checkpoint(d / "ck"), d / "again")
    return {f.name: f.read_bytes() for f in sorted((d / "again").iterdir())}


# each line reader -> (writes its LF files into a directory and names the
# ones read as lines; what the loaded files compare by)
LINE_READERS = {
    "parallel-tsv": (_line_file("kala juta\tblack shoe\npani\twater\n"),
                     lambda d: load_parallel_tsv(d / "f")),
    "conll": (_line_file("kala\tHI\njuta\tHI\n\nshoe\tEN\n"),
              lambda d: load_token_labels(d / "f")),
    "translit-dict": (_line_file("kala\tkaala\n\njuta\tjoota\n"),
                      lambda d: load_translit_dict(d / "f").pairs),
    "config": (_line_file("# stage 2\n\nstage2.patience = 7\n"),
               lambda d: read_kv(d / "f")),
    "checkpoint": (_int8_checkpoint, _resaved_checkpoint),
    "cli-input": (_line_file("kala juta\n\npani\n"),
                  lambda d: _read_lines(str(d / "f"), keep_blank=True)),
}


@pytest.mark.parametrize("case", sorted(LINE_READERS))
def test_crlf_file_loads_as_its_lf_file(case, tmp_path):
    write, load = LINE_READERS[case]
    got = []
    for crlf in (False, True):
        d = tmp_path / ("crlf" if crlf else "lf")
        d.mkdir()
        for name in write(d):
            data = (d / name).read_bytes()
            assert data.endswith(b"\n") and b"\r" not in data
            if crlf:
                (d / name).write_bytes(data.replace(b"\n", b"\r\n"))
        got.append(load(d))
    assert got[0] and got[0] == got[1]


class TestDropInteriorChar:
    def test_short_words_untouched(self):
        rng = make_rng(0)
        assert drop_interior_char("ab", rng) == "ab"
        assert drop_interior_char("a", rng) == "a"

    def test_first_last_preserved(self):
        rng = make_rng(1)
        for _ in range(500):
            out = drop_interior_char("battery", rng)
            assert len(out) == 6
            assert out[0] == "b" and out[-1] == "y"


class TestSyntheticGenerator:
    def test_pure_task_is_exact_lexicon_translation(self):
        spec = SynthTaskSpec(lexicon_size=20, code_mix_ratio=0.0,
                             noise_char_drop_prob=0.0,
                             pseudo_label_error_rate=0.0, seed=5)
        lex = build_lexicon(spec)
        train, _ = gen_synthetic_corpus(spec, 50)
        for ex in train:
            assert ex.source == ex.pristine_source
            assert [lex[w] for w in ex.source.split()] == ex.target.split()

    def test_full_code_mix_source_equals_target(self):
        spec = SynthTaskSpec(lexicon_size=20, code_mix_ratio=1.0,
                             noise_char_drop_prob=0.0,
                             pseudo_label_error_rate=0.0, seed=5)
        train, _ = gen_synthetic_corpus(spec, 50)
        for ex in train:
            assert ex.source == ex.target

    def test_same_seed_bit_identical(self):
        spec = SynthTaskSpec(lexicon_size=20, seed=9)
        a_train, a_test = gen_synthetic_corpus(spec, 100, 20)
        b_train, b_test = gen_synthetic_corpus(spec, 100, 20)
        assert [(e.source, e.target) for e in a_train] == \
               [(e.source, e.target) for e in b_train]
        assert [(e.source, e.target) for e in a_test] == \
               [(e.source, e.target) for e in b_test]

    def test_clean_test_recoverable_from_pristine_source(self):
        # with q=0 on the test split, target is the lexicon image of the
        # stored pre-noise source (code-mixed words map to themselves)
        spec = SynthTaskSpec(lexicon_size=15, code_mix_ratio=0.4,
                             noise_char_drop_prob=0.3, seed=2)
        lex = build_lexicon(spec)
        full = {**lex, **{t: t for t in lex.values()}}
        _, test = gen_synthetic_corpus(spec, 10, 60)
        assert test, "test split missing"
        for ex in test:
            assert [full[w] for w in ex.pristine_source.split()] == \
                ex.target.split()

    def test_train_split_noise_rate(self):
        spec = SynthTaskSpec(lexicon_size=15, code_mix_ratio=0.0,
                             noise_char_drop_prob=0.0,
                             pseudo_label_error_rate=0.3, seed=2)
        lex = build_lexicon(spec)
        train, _ = gen_synthetic_corpus(spec, 400)
        n_words = n_wrong = 0
        for ex in train:
            for w, t in zip(ex.pristine_source.split(), ex.target.split()):
                n_words += 1
                n_wrong += (lex[w] != t)
        assert 0.25 < n_wrong / n_words < 0.35

    def test_sentence_lengths_in_range(self):
        spec = SynthTaskSpec(lexicon_size=10, min_len=2, max_len=6, seed=1)
        train, _ = gen_synthetic_corpus(spec, 200)
        lens = {len(ex.target.split()) for ex in train}
        assert lens <= set(range(2, 7)) and len(lens) > 1

    def test_lexicon_is_bijection(self):
        lex = build_lexicon(SynthTaskSpec(lexicon_size=50, seed=3))
        assert len(lex) == 50
        assert len(set(lex.values())) == 50
        assert not set(lex) & set(lex.values())

    def test_vocab_covers_all_generated_forms(self):
        spec = SynthTaskSpec(lexicon_size=25, code_mix_ratio=0.5,
                             noise_char_drop_prob=0.5, seed=4)
        v = synthetic_vocab(spec)
        train, test = gen_synthetic_corpus(spec, 300, 50)
        for ex in train + test:
            for w in (ex.source + " " + ex.target).split():
                assert w in v.token_to_id, w

    def test_clean_corpus_distinct_stream(self):
        spec = SynthTaskSpec(lexicon_size=20, seed=6)
        train, _ = gen_synthetic_corpus(spec, 50)
        clean = gen_clean_corpus(spec, 50)
        lex = build_lexicon(spec)
        full = {**lex, **{t: t for t in lex.values()}}
        for ex in clean:  # clean labels: the lexicon image of the source
            assert [full[w] for w in ex.pristine_source.split()] == \
                ex.target.split()
        assert [e.source for e in clean] != [e.source for e in train]

    def test_shuffle_is_permutation(self):
        spec = SynthTaskSpec(lexicon_size=10, seed=0)
        train, _ = gen_synthetic_corpus(spec, 40)
        shuffled = shuffle_corpus(train, make_rng(3))
        key = lambda ex: (ex.source, ex.target)
        assert sorted(map(key, shuffled)) == sorted(map(key, train))
        assert [key(e) for e in shuffled] != [key(e) for e in train]

    @pytest.mark.parametrize("n", [-3, -1, 1.5, "2"])
    def test_counts_must_be_non_negative_integers(self, n):
        spec = SynthTaskSpec(lexicon_size=10)
        with pytest.raises(DataError, match="n_test must be an integer >= 0"):
            gen_synthetic_corpus(spec, 5, n_test=n)
        with pytest.raises(DataError, match="n must be an integer >= 0"):
            gen_clean_corpus(spec, n)

    def test_zero_counts_give_empty_splits(self):
        spec = SynthTaskSpec(lexicon_size=10)
        assert gen_synthetic_corpus(spec, 5, n_test=0)[1] == []
        assert gen_clean_corpus(spec, 0) == []

    @pytest.mark.parametrize("spec", [
        benchmark_task(), SynthTaskSpec(),
        SynthTaskSpec(lexicon_size=2, noise_char_drop_prob=1.0,
                      pseudo_label_error_rate=1.0, min_len=1, seed=3)],
        ids=["benchmark", "default", "edge"])
    def test_matches_reference_generator(self, spec, monkeypatch):
        """Python-int word indices and bound draw methods give the corpora
        that NumPy-integer indices gave, bit for bit."""
        def corpora():
            return (gen_synthetic_corpus(spec, 300, 50),
                    gen_clean_corpus(spec, 120), gen_clean_corpus(spec, 1, 7))
        got = corpora()
        monkeypatch.setattr(text, "_gen_split", reference_gen_split)
        assert got == corpora()

    def test_lexicon_larger_than_the_alphabet_spells_refused(self):
        """7 consonants x 3 vowels in 2 to 4 syllables spell 21**2 + 21**3
        + 21**4 source words; one more could never be generated."""
        assert SynthTaskSpec(lexicon_size=204_183).lexicon_size == 204_183
        with pytest.raises(DataError, match="lexicon_size must be at most "
                                            "204183.*got 204184"):
            SynthTaskSpec(lexicon_size=204_184)

    @pytest.mark.parametrize("seed", [-3, -1, 2.5, "2"])
    def test_seed_checked_as_given(self, seed):
        """The spec's own seed is checked, before any stream seed is
        derived from it."""
        with pytest.raises(DataError, match=re.escape(
                f"seed must be an integer >= 0, got {seed!r}") + "$"):
            SynthTaskSpec(seed=seed)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DataError):
            SynthTaskSpec(code_mix_ratio=1.5)
        with pytest.raises(DataError):
            SynthTaskSpec(lexicon_size=1)
        with pytest.raises(DataError):
            gen_synthetic_corpus(SynthTaskSpec(), 0)
