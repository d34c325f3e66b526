"""Byte- and line-level fuzzing of the file readers.

A CRF model file (as `save_crf` writes it, and indented), a CoNLL label
file, each of the four files of a seq2seq checkpoint (f32 and int8), a
parallel TSV, a transliteration dictionary and a training config file are
mutated: truncated, a bit flipped, a NUL, a BOM or invalid UTF-8 inserted, a
line duplicated or dropped, a number replaced by NaN, Inf, -0, 1e309 or a
40-digit integer. Each mutant goes through its API reader (`load_crf`,
`load_token_labels`, `load_checkpoint`, `load_parallel_tsv`,
`load_translit_dict`, `read_kv` plus `config_from_items`) and through the
CLI command that reads it (`codemix detect-lang`, `train-langid`,
`translate`, `train --clean-tsv`, `translit --dict`, `train --config`). A
mutant may load, or raise a `CodemixError`, which the CLI reports as exit
code 2 with one line on stderr; nothing else (a traceback, another
exception) is allowed. A CRF file detects queries exactly when it loads, a
checkpoint translates through the CLI exactly when it loads and translates
through the API, a parallel TSV trains exactly when it loads with the ten
pairs stage 2 needs, and a dictionary transliterates exactly when it loads
and holds every word of the input; a label file or a config that loads may
still not train. Hypothesis runs derandomized with a fixed example budget,
so the same mutants run every time.
"""

import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from codemix import checkpoint
from codemix import train as train_mod
from codemix.checkpoint import load_checkpoint, read_kv, save_checkpoint
from codemix.cli import main
from codemix.errors import CheckpointError, CodemixError
from codemix.langid import (gen_langid_corpus, load_crf, load_token_labels,
                            save_crf, save_token_labels, train_crf)
from codemix.numerics import make_rng
from codemix.quant import quantize_model
from codemix.seq2seq import Seq2SeqConfig, init_model, translate_corpus
from codemix.seq2seq.model import _param_shapes
from codemix.text import (Provenance, SynthTaskSpec, gen_clean_corpus,
                          load_parallel_tsv, save_parallel_tsv,
                          synthetic_vocab)
from codemix.train import TrainingConfig, config_from_items
from codemix.translit import load_translit_dict

FUZZ = settings(derandomize=True, max_examples=60, deadline=None,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

NUMBERS = [b"NaN", b"Infinity", b"-Infinity", b"nan", b"inf", b"-0",
           b"1e309", b"1" + b"0" * 39]
# a number that starts a JSON value or a CoNLL line, not one inside a name
NUMBER = re.compile(rb"(?<![^\[,\s])-?\d+(\.\d+)?([eE][-+]?\d+)?")
HUGE = b"1" + b"0" * 400  # an integer no float holds

MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.none()),
    st.tuples(st.just("flip"), st.integers(min_value=0),
              st.integers(0, 7)),
    st.tuples(st.just("insert"), st.integers(min_value=0),
              st.sampled_from([b"\x00", b"\xef\xbb\xbf", b"\xff",
                               b"\xc3\x28", b"\xed\xa0\x80"])),
    st.tuples(st.just("duplicate-line"), st.integers(min_value=0),
              st.none()),
    st.tuples(st.just("drop-line"), st.integers(min_value=0), st.none()),
    st.tuples(st.just("number"), st.integers(min_value=0),
              st.sampled_from(NUMBERS)),
)


def mutate(data: bytes, mutation) -> bytes:
    """`data` with one mutation applied; `at` picks the place, modulo the
    places there are."""
    kind, at, arg = mutation
    if kind == "truncate":
        return data[:at % (len(data) + 1)]
    if kind == "flip":
        i = at % len(data)
        return data[:i] + bytes([data[i] ^ (1 << arg)]) + data[i + 1:]
    if kind == "insert":
        i = at % (len(data) + 1)
        return data[:i] + arg + data[i:]
    if kind in ("duplicate-line", "drop-line"):
        lines = data.splitlines(keepends=True)
        i = at % len(lines)
        kept = [lines[i]] * 2 if kind == "duplicate-line" else []
        return b"".join(lines[:i] + kept + lines[i + 1:])
    found = list(NUMBER.finditer(data))
    if not found:
        return data
    m = found[at % len(found)]
    return data[:m.start()] + arg + data[m.end():]


def api_outcome(load, path) -> bool:
    """True if `load(path)` succeeds, False if it raises a CodemixError;
    any other exception fails the test."""
    try:
        load(path)
    except CodemixError:
        return False
    return True


def cli_outcome(argv) -> bool:
    """True on exit code 0; on exit code 2 stderr must be one error line.
    A warning (NumPy's overflow warnings, say) would be more stderr lines
    in a real run, so none may be issued."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert rc in (0, 2), err.getvalue()
    if rc == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert err.getvalue().startswith("error: ")
    return rc == 0


@pytest.fixture(scope="module")
def crf_files(tmp_path_factory):
    """The bytes of a small trained CRF as `save_crf` writes it, and of
    the same payload indented one item per line."""
    out = tmp_path_factory.mktemp("crf")
    model = train_crf(gen_langid_corpus(3, seed=2), epochs=1,
                      rng=make_rng(2))
    save_crf(model, out / "crf.json")
    compact = (out / "crf.json").read_bytes()
    indented = json.dumps(json.loads(compact), indent=1).encode()
    return [compact, indented]


@pytest.fixture(scope="module")
def conll_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("conll") / "q.conll"
    save_token_labels(gen_langid_corpus(6, seed=3), out)
    return out.read_bytes()


@FUZZ
@given(which=st.integers(0, 1), mutation=MUTATIONS)
@example(which=0, mutation=("number", 0, HUGE))     # the first weight
@example(which=0, mutation=("number", -1, b"-" + HUGE))  # a transition
def test_crf_file_mutants(crf_files, tmp_path, which, mutation):
    path = tmp_path / "crf.json"
    path.write_bytes(mutate(crf_files[which], mutation))
    queries = tmp_path / "q.txt"
    queries.write_text("radata zipaxu\n\n473g kala\n", encoding="utf-8")
    loads = api_outcome(load_crf, path)
    assert cli_outcome(["detect-lang", "--model", str(path), "--input",
                        str(queries), "--output",
                        str(tmp_path / "out.txt")]) == loads


@FUZZ
@given(mutation=MUTATIONS)
def test_conll_file_mutants(conll_file, tmp_path, mutation):
    path = tmp_path / "q.conll"
    path.write_bytes(mutate(conll_file, mutation))
    loads = api_outcome(load_token_labels, path)
    trains = cli_outcome(["train-langid", "--conll", str(path), "--epochs",
                          "1", "--out", str(tmp_path / "crf.json")])
    # a file that loads may still not train (an empty one holds no query)
    assert loads or not trains


CHECKPOINT_FILES = ("config.txt", "vocab.txt", "manifest.tsv", "weights.bin")
MAX_LAYERS = 1000  # far above any checkpoint written here


def _guarded_param_shapes(cfg):
    """`_param_shapes`, refusing a layer count that would exhaust memory
    listing shapes, so a loader that does not reject it fails the test."""
    layers = cfg.n_enc_layers + cfg.n_dec_layers
    assert layers <= MAX_LAYERS, f"listing the shapes of {layers} layers"
    return _param_shapes(cfg)


@pytest.fixture(autouse=True)
def guard_layer_count(monkeypatch):
    monkeypatch.setattr(checkpoint, "_param_shapes", _guarded_param_shapes)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """The files of a tiny f32 checkpoint and of its int8 copy, by name."""
    vocab = synthetic_vocab(SynthTaskSpec(lexicon_size=4, seed=5))
    model = init_model(Seq2SeqConfig(vocab=vocab, n_enc_layers=1,
                                     n_dec_layers=1, d_model=8, n_heads=2,
                                     d_ff=8, max_len=8, dropout_prob=0.0),
                       make_rng(4))
    out = []
    for m in (model, quantize_model(model)):
        path = tmp_path_factory.mktemp("ck")
        save_checkpoint(m, path)
        out.append({f: (path / f).read_bytes() for f in CHECKPOINT_FILES})
    return out


def translate_outcomes(files: dict[str, bytes], tmp_path) -> bool:
    """Write the checkpoint `files` and translate one query through the API
    and through `codemix translate`: True if both succeed, False if both
    raise a CodemixError (exit code 2)."""
    path = tmp_path / "ck"
    path.mkdir(exist_ok=True)  # one per Hypothesis run; examples rewrite it
    for name, data in files.items():
        (path / name).write_bytes(data)
    queries = tmp_path / "q.txt"
    queries.write_text("kaka tuto\n", encoding="utf-8")
    cli = cli_outcome(["translate", "--checkpoint", str(path), "--input",
                       str(queries), "--output", str(tmp_path / "out.txt")])
    api = api_outcome(lambda p: translate_corpus(load_checkpoint(p),
                                                 ["kaka tuto"]), path)
    assert cli == api
    return api


# "number" mutations: config.txt's numbers are quantized, n_enc_layers,
# n_dec_layers, ...; manifest.tsv's are each line's first dimension and
# offset (and an int8 line's scale), so 3 is enc_pos's offset in the f32
# file, whose bytes start at 1312
@FUZZ
@given(which=st.integers(0, 1), name=st.sampled_from(CHECKPOINT_FILES),
       mutation=MUTATIONS)
@example(which=0, name="config.txt", mutation=("number", 1, NUMBERS[-1]))
@example(which=1, name="config.txt", mutation=("number", 2, HUGE))
@example(which=0, name="manifest.tsv", mutation=("number", 3, b"0"))
# enc_pos[0, 0] times 2**128: finite, but the first layer norm overflows
@example(which=0, name="weights.bin", mutation=("flip", 1312 + 3, 6))
def test_checkpoint_file_mutants(checkpoints, tmp_path, which, name,
                                 mutation):
    files = dict(checkpoints[which])
    files[name] = mutate(files[name], mutation)
    translate_outcomes(files, tmp_path)


def _edit_offsets(files, edit, grow: int = 0) -> None:
    """Replace manifest.tsv's byte offsets by `edit(offsets)` and append
    `grow` zero bytes to weights.bin."""
    rows = [ln.split(b"\t") for ln in files["manifest.tsv"].splitlines()]
    for r, offset in zip(rows, edit([int(r[3]) for r in rows])):
        r[3] = b"%d" % offset
    files["manifest.tsv"] = b"".join(b"\t".join(r) + b"\n" for r in rows)
    files["weights.bin"] += b"\0" * grow


def _set_config(files, key: str, value: int) -> None:
    files["config.txt"] = re.sub(rf"(?m)^{key} = .*$".encode(),
                                 f"{key} = {value}".encode(),
                                 files["config.txt"])


# each edit of a checkpoint's files -> the start of the error it must raise
LAYOUT_CASES = {
    # enc_pos over tok_emb's first rows: the bytes it owned are never read
    "overlap": (lambda f: _edit_offsets(f, lambda o: [o[0], 0, *o[2:]]),
                "tensor 'enc_pos' starts at byte 0, not at "),
    "gap": (lambda f: _edit_offsets(
        f, lambda o: [o[0], *(x + 4 for x in o[1:])], grow=4),
        "tensor 'enc_pos' starts at byte "),
    "first-not-at-byte-0": (lambda f: _edit_offsets(
        f, lambda o: [x + 4 for x in o], grow=4),
        "tensor 'tok_emb' starts at byte 4, not at 0"),
    "huge-layer-count": (lambda f: _set_config(f, "n_enc_layers", 10 ** 39),
                         f"config.txt has {10 ** 39 + 1} layers"),
    "layers-above-tensors": (lambda f: _set_config(f, "n_dec_layers", 100),
                             "config.txt has 101 layers, manifest.tsv only"),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
@pytest.mark.parametrize("which", [0, 1], ids=["f32", "int8"])
def test_checkpoint_layout_is_checked(checkpoints, tmp_path, case, which):
    edit, message = LAYOUT_CASES[case]
    files = dict(checkpoints[which])
    edit(files)
    assert not translate_outcomes(files, tmp_path)  # exit 2 on the CLI
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(tmp_path / "ck")


# `codemix train` on a tiny model, stage 2 only: the clean pairs of a
# --clean-tsv and, with --config, the training config
TINY_TRAIN = ["train", "--stage", "stage2", "--enc-layers", "1",
              "--dec-layers", "1", "--d-model", "8", "--heads", "2",
              "--d-ff", "8", "--max-len", "16"]
MAX_EPOCHS = 2  # the most epochs a fuzzed training run takes


@pytest.fixture
def capped_epochs(monkeypatch):
    """Training runs at most MAX_EPOCHS epochs, so a config whose epoch
    count a mutation made huge still finishes."""
    fit = train_mod.fit

    def capped(*args, epochs, **kwargs):
        return fit(*args, epochs=min(epochs, MAX_EPOCHS), **kwargs)

    monkeypatch.setattr(train_mod, "fit", capped)


SPEC = SynthTaskSpec(lexicon_size=6, seed=7)


@pytest.fixture(scope="module")
def clean_tsv(tmp_path_factory):
    """A parallel TSV of 12 clean pairs, and a pair with numbers."""
    path = tmp_path_factory.mktemp("tsv") / "clean.tsv"
    save_parallel_tsv(gen_clean_corpus(SPEC, 12), path)
    with open(path, "a", encoding="utf-8") as out:
        out.write("size 10 kala\tsize 10 black\n")
    return path.read_bytes()


@FUZZ
@given(mutation=MUTATIONS)
@example(mutation=("truncate", 0, None))  # an empty file: exit 2, not 1
def test_parallel_tsv_mutants(clean_tsv, capped_epochs, tmp_path, mutation):
    path = tmp_path / "clean.tsv"
    path.write_bytes(mutate(clean_tsv, mutation))
    try:
        pairs = len(load_parallel_tsv(path, Provenance.CLEAN_MANUAL))
    except CodemixError:
        pairs = 0
    trains = cli_outcome(TINY_TRAIN + ["--clean-tsv", str(path), "--out",
                                       str(tmp_path / "ck")])
    assert trains == (pairs >= 10)  # stage 2 needs 10 pairs


DICT_WORDS = {"kala": "काला", "juta": "जूता", "Pani": "पानी", "do": "दो",
              "10": "१०"}


@pytest.fixture(scope="module")
def translit_dict():
    return "".join(f"{w}\t{t}\n" for w, t in DICT_WORDS.items()).encode()


@FUZZ
@given(mutation=MUTATIONS)
@example(mutation=("insert", 0, b"\xef\xbb\xbf"))  # a BOM before "kala"
def test_translit_dict_mutants(translit_dict, tmp_path, mutation):
    path = tmp_path / "dict.tsv"
    path.write_bytes(mutate(translit_dict, mutation))
    words = "kala juta 10", "PANI do"
    queries = tmp_path / "q.txt"
    queries.write_text("\n".join(words) + "\n", encoding="utf-8")
    try:
        tdict = load_translit_dict(path)
    except CodemixError:
        tdict = None
    covered = tdict is not None and all(
        tdict.lookup(w) is not None for text in words for w in text.split())
    assert cli_outcome(["translit", "--dict", str(path), "--input",
                        str(queries), "--output",
                        str(tmp_path / "out.txt")]) == covered


@pytest.fixture(scope="module")
def train_config():
    """Every key of a training config, stage 2 set to one quick epoch."""
    items = {**TrainingConfig().items(), "stage2.epochs": 1,
             "stage2.batch_size": 8, "stage2.patience": 1}
    return "".join(f"{k} = {v}\n" for k, v in items.items()).encode()


# "number" mutations: 0 is stage1.epochs, 3 stage2.epochs
@FUZZ
@given(mutation=MUTATIONS)
@example(mutation=("number", 3, NUMBERS[-1]))  # capped by capped_epochs
def test_train_config_mutants(train_config, clean_tsv, capped_epochs,
                              tmp_path, mutation):
    path = tmp_path / "train.cfg"
    path.write_bytes(mutate(train_config, mutation))
    clean = tmp_path / "clean.tsv"
    clean.write_bytes(clean_tsv)
    loads = api_outcome(lambda p: config_from_items(read_kv(p)), path)
    trains = cli_outcome(TINY_TRAIN + ["--clean-tsv", str(clean),
                                       "--config", str(path), "--out",
                                       str(tmp_path / "ck")])
    # a config that loads may still not train (an infinite learning rate)
    assert loads or not trains
