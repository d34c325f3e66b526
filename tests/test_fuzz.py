"""Byte- and line-level fuzzing of the CRF-side file readers.

A CRF model file (as `save_crf` writes it, and indented) and a CoNLL label
file are mutated: truncated, a bit flipped, a NUL, a BOM or invalid UTF-8
inserted, a line duplicated or dropped, a number replaced by NaN, Inf, -0,
1e309 or a 40-digit integer. Each mutant goes through `load_crf` or
`load_token_labels`, and through `codemix detect-lang` or `codemix
train-langid`. A mutant may load, or raise a `CodemixError`, which the CLI
reports as exit code 2 with one line on stderr; nothing else (a traceback,
another exception) is allowed. A CRF file detects queries exactly when it
loads; a label file that loads may still hold no query to train on.
Hypothesis runs derandomized with a fixed example budget, so the same
mutants run every time.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from codemix.cli import main
from codemix.errors import CodemixError
from codemix.langid import (gen_langid_corpus, load_crf, load_token_labels,
                            save_crf, save_token_labels, train_crf)
from codemix.numerics import make_rng

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
    """True on exit code 0; on exit code 2 stderr must be one error line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
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
