"""Source hygiene checks over the codemix package.

Every imported name in src/codemix, tests/ and scripts_calib/ must be used
in its module, listed in the module's __all__, or marked as a re-export
with `# noqa: F401` on the import statement.

No module in src/codemix reads a file with `.read_text(` or with `open(`
in a read mode: `text.read_utf8` is the one text reader, so every bad
file becomes a DataError naming its path.

Every top-level function and class in src/codemix is named by some other
src/codemix code, or stands in `NOT_CALLED_IN_SRC` with its reason: code
that only tests use lives under tests/.

No module in src/codemix imports `_assert_finite` by name: each finite
check calls it through `numerics.tensor`, so a wrapper on that one module
attribute (the benchmark's `numerics.finite_check` row) sees every check.

Only the `Tensor` class calls `.accumulate_grad(` (in src/codemix, tests/
and scripts_calib/): a tape node's backward returns its parents'
gradients, and `Tensor.backward` alone adds them in.

Only `text.split_lines` cuts text into lines in src/codemix: no other code
calls `.splitlines(` or `.split("\\n")`, so every text input ends a line at
LF only. `checkpoint._read_tokens` is exempt, with its reason.

Only `seq2seq.model.id_count_fits` compares a length with `max_len` in
src/codemix: a comparison with an attribute `.max_len` or a name
`max_len` anywhere else copies the one length rule. `SynthTaskSpec`'s
`max_len` is a word count, another quantity, and is exempt. An identity
test against None (`max_len is None`) is not a length comparison.

No function in src/codemix gives a `max_len` parameter an integer default:
a decode's step limit is the model's own (`decode._max_steps`), and a
number written beside the model's `max_len` is a copy that can cut a
longer model short.

Every name that the benchmark's tracer (perfbench/spans.py) wraps must
exist, and the benchmark's workloads (perfbench/workloads.py) must import
and score a model and run their tiny training and distillation jobs with
no failed operation, so deleting or reshaping an API the benchmark uses
fails here and not only in the slower perfbench/tests.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from codemix.numerics import make_rng
from codemix.seq2seq import (Seq2SeqConfig, beam_search, encode_source,
                             init_model)
from codemix.text import Vocab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "codemix"
MODULES = sorted(SRC.rglob("*.py"))
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "scripts_calib").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in ln for ln in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | _exported(tree)
    return [f"{line}: {name}" for name, line in sorted(imported.items(),
                                                       key=lambda kv: kv[1])
            if name not in kept]


_WRITE_MODE = set("wax+")


def file_reads(source: str) -> list[str]:
    """`line: call` for each `.read_text(` call and each `open(` (builtin
    or method) whose mode is not a literal write, append or create mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name == "read_text":
            found.append(f"{node.lineno}: read_text")
        elif name == "open":
            mode = next((kw.value for kw in node.keywords
                         if kw.arg == "mode"), None)
            if mode is None:
                # builtin open(file, mode); Path.open(mode)
                pos = 1 if isinstance(func, ast.Name) else 0
                mode = node.args[pos] if len(node.args) > pos else None
            if not (isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and _WRITE_MODE & set(mode.value)):
                found.append(f"{node.lineno}: open")
    return found


class TestFileReads:
    def test_scanner_finds_reads(self):
        src = ("from pathlib import Path\n"
               "Path('a').read_text(encoding='utf-8')\n"
               "open('b')\n"
               "open('c', 'rb')\n"
               "Path('d').open()\n"
               "open('e', mode='r')\n")
        assert file_reads(src) == ["2: read_text", "3: open", "4: open",
                                   "5: open", "6: open"]

    def test_scanner_allows_writes(self):
        src = ("from pathlib import Path\n"
               "open('a', 'w', encoding='utf-8')\n"
               "open('b', mode='ab')\n"
               "Path('c').open('x')\n"
               "Path('d').write_text('')\n"
               "Path('e').read_bytes()\n")
        assert file_reads(src) == []

    @pytest.mark.parametrize("path", MODULES,
                             ids=[str(p.relative_to(SRC)) for p in MODULES])
    def test_no_file_reads_outside_read_utf8(self, path):
        assert file_reads(path.read_text(encoding="utf-8")) == []


class TestUnusedImports:
    def test_scanner_finds_an_unused_import(self):
        src = ("import math\nimport os\nfrom json import dumps, loads\n"
               "print(os.sep, loads)\n")
        assert unused_imports(src) == ["1: math", "3: dumps"]

    def test_scanner_allows_all_and_noqa_reexports(self):
        src = ("from json import dumps\n"
               "from os import sep  # noqa: F401 (re-export)\n"
               "__all__ = ['dumps']\n")
        assert unused_imports(src) == []

    def test_modules_found(self):
        assert SRC / "train.py" in MODULES
        assert ROOT / "tests" / "oracles.py" in SCRIPTS
        assert ROOT / "scripts_calib" / "calib9.py" in SCRIPTS
        assert ROOT / "scripts_calib" / "xattn_rows.py" in SCRIPTS

    @pytest.mark.parametrize(
        "path", MODULES + SCRIPTS,
        ids=[str(p.relative_to(SRC)) for p in MODULES]
        + [str(p.relative_to(ROOT)) for p in SCRIPTS])
    def test_no_unused_imports(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == []


# Top-level src/codemix definitions that no src/codemix code names, and why
# each stays in the package.
NOT_CALLED_IN_SRC = {
    "translate": "public API: translate one query",
    "xattn_identity_errors": "the measure of scripts_calib/xattn_rows.py's "
                             "cross-attention experiment",
    "synthetic_vocab": "imported by perfbench/workloads.py and "
                       "perfbench/build_artifacts.py, and by the "
                       "scripts_calib experiments",
    "train_translit": "public API: train the transliteration model",
    "crf_nll_grad": "looked up by perfbench/spans.py",
    "extract_features": "the CRF template as strings: wrapped by "
                        "perfbench/spans.py, the ids of tests/oracles.py's "
                        "reference_train_crf are built from it",
    "forward_teacher_forced": "looked up by perfbench/workloads.py",
    "matmul": "looked up by perfbench/spans.py (NUMERIC_OPS)",
    "softmax": "looked up by perfbench/spans.py (NUMERIC_OPS)",
    "gelu": "looked up by perfbench/spans.py (NUMERIC_OPS)",
    "gather_rows": "looked up by perfbench/spans.py (NUMERIC_OPS)",
    "greedy_decode": "perfbench/workloads.py beam=1 check; reference of "
                     "the beam-1 tests",
}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """`module: name` for each top-level function or class in `sources`
    (module path -> source) that no code names outside its own body. A
    use is an `ast.Name` or a `from ... import` of the name; attributes do
    not count (numpy's `.reshape` is not the tape op `reshape`), nor do the
    imports of an `__init__.py`, which only re-export."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    defined, used = [], set()
    for module, source in sources.items():
        reexports = module.endswith("__init__.py")
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, kinds) else None
            if own is not None:
                defined.append((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(n for n in names if n != own)
    return [f"{module}: {name}" for module, name in defined
            if name not in used]


def _src_unreferenced() -> dict[str, str]:
    """{`module: name` line: name} of the src/codemix definitions that no
    src/codemix code names."""
    found = unreferenced_definitions(
        {str(p.relative_to(SRC)): p.read_text(encoding="utf-8")
         for p in MODULES})
    return {line: line.split(": ")[1] for line in found}


class TestNoTestOnlyCode:
    def test_scanner_finds_unreferenced_definitions(self):
        sources = {
            "a.py": ("import numpy as np\n"
                     "def used(): return 1\n"
                     "def unused(): return used()\n"
                     "def recursive(n): return recursive(n - 1)\n"
                     "def reshape(x): return x\n"
                     "class Imported: pass\n"
                     "np.zeros(4).reshape(2, 2)\n"),
            "__init__.py": "from .a import unused, recursive, reshape\n",
            "b.py": "from .a import Imported\n",
        }
        assert unreferenced_definitions(sources) == [
            "a.py: unused", "a.py: recursive", "a.py: reshape"]

    def test_allowlist_names_unreferenced_definitions(self):
        # an entry whose definition is gone, or that src code now names,
        # is stale and must go
        names = set(_src_unreferenced().values())
        assert sorted(set(NOT_CALLED_IN_SRC) - names) == []

    def test_every_definition_is_used_in_src(self):
        assert [line for line, name in _src_unreferenced().items()
                if name not in NOT_CALLED_IN_SRC] == []


def finite_check_imports(source: str) -> list[str]:
    """`line: module` for each `from <module> import _assert_finite`."""
    return [f"{node.lineno}: {'.' * node.level}{node.module or ''}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and any(alias.name == "_assert_finite" for alias in node.names)]


class TestFiniteChecksThroughTheModule:
    def test_scanner_finds_by_name_imports(self):
        src = ("from .tensor import Tensor, _assert_finite\n"
               "from ..numerics.tensor import (RowLayout,\n"
               "                               _assert_finite)\n"
               "from . import tensor\n"
               "tensor._assert_finite(x, 'x')\n")
        assert finite_check_imports(src) == ["1: .tensor",
                                             "2: ..numerics.tensor"]

    @pytest.mark.parametrize("path", MODULES,
                             ids=[str(p.relative_to(SRC)) for p in MODULES])
    def test_no_by_name_import(self, path):
        assert finite_check_imports(path.read_text(encoding="utf-8")) == []


def grad_accumulations(source: str) -> list[str]:
    """`line: accumulate_grad` for each `.accumulate_grad(` call outside a
    top-level class `Tensor`."""
    return [f"{node.lineno}: accumulate_grad"
            for top in ast.parse(source).body
            if not (isinstance(top, ast.ClassDef) and top.name == "Tensor")
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "accumulate_grad"]


class TestGradientsAccumulateInTensor:
    def test_scanner_finds_calls_outside_tensor(self):
        src = ("class Tensor:\n"
               "    def backward(self, g):\n"
               "        self.accumulate_grad(g)\n"
               "def op(a):\n"
               "    def backward(g):\n"
               "        a.accumulate_grad(g)\n"
               "    return backward\n"
               "class Other:\n"
               "    def f(self, t, g):\n"
               "        t.accumulate_grad(g)\n"
               "x.accumulate_grad(1)\n"
               "accumulate_grad(x)\n"
               "name = 'accumulate_grad('\n")
        assert grad_accumulations(src) == ["6: accumulate_grad",
                                           "10: accumulate_grad",
                                           "11: accumulate_grad"]

    @pytest.mark.parametrize(
        "path", MODULES + SCRIPTS,
        ids=[str(p.relative_to(SRC)) for p in MODULES]
        + [str(p.relative_to(ROOT)) for p in SCRIPTS])
    def test_only_tensor_accumulates(self, path):
        assert grad_accumulations(path.read_text(encoding="utf-8")) == []


def _scopes_of(source: str, match) -> list[str]:
    """For each node of `source` that `match` accepts, the qualified name
    of the function or class around it (`Class.method`, or `-` at module
    level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.append(".".join(scope) or "-")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def _is_none_test(node: ast.Compare) -> bool:
    """`x is None` or `x is not None`: an identity test, not a length
    comparison."""
    return (len(node.ops) == 1 and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and any(isinstance(n, ast.Constant) and n.value is None
                    for n in (node.left, *node.comparators)))


def _compares_max_len(node) -> bool:
    """A comparison with an attribute `.max_len` or a name `max_len` among
    its operands, but an identity test against None."""
    return isinstance(node, ast.Compare) and not _is_none_test(node) and any(
        getattr(n, "attr", getattr(n, "id", None)) == "max_len"
        for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name)))


def max_len_comparisons(source: str) -> list[str]:
    """Where (`_scopes_of`) each comparison with a `max_len` is."""
    return _scopes_of(source, _compares_max_len)


# Comparisons with a `max_len` that is not a model's, and what it is.
MAX_LEN_EXEMPT = {
    "text.py: SynthTaskSpec.__post_init__": "a query's word count",
}


class TestOneLengthRule:
    def test_scanner_finds_comparisons(self):
        src = ("def rule(n, config):\n"
               "    return n <= config.max_len\n"
               "class Batch:\n"
               "    def check(self, S, max_len):\n"
               "        if S > max_len or len(self.ids) + 1 > self.max_len:\n"
               "            pass\n"
               "ok = [x for x in xs if len(x) <= cfg.max_len - 1]\n"
               "n = min(max_len, cfg.max_len)\n"
               "limit = cfg.max_len\n"
               "def steps(max_len=None):\n"
               "    if max_len is None or cfg.max_len is not None:\n"
               "        pass\n"
               "    if max_len is None or max_len > 3:\n"
               "        pass\n"
               "    if max_len is cfg.max_len or None is not max_len:\n"
               "        pass\n")
        assert max_len_comparisons(src) == ["rule", "Batch.check",
                                            "Batch.check", "-", "steps",
                                            "steps"]

    def test_only_the_rule_compares_with_max_len(self):
        found = [f"{p.relative_to(SRC)}: {where}" for p in MODULES
                 for where in max_len_comparisons(
                     p.read_text(encoding="utf-8"))]
        assert sorted(set(MAX_LEN_EXEMPT) - set(found)) == []  # not stale
        assert [f for f in found if f not in MAX_LEN_EXEMPT] == [
            "seq2seq/model.py: id_count_fits"]


def int_max_len_defaults(source: str) -> list[str]:
    """`line: function` for each parameter `max_len` (positional or
    keyword-only, of a function or lambda) whose default is an integer
    literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        params = (list(zip(positional[len(positional) - len(a.defaults):],
                           a.defaults))
                  + list(zip(a.kwonlyargs, a.kw_defaults)))
        for arg, default in params:
            try:
                value = ast.literal_eval(default) if default else None
            except ValueError:
                continue
            if arg.arg == "max_len" and type(value) is int:
                found.append(f"{node.lineno}: "
                             f"{getattr(node, 'name', 'lambda')}")
    return found


class TestNoDecodeLimitCopies:
    def test_scanner_finds_integer_defaults(self):
        src = ("def a(model, max_len: int = 32): pass\n"
               "def b(model, *, beam=3, max_len=-1): pass\n"
               "def c(model, max_len: int | None = None): pass\n"
               "def d(model, max_len=LIMIT, n=4): pass\n"
               "f = lambda m, max_len=24: m\n"
               "class K:\n"
               "    max_len: int = 6\n"
               "    def e(self, max_len=2.5, min_len=1): pass\n"
               "    def g(self, x, max_len=False): pass\n"
               "def h(model, max_len: int): pass\n")
        assert int_max_len_defaults(src) == ["1: a", "2: b", "5: lambda"]

    @pytest.mark.parametrize("path", MODULES,
                             ids=[str(p.relative_to(SRC)) for p in MODULES])
    def test_no_integer_max_len_default(self, path):
        assert int_max_len_defaults(path.read_text(encoding="utf-8")) == []


def _splits_lines(node) -> bool:
    """A call of `.splitlines(`, or of `.split(` with "\\n" as its separator
    (by position or as `sep=`)."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return False
    seps = node.args[:1] + [k.value for k in node.keywords if k.arg == "sep"]
    return node.func.attr == "splitlines" or node.func.attr == "split" and any(
        isinstance(s, ast.Constant) and s.value == "\n" for s in seps)


def line_splits(source: str) -> list[str]:
    """Where (`_scopes_of`) each `.splitlines(` or `.split("\\n")` call is."""
    return _scopes_of(source, _splits_lines)


# Line splits that are not the line rule's, and why.
LINE_SPLIT_EXEMPT = {
    "checkpoint.py: _read_tokens": "a vocab.txt token may hold a CR, and "
                                   "the file must end in LF, so its tokens "
                                   "are the LF-split pieces before the last",
}


class TestOneLineRule:
    def test_scanner_finds_line_splits(self):
        src = ("def rule(text):\n"
               "    return text.split('\\n')\n"
               "class Reader:\n"
               "    def read(self, text):\n"
               "        return [ln for ln in text.splitlines() if ln]\n"
               "head, _ = s.split(sep='\\n', maxsplit=1)\n"
               "words, cells = s.split(), s.split('\\t')\n")
        assert line_splits(src) == ["rule", "Reader.read", "-"]

    def test_only_split_lines_splits_lines(self):
        found = [f"{p.relative_to(SRC)}: {where}" for p in MODULES
                 for where in line_splits(p.read_text(encoding="utf-8"))]
        assert sorted(set(LINE_SPLIT_EXEMPT) - set(found)) == []  # not stale
        assert [f for f in found if f not in LINE_SPLIT_EXEMPT] == [
            "text.py: split_lines"]


def _perfbench_module(name: str, monkeypatch):
    """perfbench/<name>.py loaded as a module, which its sibling modules
    can import by plain name (as perfbench/run.py does)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses
    spec.loader.exec_module(module)
    return module


class TestTracerNames:
    def test_tracer_installs_and_restores(self, monkeypatch):
        spans = _perfbench_module("spans", monkeypatch)
        tracer = spans.Tracer()
        try:
            tracer.install()  # a missing name raises here
            assert spans.installed_wrappers()
        finally:
            tracer.restore()
        assert spans.installed_wrappers() == []


class TestBenchmarkWorkloads:
    def test_teacher_forced_score_matches_beam_score(self, monkeypatch):
        workloads = _perfbench_module("workloads", monkeypatch)
        cfg = Seq2SeqConfig(vocab=Vocab([f"w{i}" for i in range(6)]),
                            n_enc_layers=1, n_dec_layers=1, d_model=16,
                            n_heads=2, d_ff=32, max_len=8)
        model = init_model(cfg, make_rng(4))
        src = encode_source("w1 w2 w3", cfg.vocab)
        result = beam_search(model, src, beam=2, max_len=5)
        score = workloads.teacher_forced_score(model, src, result.ids,
                                               result.finished)
        assert np.isfinite(score)
        assert abs(score - result.score) <= workloads.SCORE_TOL

    @pytest.mark.parametrize("name", ["Train", "Distill"])
    def test_training_workload_runs_two_cycles(self, name, monkeypatch):
        # the benchmark's own checks: finite losses, the expected steps and
        # the same final loss when a job runs again on the second cycle
        workloads = _perfbench_module("workloads", monkeypatch)
        workload = getattr(workloads, name)(1, "tiny")
        tracer = workloads.NullTracer()
        workload.setup(tracer)
        for k in range(2):
            workload.cycle(k, tracer)
        assert workload.rec.attempted > 0
        assert (workload.rec.failed, workload.rec.errors) == (0, [])
        assert np.isfinite(workload.headline()["loss"][0])
