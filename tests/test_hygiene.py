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
    "xattn_identity_error": "public API: one decoder layer's cross-attention "
                            "identity error",
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
