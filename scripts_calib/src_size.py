"""Size of a source tree: lines by `wc -l` and code lines, per file and in
total, the two counts ROADMAP aim 2 tracks.

    python3 scripts_calib/src_size.py [DIR]

DIR defaults to `src/codemix` of this checkout; every `*.py` file under it
is counted, in sorted path order. A code line is a line that holds a token
other than a comment, NL, NEWLINE, INDENT, DEDENT or the end marker (a
string spanning lines holds each of its lines), and that is not part of a
module, class or function docstring. Blank lines, comment lines and
docstrings are thus not counted.

Prints one `lines code path` row per file, then `lines code total`.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines by `wc -l`, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def print_sizes(root: Path) -> None:
    """One `lines code path` row per `*.py` file under `root`, in sorted
    path order, then the totals."""
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d} {path.relative_to(root)}")
    print(f"{total_lines:6d} {total_code:6d} total")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    root = (Path(sys.argv[1]) if len(sys.argv) == 2
            else Path(__file__).resolve().parents[1] / "src" / "codemix")
    if not root.is_dir():
        sys.exit(f"src_size.py: {root}: not a directory")
    print_sizes(root)
