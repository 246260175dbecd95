"""Size of the package source: code lines per module and settable values.

    python3 scripts/code_size.py [DIR]

DIR defaults to ``src/robust_thresholds``; every ``*.py`` file in it is
counted.  A code line holds a token other than a comment and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines are therefore not code.  A
settable value is a parameter with a default (of a function, method or
lambda) or a field with a default in a ``@dataclass`` class body, unless
the field is ``field(init=False, ...)``, which no caller can set.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list:
    """(start, end) positions of every docstring expression."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """Number of lines holding a token that is neither a comment nor part of
    a docstring."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE:
            continue
        if any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _init_field(value: ast.expr | None) -> bool:
    """False for no default and for ``field(init=False, ...)``."""
    if value is None:
        return False
    return not (isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords))


def settable_values(source: str) -> int:
    """Parameters with a default plus dataclass fields with a default that
    ``__init__`` takes."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and _init_field(s.value)
                         for s in node.body)
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "robust_thresholds"))
    args = parser.parse_args(argv)
    total_lines = total_values = 0
    for path in sorted(Path(args.dir).glob("*.py")):
        source = path.read_text()
        lines, values = code_lines(source), settable_values(source)
        total_lines += lines
        total_values += values
        print(f"{path.name:<16} {lines:>6} code lines {values:>4} settable values")
    print(f"{'total':<16} {total_lines:>6} code lines {total_values:>4} settable values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
