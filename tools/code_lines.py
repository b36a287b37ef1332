"""Count the code lines of a Python package, module by module.

A code line holds at least one token that is not a comment and lies outside
every module, class and function docstring; blank lines, comment-only lines
and docstrings are left out.  Prints one row per module, then the totals:

    python tools/code_lines.py src/bundlechoice
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """(code lines, all lines) of one module's source text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source))), len(source.splitlines())


def main(argv):
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        sys.stderr.write("usage: python tools/code_lines.py PACKAGE_DIR\n")
        return 2
    root = Path(argv[0])
    total_code = total_lines = 0
    for path in sorted(root.rglob("*.py")):
        code, lines = code_lines(path.read_text(encoding="utf-8"))
        total_code += code
        total_lines += lines
        print(f"{code:6d} {lines:6d}  {path.relative_to(root)}")
    print(f"{total_code:6d} {total_lines:6d}  total (code lines, all lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
