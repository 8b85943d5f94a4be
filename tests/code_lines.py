"""Print the code lines of each module of ``src/iadmm`` and their total.

Run from the repository root:

    python3 tests/code_lines.py                 # this checkout
    python3 tests/code_lines.py --root OTHER    # another checkout

A code line is a line of a module that holds some code.  Blank lines,
lines that hold only a comment, and the lines of module, class and
function docstrings do not count; a string that is not a docstring does.

Pytest does not collect this file: it is a script, not a test module.
"""

import argparse
import ast
import io
import os
import tokenize


def _docstring_lines(tree):
    """Line numbers covered by the docstrings of ``tree``'s module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines of the Python ``source``."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=here, help="checkout to count (default: this one)")
    args = parser.parse_args()
    pkg = os.path.join(args.root, "src", "iadmm")
    total = 0
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print("%6d  %s" % (n, name))
    print("%6s  total" % format(total, ","))


if __name__ == "__main__":
    main()
