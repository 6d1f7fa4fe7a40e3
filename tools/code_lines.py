"""Count the code lines of Python files: lines that hold a code token.

A line counts when some token other than a comment, an indent, a line
break or a docstring lies on it; a token over several lines (a multi-line
string) counts every line it spans.  A docstring is a string statement
alone: one or more string literals that make up a whole logical line, as
a module's, class's or function's first statement does.  Blank lines,
comments and docstrings do not count, and neither does the layout of an
expression: a call split over three lines is three code lines.

    python tools/code_lines.py src/gmdiv

prints one line per file, `<lines> <path>`, then `<lines> total`.  A
directory argument counts its `*.py` files, not its subdirectories; with
no argument it counts `.`.  A path that does not exist exits 2.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a code token."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines, i, at_start = set(), 0, True
    while i < len(tokens):
        tok = tokens[i]
        if at_start and tok.type == tokenize.STRING:
            # a statement of string literals alone is a docstring
            j = i
            while tokens[j].type in (tokenize.STRING, tokenize.NL, tokenize.COMMENT):
                j += 1
            if tokens[j].type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                i, at_start = j, False
                continue
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        at_start = tok.type in _STATEMENT_START or (at_start and tok.type in _LAYOUT)
        i += 1
    return len(lines)


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="code_lines.py", description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[Path(".")], type=Path, help="Python files, or directories of them")
    paths = parser.parse_args(argv).paths
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")
    files = []
    for path in paths:
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
