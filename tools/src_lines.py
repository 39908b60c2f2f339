"""Print the lines of each module of src/besselcert by kind, and their totals.

Every line is counted once, as one of:
  docstring  a line of the first string statement of a module, class or function;
  code       any other line holding a token, a comment after code among them;
  comment    a line holding only a comment;
  blank      an empty or whitespace-only line outside a docstring.
A change quotes the totals before and after for its net change in lines.

    python3 tools/src_lines.py
"""

import ast
import io
from pathlib import Path
import tokenize

SRC = Path(__file__).resolve().parents[1] / "src" / "besselcert"
KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(source: str) -> dict[str, int]:
    """Count the lines of source by kind; the counts sum to its number of lines."""
    lines = source.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            for i in range(body[0].lineno - 1, body[0].end_lineno):
                kind[i] = "docstring"
    return {k: kind.count(k) for k in KINDS}


def main() -> None:
    print(f"{'module':<14}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    total = dict.fromkeys(("lines",) + KINDS, 0)
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        counts = {"lines": len(source.splitlines()), **line_kinds(source)}
        for k in total:
            total[k] += counts[k]
        print(f"{path.name:<14}{counts['lines']:>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<14}{total['lines']:>7}" + "".join(f"{total[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main()
