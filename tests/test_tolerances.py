"""The tolerance table is the only place a tolerance value is written."""

import ast
import io
import re
import tokenize
from pathlib import Path

from asymlab import tolerances

PACKAGE = Path(tolerances.__file__).resolve().parent
E_NOTATION = re.compile(r"[0-9_.]+[eE][+-]?[0-9_]+[jJ]?")
# the same literal written inside a string, not as the tail of a longer word
E_IN_TEXT = re.compile(r"(?<!\w)" + E_NOTATION.pattern)
# string tokens: f-strings split into pieces from Python 3.12 on
TEXT_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _docstring_starts(source: str) -> set:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant):
                starts.add((doc.value.lineno, doc.value.col_offset))
    return starts


def test_e_notation_literals_live_only_in_the_table():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        docstrings = _docstring_starts(path.read_text())
        with open(path, "rb") as handle:
            for tok in tokenize.tokenize(handle.readline):
                # comments are COMMENT tokens and do not count; docstrings do not either,
                # but any other string (an error message) must format the table's value
                if tok.type == tokenize.NUMBER:
                    hit = E_NOTATION.fullmatch(tok.string)
                elif tok.type in TEXT_TOKENS and tok.start not in docstrings:
                    hit = E_IN_TEXT.search(tok.string)
                else:
                    hit = None
                if hit:
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, "tolerance literals outside tolerances.py:\n" + "\n".join(found)


def test_every_table_entry_says_what_it_guards():
    lines = Path(tolerances.__file__).read_text().splitlines()
    tree = ast.parse("\n".join(lines))
    entries = [node for node in tree.body if isinstance(node, ast.Assign)]
    assert entries
    for node in entries:
        above = lines[node.lineno - 2].strip()
        assert above.startswith("# "), f"line {node.lineno} has no comment line above it"


def test_table_is_a_leaf_module():
    tree = ast.parse(Path(tolerances.__file__).read_text())
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert set(imported) <= {"__future__"}, imported
