"""The tolerance table is the only place a tolerance value is written."""

import ast
import io
import re
import tokenize
from pathlib import Path

from asymlab import tolerances

PACKAGE = Path(tolerances.__file__).resolve().parent
E_NOTATION = re.compile(r"[0-9_.]+[eE][+-]?[0-9_]+[jJ]?")


def test_e_notation_literals_live_only_in_the_table():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with open(path, "rb") as handle:
            for tok in tokenize.tokenize(handle.readline):
                # docstrings are STRING tokens and comments COMMENT tokens: neither counts
                if tok.type == tokenize.NUMBER and E_NOTATION.fullmatch(tok.string):
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
