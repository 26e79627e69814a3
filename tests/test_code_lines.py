import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    source = '''"""Module docstring,
over two lines."""
import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    side = 2


def area(box):
    """Function docstring.

    With a second paragraph.
    """
    text = """a string that is
    not a docstring"""
    return (box.side
            * box.side) + len(text) + math.pi
'''
    path = tmp_path / "sample.py"
    path.write_text(source)
    # import, class, side, def, the two-line string and the two-line return
    assert _tool().code_lines(path) == 8
