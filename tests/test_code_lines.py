"""tools/code_lines.py counts what is neither blank, comment nor docstring."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_are_not_counted():
    source = '''"""Module
docstring."""

# a comment
X = """not a
docstring"""  # counted: an assignment


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return [1,
                2]
'''
    # X = (2 lines), class C:, def f(self):, return (2 lines)
    assert code_lines.code_lines(source) == 6
