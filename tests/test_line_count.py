"""The line counter of ``tools/line_count.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_count.py"
_spec = importlib.util.spec_from_file_location("line_count", TOOL)
line_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_count)


def test_the_counter_leaves_out_comments_docstrings_and_blank_lines():
    source = (
        '"""Module docstring\n'              # 1 docstring
        'over two lines."""\n'               # 2 docstring
        "\n"                                 # 3 blank
        "# a comment\n"                      # 4 comment
        "import os  # trailing comment\n"    # 5 code
        "def f(x,\n"                         # 6 code
        "      y):\n"                        # 7 code
        "    '''Function docstring.'''\n"    # 8 docstring
        "    text = '''a string\n"           # 9 code
        "    on two lines'''\n"              # 10 code, inside a string token
        "    return (x +\n"                  # 11 code
        "\n"                                 # 12 blank inside brackets
        "            y)\n"                   # 13 code
        "class C:\n"                         # 14 code
        "    'Class docstring'\n"            # 15 docstring
        "    x = 'not a docstring'\n"        # 16 code
        "    'nor this one'\n"               # 17 code: not the first statement
    )
    assert line_count.count_lines(source) == (17, 10)


def test_the_report_has_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("# note\n\ny = 2\nz = 3\n")
    assert line_count.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "physical", "code"], ["a.py", "2", "1"], ["b.py", "4", "2"],
                    ["total", "6", "3"]]
