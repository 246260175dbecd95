import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_size.py"
spec = importlib.util.spec_from_file_location("code_size", SCRIPT)
code_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_size)

MODULE = '''"""Module docstring,
two lines."""

# a comment line
import dataclasses


@dataclasses.dataclass
class Point:
    """Class docstring."""

    x: float
    y: float = 0.0  # a comment after code
    tag: str = dataclasses.field(default="p")
    cache: dict = dataclasses.field(init=False, default_factory=dict)


def f(a, b=1, *, c, d=2):
    """Function docstring.

    More of it.
    """
    text = """a string that is not a docstring,
    over two lines"""
    return (lambda k=3: a + b + k)(), text

'''


def test_counts_of_a_module_with_known_lines(tmp_path, capsys):
    # code: the import, the decorator, the class line, its four fields, the
    # def line and its three body lines (the string spans two)
    assert code_size.code_lines(MODULE) == 11
    # b, d and the lambda's k; the fields y and tag, not the init=False cache
    assert code_size.settable_values(MODULE) == 5
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "empty.py").write_text("# only a comment\n")
    assert code_size.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["empty.py", "0", "code", "lines", "0", "settable", "values"],
                    ["mod.py", "11", "code", "lines", "5", "settable", "values"],
                    ["total", "11", "code", "lines", "5", "settable", "values"]]
