"""ASCII table rendering."""

from repro.analysis.report import format_table


def test_basic_table():
    text = format_table(
        [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert "22" in lines[4]


def test_percent_formatting():
    text = format_table([{"coverage": 0.634}], percent_columns=["coverage"])
    assert "63.4%" in text


def test_float_formatting():
    text = format_table([{"speedup": 1.23456}])
    assert "1.235" in text


def test_missing_cells_render_dash():
    text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
    assert "-" in text.splitlines()[2]


def test_empty_rows():
    assert "(no rows)" in format_table([], title="X")


def test_explicit_column_order():
    text = format_table([{"b": 1, "a": 2}], columns=["a", "b"])
    header = text.splitlines()[0]
    assert header.index("a") < header.index("b")


def test_columns_align():
    text = format_table(
        [{"name": "x", "v": 1}, {"name": "longer", "v": 22}]
    )
    lines = text.splitlines()
    assert len({len(line) for line in lines[1:]}) == 1
