"""Tests for table rendering (repro.tables)."""

import pytest

from repro.tables import Table, format_value, series_block


class TestFormatValue:
    def test_floats(self):
        assert format_value(3.14159, 2) == "3.14"

    def test_none(self):
        assert format_value(None) == "-"

    def test_ints_and_strings(self):
        assert format_value(42) == "42"
        assert format_value("x") == "x"


class TestTable:
    def test_render_aligns_columns(self):
        table = Table(["A", "Bee"], title="T")
        table.add_row(1, 2.5)
        table.add_row(100, 0.125)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Bee" in lines[1]
        assert len(lines) == 5

    def test_row_width_checked(self):
        table = Table(["A"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_dict_row(self):
        table = Table(["A", "B"])
        table.add_dict_row({"B": 2, "A": 1})
        assert "1" in table.render()

    def test_missing_dict_key_renders_dash(self):
        table = Table(["A", "B"])
        table.add_dict_row({"A": 1})
        assert "-" in table.render()

    def test_precision_override(self):
        table = Table(["A"], precision=1)
        table.add_row(3.14159, precision=4)
        assert "3.1416" in table.render()


class TestSeriesBlock:
    def test_renders_all_series(self):
        text = series_block("F", "x", [1, 2],
                            {"s1": [0.1, 0.2], "s2": [1.0, 2.0]})
        assert "F" in text
        assert "s1" in text and "s2" in text
        assert "0.10" in text
