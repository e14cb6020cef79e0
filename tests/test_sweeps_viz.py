"""Unit tests for the terminal sparkline."""


from repro.harness import sparkline


def test_sparkline_shape():
    s = sparkline([0, 1, 2, 3, 2, 1, 0])
    assert len(s) == 7
    assert s[0] == "▁" and s[3] == "█"


def test_sparkline_flat_and_empty():
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == "▁▁▁"
