"""ASCII chart/table rendering used by the figure benchmarks."""

import pytest

from repro.reporting import ascii_chart


SERIES = {
    "direct": [(4, 1e-3), (16, 4e-3), (64, 1.6e-2)],
    "grid": [(4, 5e-4), (16, 1e-3), (64, 2e-3)],
}


def test_chart_contains_glyphs_and_legend():
    chart = ascii_chart(SERIES)
    assert "o=direct" in chart and "x=grid" in chart
    assert "o" in chart and "x" in chart


def test_chart_axis_bounds():
    chart = ascii_chart(SERIES)
    assert "64" in chart            # x upper bound
    assert "0.0005" in chart or "5e-04" in chart.lower() or "0.0005" in chart


def test_chart_dimensions():
    chart = ascii_chart(SERIES, width=30, height=8)
    body = [l for l in chart.splitlines() if l.startswith("  |")]
    assert len(body) == 8
    assert all(len(l) == 3 + 30 for l in body)


def test_empty_series():
    assert ascii_chart({"a": []}) == "(no data)"


def test_zero_values_skipped():
    chart = ascii_chart({"a": [(2, 0.0), (4, 1.0)]})
    assert "(no data)" not in chart


def test_single_point():
    chart = ascii_chart({"a": [(8, 0.5)]})
    assert "o" in chart


def test_many_series_glyph_cycle():
    series = {f"s{i}": [(2, 1.0 + i)] for i in range(12)}
    chart = ascii_chart(series)
    assert "s11" in chart  # legend covers all series even past glyph reuse

