"""Tests for the Report container's rendering contract."""

from repro.metrics.reporting import Report, TextTable


def test_report_render_includes_tables_and_notes():
    report = Report("demo")
    table = TextTable("t", ["a"]).add_row(1)
    report.tables.append(table)
    report.notes.append("remember this")
    rendered = report.render()
    assert "#### Experiment demo ####" in rendered
    assert "== t ==" in rendered
    assert "note: remember this" in rendered


def test_report_empty_renders_header_only():
    rendered = Report("empty").render()
    assert rendered == "#### Experiment empty ####"
