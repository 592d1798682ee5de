import dataclasses
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from livesubs import (
    CorpusReport,
    DisplayMode,
    ReadingSpeedStats,
    evaluate_corpus,
    evaluate_log,
    render_table,
    report_to_dict,
    write_report,
)

from conftest import make_refs, simulate_corpus


@pytest.fixture(scope="module")
def small_logs():
    return simulate_corpus(make_refs(40, seed=8), k=3)


@pytest.fixture(scope="module")
def small_report(small_logs):
    return evaluate_corpus(small_logs)


def test_modes_present_in_fixed_order(small_report):
    doc = report_to_dict(small_report)
    assert list(doc["modes"]) == ["word", "block", "line"]


def test_word_delay_equals_al(small_report):
    doc = report_to_dict(small_report)
    assert doc["modes"]["word"]["delay_ms"] == pytest.approx(doc["al_ms"])


def test_table_has_three_rows(small_report):
    table = render_table(small_report)
    lines = table.splitlines()
    assert lines[1].startswith("word")
    assert lines[2].startswith("block")
    assert lines[3].startswith("line")
    assert "±" in lines[1]


def test_table_marks_a_mode_without_rs_samples(small_report):
    rs_by_mode = {**small_report.rs_by_mode, DisplayMode.BLOCKS: None}
    report = dataclasses.replace(small_report, rs_by_mode=rs_by_mode)
    delay = f"{report.delay_by_mode[DisplayMode.BLOCKS]:.0f}"
    assert render_table(report).splitlines()[2].split() == ["block", "-", "-", delay]


def test_json_round_trips(small_report):
    doc = json.loads(write_report(small_report, per_segment=True))
    assert doc["segments"] == 40
    assert len(doc["per_segment"]) == 40


def test_empty_corpus_report():
    report = evaluate_corpus([])
    doc = report_to_dict(report)
    assert doc["segments"] == 0
    assert doc["al_ms"] is None
    assert "(empty corpus)" in render_table(report)


def test_per_segment_metrics_consistent(small_logs):
    seg = evaluate_log(small_logs[0])
    assert seg.delay_by_mode[DisplayMode.WORD_FOR_WORD] == pytest.approx(
        seg.average_lagging
    )
    assert set(seg.rs_samples) == {
        DisplayMode.WORD_FOR_WORD, DisplayMode.BLOCKS, DisplayMode.SCROLLING_LINES
    }


def test_threshold_is_honored():
    logs = simulate_corpus(make_refs(40, seed=8), k=3)
    strict = evaluate_corpus(logs, rs_threshold=1.0)
    loose = evaluate_corpus(logs, rs_threshold=1000.0)
    for mode in DisplayMode:
        # every finite sample conforms at a huge threshold; +inf ones never do
        stats = loose.rs_by_mode[mode]
        assert stats.pct_conforming == pytest.approx(
            100.0 * stats.n_finite / stats.n_samples
        )
        assert (
            strict.rs_by_mode[mode].pct_conforming
            <= loose.rs_by_mode[mode].pct_conforming
        )


def test_evaluate_log_smoke():
    (log,) = simulate_corpus(make_refs(1, seed=9), k=3)
    metrics = evaluate_log(log)
    assert metrics.n_blocks >= metrics.n_conforming_blocks >= 0
    assert metrics.average_lagging > 0


# Floats as the report holds them, the ones json spells specially included.
report_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16, 1e308, math.inf, -math.inf, math.nan]),
)
segment_ids = st.one_of(
    st.text(),
    st.sampled_from(['a"b', "back\\slash", "tab\tnl\n\x00\x1f\x7f", "\u2028\u2029", "é€😀"]),
)
mode_stats = st.one_of(
    st.none(),
    st.builds(
        ReadingSpeedStats, report_floats, report_floats, report_floats, report_floats,
        st.integers(0, 10**6), st.integers(0, 10**6),
    ),
)


@st.composite
def reports(draw):
    rows = draw(st.lists(st.tuples(segment_ids, *[report_floats] * (1 + len(DisplayMode)))))
    return CorpusReport(
        n_segments=draw(st.integers(0, 10**6)),
        average_lagging=draw(report_floats),
        delay_by_mode={m: draw(report_floats) for m in DisplayMode},
        rs_by_mode={m: draw(mode_stats) for m in DisplayMode},
        length_conformity_pct=draw(st.none() | report_floats),
        rs_threshold=draw(report_floats),
        cpl_bounds=(draw(st.integers(0, 100)), draw(st.integers(0, 100))),
        segment_rows=tuple(rows),
    )


@given(reports())
@example(CorpusReport(0, 0.0, {}, {m: None for m in DisplayMode}, None, 21.0, (6, 42)))
def test_write_report_is_json_dumps(report):
    for per_segment in (False, True):
        expected = json.dumps(report_to_dict(report, per_segment), ensure_ascii=False, indent=2)
        assert write_report(report, per_segment) == expected + "\n"


def test_per_segment_rows_follow_segments(small_logs, small_report):
    rows = [
        (seg.segment_id, seg.average_lagging, *seg.delay_by_mode.values())
        for seg in map(evaluate_log, small_logs)
    ]
    assert list(small_report.segment_rows) == rows
    assert list(report_to_dict(small_report, True)["per_segment"][0]["delay_ms"]) == [
        "word", "block", "line"
    ]
