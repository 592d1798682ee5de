"""replay takes its screens from report.screen_schedule and its summary from
evaluate_log; export-srt renders the blocks-mode screens from each record's
columns. These tests pin both commands to the evaluate report and to the
schedule path (extractor, scheduler, close at segment end plus the wait-k
delay)."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import livesubs.report as report
from livesubs import (
    DisplayMode,
    EmissionLog,
    close_schedule,
    export_srt,
    extract_blocks,
    extract_lines,
    group_word_blocks,
    parse_token_stream,
    read_log_corpus,
    schedule_block_mode,
    schedule_line_mode,
    schedule_word_mode,
    write_annotated_refs,
)
from livesubs.cli import main
from livesubs.formats import _srt_of_columns
from livesubs.report import screen_schedule

from conftest import make_refs

MODES = ("word", "block", "line")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("screens")
    refs = tmp / "refs.tsv"
    with open(refs, "w", encoding="utf-8") as f:
        # half the segments end in a burst of equal emission times
        write_annotated_refs(make_refs(24, seed=5, flush_fraction=0.5), f)
    logs = tmp / "emissions.jsonl"
    assert main(["simulate", str(refs), "--out", str(logs)]) == 0
    return logs


@pytest.fixture(scope="module")
def logs(corpus):
    with open(corpus, encoding="utf-8") as f:
        return list(read_log_corpus(f))


def old_schedule(log, mode, max_row_chars):
    if mode is DisplayMode.WORD_FOR_WORD:
        schedule = schedule_word_mode(group_word_blocks(log.events, max_row_chars))
    elif mode is DisplayMode.BLOCKS:
        schedule = schedule_block_mode(extract_blocks(log.events))
    else:
        schedule = schedule_line_mode(extract_lines(log.events))
    return close_schedule(schedule, log.end_time + log.delay_k)


@pytest.mark.parametrize("max_row_chars", [20, 84])
@pytest.mark.parametrize("mode", list(DisplayMode))
def test_screen_schedule_equals_schedule_path(logs, mode, max_row_chars):
    for log in logs:
        assert screen_schedule(log, mode, max_row_chars) == old_schedule(log, mode, max_row_chars)


SPIED = {
    DisplayMode.WORD_FOR_WORD: ("group_word_blocks", "schedule_word_mode"),
    DisplayMode.BLOCKS: ("blocks_from_lines", "schedule_block_mode"),
    DisplayMode.SCROLLING_LINES: ("schedule_line_mode",),
}


@pytest.mark.parametrize("mode", list(DisplayMode))
def test_screen_schedule_calls_the_names_bound_in_report(logs, monkeypatch, mode):
    """report.MODES looks its functions up when called, so a wrapper bound
    over one of those names in report (a tracer, a spy) sees every call."""
    expected = [screen_schedule(log, mode) for log in logs]
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in {name for names in SPIED.values() for name in names}:
        monkeypatch.setattr(report, name, spy(name, getattr(report, name)))
    assert [screen_schedule(log, mode) for log in logs] == expected
    assert calls == list(SPIED[mode]) * len(logs)


@pytest.mark.parametrize("mode", MODES)
def test_replay_summary_equals_per_segment_report(corpus, tmp_path, capsys, mode):
    report = tmp_path / "report.json"
    assert main(["evaluate", str(corpus), "--per-segment", "--out", str(report)]) == 0
    capsys.readouterr()
    for entry in json.loads(report.read_text(encoding="utf-8"))["per_segment"]:
        argv = ["replay", str(corpus), "--segment", entry["id"], "--mode", mode, "--speed", "0"]
        assert main(argv) == 0
        summary = f"  AL: {entry['al_ms']:.0f} ms   delay: {entry['delay_ms'][mode]:.0f} ms"
        assert summary in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("mode", MODES)
def test_evaluate_mode_keeps_only_its_row(corpus, capsys, mode):
    assert main(["evaluate", str(corpus)]) == 0
    full = capsys.readouterr().out
    assert main(["evaluate", str(corpus), "--mode", mode]) == 0
    others = set(MODES) - {mode}
    assert capsys.readouterr().out == "".join(
        row for row in full.splitlines(keepends=True) if row.split(" ", 1)[0] not in others
    )


def test_srt_files_equal_the_block_schedule_path(corpus, logs, tmp_path):
    out = tmp_path / "srt"
    assert main(["export-srt", str(corpus), "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == len(logs)
    for log in logs:
        expected = export_srt(old_schedule(log, DisplayMode.BLOCKS, 84))
        assert (out / f"{log.segment_id}.srt").read_bytes() == expected.encode("utf-8")


@st.composite
def _srt_columns(draw):
    """(surfaces, times, k, step) of a log: few distinct words and times, so
    that empty lines and blocks closed at one instant are common."""
    n = draw(st.integers(0, 10))
    surfaces = draw(st.lists(st.sampled_from(["a", "bc", "<eol>", "<eob>"]), min_size=n, max_size=n))
    if draw(st.booleans()):
        surfaces.append("<eos>")
    times = sorted(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0.0, 1e5),
        min_size=len(surfaces), max_size=len(surfaces),
    )))
    # A step of 5e-324 closes the last cue at its own onset.
    return surfaces, times, draw(st.integers(1, 5)), draw(st.sampled_from([0.28, 1e-3, 5e-324]))


@settings(max_examples=400)
@given(_srt_columns())
@example((["<eol>", "<eol>"], [0.5, 1.0], 3, 0.28))  # empty rows
@example((["a", "<eol>", "<eos>"], [0.5, 1.0, 2.0], 3, 0.28))  # <eol> before a later <eos>
@example((["a", "<eob>", "b", "<eob>", "c"], [0.5] * 5, 3, 0.28))  # collapsed cues
@example((["a", "<eob>", "b", "<eol>", "c"], [0.5, 1.0, 1.5, 2.0, 2.5], 3, 0.28))  # words after <eob>
@example((["<eos>"], [0.5], 3, 0.28))
@example(([], [], 3, 0.28))
@example((["a", "<eob>"], [0.5, 0.5], 1, 5e-324))
def test_srt_of_columns_equals_the_block_schedule(columns):
    surfaces, times, k, step = columns
    log = EmissionLog("s", 1.0, k, step, parse_token_stream(zip(surfaces, times)))
    expected = export_srt(screen_schedule(log, DisplayMode.BLOCKS))
    assert _srt_of_columns(("s", 1.0, k, step, surfaces, times, None)) == expected.encode("utf-8")
