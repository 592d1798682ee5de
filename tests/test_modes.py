"""The mode table and the schedule-free evaluate path.

evaluate_log computes each mode's delay in closed form from one segmentation
pass. These properties pin it to the schedule-based definitions it replaced
(display_delay over schedule_*), and extract_blocks to a literal token walk,
on random and adversarial break-annotated streams.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import livesubs.core
import livesubs.display
import livesubs.report as report
from livesubs import (
    DisplayMode,
    EmissionLog,
    average_lagging,
    display_delay,
    evaluate_corpus,
    evaluate_log,
    extract_blocks,
    extract_lines,
    group_word_blocks,
    parse_token_stream,
    rs_blocks,
    rs_lines,
    rs_word_blocks,
    schedule_block_mode,
    schedule_line_mode,
    schedule_word_mode,
)
from livesubs.report import MODE_ORDER, MODES, screen_schedule

from conftest import make_refs, simulate_corpus
from oracles import naive_blocks, naive_delay_ms, naive_display_times

LONG = "x" * 90  # longer than an 84-character row

ADVERSARIAL = {
    "eob-first": [("<eob>", 0.0), ("a", 0.5), ("<eob>", 1.0)],
    "double-breaks": [
        ("a", 0.1), ("<eol>", 0.2), ("<eol>", 0.3), ("b", 0.4), ("<eob>", 0.5),
        ("<eob>", 0.6), ("c", 0.7),
    ],
    "burst": [("a", 1.0), ("bb", 1.0), ("<eob>", 1.0), ("c", 1.0), ("<eob>", 1.0), ("<eos>", 1.0)],
    "trailing-words": [("a", 0.1), ("<eob>", 0.2), ("b", 0.3), ("c", 0.4), ("<eos>", 0.9)],
    "trailing-eol": [("a", 0.1), ("<eol>", 0.2), ("<eos>", 0.9)],
    "long-word": [("a", 0.1), (LONG, 0.2), ("b", 0.3), ("<eol>", 0.4), (LONG, 0.5), ("<eob>", 0.6)],
    # lines of 5, 6, 42 and 43 characters: either side of both cpl bounds
    "cpl-bounds": [
        ("abcdef", 0.1), ("<eol>", 0.2), ("x" * 42, 0.3), ("<eob>", 0.4),
        ("abcde", 0.5), ("<eob>", 0.6), ("y" * 43, 0.7), ("<eob>", 0.8),
    ],
}

surfaces = st.one_of(
    st.sampled_from(["a", "bb", "word", "<eol>", "<eob>"]),
    st.text(alphabet="xyz", min_size=1, max_size=100),
)
gaps = st.one_of(st.just(0.0), st.sampled_from([0.07, 0.28, 1.5]), st.floats(0.0, 3.0))


@st.composite
def streams(draw):
    """Timed token streams with bursts of equal timestamps and an optional
    final <eos>."""
    t = draw(st.floats(0.0, 5.0))
    raw = []
    for surface, gap in draw(st.lists(st.tuples(surfaces, gaps), max_size=30)):
        t += gap
        raw.append((surface, t))
    if draw(st.booleans()):
        raw.append(("<eos>", t + draw(gaps)))
    return raw


def plain(blocks):
    """Package blocks in the oracle's plain-data shape."""
    return [
        (
            [
                ([(w.surface, w.emit_time) for w in line.words], line.break_time,
                 line.terminator.value)
                for line in block.lines
            ],
            block.block_time,
            block.terminator.value,
        )
        for block in blocks
    ]


def check_against_schedules(raw, max_row_chars=84, k=3, duration=5.0):
    log = EmissionLog("seg", duration, k, events=parse_token_stream(raw))
    metrics = evaluate_log(log, max_row_chars=max_row_chars)
    al = average_lagging(log)
    word_blocks = group_word_blocks(log.events, max_row_chars)
    blocks = extract_blocks(log.events)
    lines = extract_lines(log.events)
    assert metrics.average_lagging == al
    assert metrics.delay_by_mode == {
        DisplayMode.WORD_FOR_WORD: display_delay(schedule_word_mode(word_blocks), log, al),
        DisplayMode.BLOCKS: display_delay(schedule_block_mode(blocks), log, al),
        DisplayMode.SCROLLING_LINES: display_delay(schedule_line_mode(lines), log, al),
    }
    assert metrics.rs_samples == {
        DisplayMode.WORD_FOR_WORD: rs_word_blocks(word_blocks, log.delay_k, "seg"),
        DisplayMode.BLOCKS: rs_blocks(blocks, log.delay_k, "seg"),
        DisplayMode.SCROLLING_LINES: rs_lines(lines, log.delay_k, "seg"),
    }
    assert metrics.n_blocks == len(blocks)
    assert metrics.n_conforming_blocks == sum(
        1 for b in blocks if all(6 <= line.char_length <= 42 for line in b.lines)
    )


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_streams_match_schedules(name):
    check_against_schedules(ADVERSARIAL[name])
    check_against_schedules(ADVERSARIAL[name], max_row_chars=10, k=1, duration=0.5)


@given(streams(), st.sampled_from([10, 84]), st.integers(1, 5), st.floats(0.5, 20.0))
def test_evaluate_log_equals_schedule_delays(raw, max_row_chars, k, duration):
    assume(any(s not in ("<eol>", "<eob>", "<eos>") for s, _ in raw))
    check_against_schedules(raw, max_row_chars, k, duration)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_blocks_match_token_walk(name):
    raw = ADVERSARIAL[name]
    assert plain(extract_blocks(parse_token_stream(raw))) == naive_blocks(raw)


@given(streams())
def test_extract_blocks_equals_token_walk(raw):
    assert plain(extract_blocks(parse_token_stream(raw))) == naive_blocks(raw)


def test_mode_table_covers_every_mode_in_order():
    assert MODE_ORDER == tuple(MODES) == tuple(DisplayMode)


def test_evaluate_builds_no_schedule(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("evaluate built a screen schedule")

    for name in ("schedule_word_mode", "schedule_block_mode", "schedule_line_mode"):
        monkeypatch.setattr(report, name, forbidden)
    result = evaluate_corpus(simulate_corpus(make_refs(20, seed=3), k=3))
    assert result.n_segments == 20


def test_evaluate_builds_no_block_group_or_schedule_objects(monkeypatch):
    """Blocks and word groups are index ranges over the lines and words: no
    object is built only to be thrown away."""
    logs = simulate_corpus(make_refs(40, seed=8), k=3)
    expected = evaluate_corpus(logs)

    class Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError(f"evaluate built a {type(self).__name__}")

    for module, name in (
        (livesubs.core, "SubtitleBlock"),
        (livesubs.display, "WordBlock"),
        (livesubs.display, "DisplaySchedule"),
    ):
        monkeypatch.setattr(module, name, type(name, (Forbidden,), {}))
    assert evaluate_corpus(logs) == expected


def check_display_times(raw, max_row_chars=84):
    """Schedules' word_display_times and evaluate_log's delays against a
    token walk of when each word is first shown: when emitted in word mode,
    when its block or line is complete in the other two."""
    log = EmissionLog("seg", 5.0, 3, events=parse_token_stream(raw))
    emitted = [w.emit_time for w in log.words]
    metrics = evaluate_log(log, max_row_chars=max_row_chars) if emitted else None
    for mode in DisplayMode:
        times = naive_display_times(raw, mode.value)
        schedule = screen_schedule(log, mode, max_row_chars)
        assert schedule.word_display_times == dict(enumerate(times))
        if metrics is not None:
            assert metrics.delay_by_mode[mode] == pytest.approx(
                naive_delay_ms(emitted, times, metrics.average_lagging), abs=1e-6
            )


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_display_times_match_token_walk(name):
    check_display_times(ADVERSARIAL[name])
    check_display_times(ADVERSARIAL[name], max_row_chars=10)


@given(streams(), st.sampled_from([10, 84]))
def test_display_times_equal_token_walk(raw, max_row_chars):
    check_display_times(raw, max_row_chars)
