import pytest
from hypothesis import given
from hypothesis import strategies as st

from livesubs import (
    EmissionLog,
    EmptyLogError,
    MismatchedSegmentError,
    average_lagging,
    display_delay,
    extract_blocks,
    extract_lines,
    group_word_blocks,
    parse_token_stream,
    schedule_block_mode,
    schedule_line_mode,
    schedule_word_mode,
)

from oracles import naive_al_ms


def make_log(raw, duration=10.0, k=3, g=None):
    events = parse_token_stream(raw)
    return EmissionLog(
        "seg", duration, k, events=events,
        consumed_source=tuple(g) if g is not None else None,
    )


def test_al_hand_example():
    g = [0.84, 1.12, 1.40, 2.00]
    log = make_log(
        [("a", 0.84), ("b", 1.12), ("c", 1.40), ("d", 2.00)], duration=2.0, g=g
    )
    assert average_lagging(log) == pytest.approx(590.0)
    assert average_lagging(log) == pytest.approx(naive_al_ms(g, 2.0), abs=1e-9)


def test_al_adds_left_to_right():
    # Builtin sum() is compensated from Python 3.12 on and makes this 2273.75;
    # a report has the same bytes on every Python version.
    g = [3.75, 3.77, 4.61, 4.84]
    log = make_log(list(zip("abcd", g)), duration=5.25, g=g)
    assert average_lagging(log) == 2273.7499999999995


def test_al_no_cutoff_uses_all_tokens():
    # ideal system: everything emitted before any source consumed
    log = make_log([("a", 0.0), ("b", 0.0)], duration=2.0, g=[0.0, 0.0])
    # tau = |Y| = 2; AL = (0 + (0 - 1.0)) / 2
    assert average_lagging(log) == pytest.approx(-500.0)


def test_al_falls_back_to_emit_times():
    log = make_log([("a", 1.0), ("b", 3.0)], duration=2.0)
    # g = [1.0, min(3.0, 2.0)] -> tau = 2
    assert average_lagging(log) == pytest.approx(naive_al_ms([1.0, 2.0], 2.0))


def test_al_ignores_break_tokens():
    g = [0.84, 1.12, 1.40, 2.00]
    base = make_log(
        [("a", 0.84), ("b", 1.12), ("c", 1.40), ("d", 2.00)], duration=2.0, g=g
    )
    with_breaks = make_log(
        [("a", 0.84), ("b", 1.12), ("c", 1.40), ("d", 2.00), ("<eob>", 2.0), ("<eos>", 2.0)],
        duration=2.0,
        g=g + [2.0, 2.0],
    )
    assert average_lagging(with_breaks) == pytest.approx(average_lagging(base))


def test_al_empty_log():
    with pytest.raises(EmptyLogError):
        average_lagging(make_log([("<eob>", 1.0)], duration=2.0))


def test_delay_empty_log():
    log = make_log([("<eob>", 1.0)], duration=2.0)
    schedule = schedule_block_mode(extract_blocks(log.events))
    with pytest.raises(EmptyLogError):
        display_delay(schedule, log, 0.0)


def test_word_mode_delay_equals_al():
    log = make_log([("a", 1.0), ("b", 1.5), ("<eob>", 2.0)], duration=5.0)
    al = average_lagging(log)
    schedule = schedule_word_mode(group_word_blocks(log.events))
    assert display_delay(schedule, log, al) == al


def test_block_mode_delay_hand_example():
    log = make_log([("aa", 1.0), ("bb", 1.5), ("<eob>", 2.0)], duration=5.0)
    schedule = schedule_block_mode(extract_blocks(log.events))
    # mean lag ((2.0-1.0)+(2.0-1.5))/2 = 0.75 s on top of AL = 1000 ms
    assert display_delay(schedule, log, 1000.0) == pytest.approx(1750.0)


def test_line_mode_zero_added_lag():
    # every word coincides with its break time -> delay = AL
    log = make_log([("a", 2.0), ("<eob>", 2.0)], duration=5.0)
    schedule = schedule_line_mode(extract_lines(log.events))
    al = average_lagging(log)
    assert display_delay(schedule, log, al) == pytest.approx(al)


def test_mismatched_segment():
    log = make_log([("a", 1.0), ("b", 1.5)], duration=5.0)
    other = make_log([("a", 1.0)], duration=5.0)
    schedule = schedule_word_mode(group_word_blocks(other.events))
    with pytest.raises(MismatchedSegmentError):
        display_delay(schedule, log, 0.0)


def test_delay_ordering_block_line_word():
    raw = [
        ("one", 0.5), ("two", 1.0), ("<eol>", 1.2), ("three", 1.5), ("<eob>", 2.0),
        ("four", 2.5), ("<eob>", 3.0),
    ]
    log = make_log(raw, duration=4.0)
    al = average_lagging(log)
    d_word = display_delay(schedule_word_mode(group_word_blocks(log.events)), log, al)
    d_line = display_delay(schedule_line_mode(extract_lines(log.events)), log, al)
    d_block = display_delay(schedule_block_mode(extract_blocks(log.events)), log, al)
    assert d_block > d_line > d_word


@given(
    st.lists(st.floats(min_value=0.05, max_value=30, allow_nan=False), min_size=2, max_size=15),
    st.floats(min_value=0.1, max_value=5),
)
def test_time_scaling(times, c):
    times = sorted(times)
    raw = [("word", t) for t in times]
    log = make_log(raw, duration=20.0)
    scaled = EmissionLog(
        "seg", 20.0 * c, log.wait_k,
        events=parse_token_stream([("word", t * c) for t in times]),
    )
    assert average_lagging(scaled) == pytest.approx(c * average_lagging(log), rel=1e-9)
