from hypothesis import given
from hypothesis import strategies as st

from livesubs import (
    DisplayMode,
    close_schedule,
    extract_blocks,
    extract_lines,
    group_word_blocks,
    parse_token_stream,
    schedule_block_mode,
    schedule_line_mode,
    schedule_word_mode,
)


def words(*pairs):
    return parse_token_stream(list(pairs))


def test_group_packs_greedily():
    # 80 chars of words, then a 10-char word: the long word starts block 2
    events = words(*[("x" * 26, float(i)) for i in range(3)], ("y" * 10, 3.0))
    blocks = group_word_blocks(events, max_chars=84)
    assert len(blocks) == 2
    assert blocks[0].char_length == 80
    assert blocks[1].text == "y" * 10


def test_group_fills_a_row_to_exactly_max_chars():
    events = words(("x" * 41, 0.0), ("y" * 42, 1.0))  # 41 + 1 + 42 = 84
    assert [b.char_length for b in group_word_blocks(events, max_chars=84)] == [84]
    assert [b.char_length for b in group_word_blocks(events, max_chars=83)] == [41, 42]


def test_group_single_word():
    (block,) = group_word_blocks(words(("Hi", 1.0)))
    assert block.char_length == 2


def test_group_arithmetic():
    # 9-char words: 8 fit (8*9+7=79), a 9th would make 89 > 84
    events = words(*[("abcdefghi", float(i)) for i in range(30)])
    blocks = group_word_blocks(events, max_chars=84)
    assert [len(b.words) for b in blocks[:-1]] == [8, 8, 8]
    assert all(b.char_length <= 84 for b in blocks)


def test_group_skips_breaks():
    events = words(("a", 1.0), ("<eol>", 1.1), ("b", 1.2), ("<eob>", 1.3))
    (block,) = group_word_blocks(events)
    assert block.text == "a b"


def test_group_oversized_word_own_block():
    events = words(("a", 0.0), ("z" * 90, 1.0), ("b", 2.0))
    blocks = group_word_blocks(events, max_chars=84)
    assert [b.text for b in blocks] == ["a", "z" * 90, "b"]


def test_word_mode_states():
    blocks = group_word_blocks(words(("Hi", 1.0), ("there", 1.4), ("x" * 80, 2.4)))
    schedule = schedule_word_mode(blocks)
    assert schedule.states[0].rows == ("Hi",)
    assert (schedule.states[0].onset, schedule.states[0].offset) == (1.0, 1.4)
    assert schedule.states[1].rows == ("Hi there",)
    assert (schedule.states[1].onset, schedule.states[1].offset) == (1.4, 2.4)
    assert schedule.word_display_times == {0: 1.0, 1: 1.4, 2: 2.4}


def test_word_mode_single_word_open_ended():
    schedule = schedule_word_mode(group_word_blocks(words(("Hi", 1.0))))
    assert len(schedule.states) == 1
    assert schedule.states[0].offset is None


def test_word_mode_empty():
    schedule = schedule_word_mode(())
    assert schedule.states == ()
    assert schedule.word_display_times == {}


def test_block_mode_states():
    events = words(("Good", 1.0), ("morning", 1.5), ("<eob>", 2.0), ("friends", 3.0), ("<eob>", 4.0))
    schedule = schedule_block_mode(extract_blocks(events))
    assert (schedule.states[0].onset, schedule.states[0].offset) == (2.0, 4.0)
    assert schedule.states[1].offset is None
    assert schedule.word_display_times == {0: 2.0, 1: 2.0, 2: 4.0}


def test_block_mode_two_line_rows():
    events = words(("a", 1.0), ("<eol>", 1.2), ("b", 1.5), ("<eob>", 2.0))
    schedule = schedule_block_mode(extract_blocks(events))
    assert schedule.states[0].rows == ("a", "b")


def test_line_mode_scroll():
    events = words(
        ("Hello", 1.0), ("there", 1.5), ("<eol>", 2.0),
        ("friends", 2.5), ("<eob>", 3.0),
        ("bye", 4.0), ("<eob>", 5.0),
    )
    schedule = schedule_line_mode(extract_lines(events))
    assert schedule.states[0].rows == ("Hello there",)
    assert (schedule.states[0].onset, schedule.states[0].offset) == (2.0, 3.0)
    assert schedule.states[1].rows == ("Hello there", "friends")
    assert (schedule.states[1].onset, schedule.states[1].offset) == (3.0, 5.0)
    assert schedule.states[2].rows == ("friends", "bye")
    assert schedule.states[2].offset is None


def test_line_mode_single_line_open_ended():
    schedule = schedule_line_mode(extract_lines(words(("a", 1.0), ("<eob>", 2.0))))
    assert len(schedule.states) == 1
    assert schedule.states[0].rows == ("a",)
    assert schedule.states[0].offset is None


def test_close_schedule():
    schedule = schedule_line_mode(extract_lines(words(("a", 1.0), ("<eob>", 2.0))))
    closed = close_schedule(schedule, 2.84)
    assert closed.states[-1].offset == 2.84
    assert closed.mode is DisplayMode.SCROLLING_LINES


def test_close_schedule_never_ends_a_state_before_it_is_shown():
    schedule = schedule_line_mode(extract_lines(words(("a", 1.0), ("<eob>", 2.0))))
    assert close_schedule(schedule, 1.5).states[-1].offset == 2.0


raw_streams = st.lists(
    st.tuples(
        st.sampled_from(["alpha", "bb", "longishword", "<eol>", "<eob>"]),
        st.floats(min_value=0, max_value=50, allow_nan=False),
    ),
    max_size=60,
).map(lambda raw: sorted(raw, key=lambda p: p[1]))


def states_tile_time(schedule):
    for a, b in zip(schedule.states, schedule.states[1:]):
        assert a.offset is not None
        assert a.onset < a.offset
        assert a.offset <= b.onset
    return True


@given(raw_streams)
def test_schedule_invariants(raw):
    events = parse_token_stream(raw)
    word_sched = schedule_word_mode(group_word_blocks(events))
    block_sched = schedule_block_mode(extract_blocks(events))
    line_sched = schedule_line_mode(extract_lines(events))

    assert all(len(s.rows[0]) <= 84 for s in word_sched.states)
    assert all(len(s.rows) <= 2 for s in line_sched.states)
    for sched in (word_sched, block_sched, line_sched):
        states_tile_time(sched)
        times = [sched.word_display_times[i] for i in range(len(sched.word_display_times))]
        assert times == sorted(times)

    # availability ordering: word <= line <= block, per word
    n_words = sum(1 for e in events if e.is_word)
    assert len(word_sched.word_display_times) == n_words
    for i in range(n_words):
        assert word_sched.word_display_times[i] <= line_sched.word_display_times[i]
        assert line_sched.word_display_times[i] <= block_sched.word_display_times[i]
