import pytest
from hypothesis import given
from hypothesis import strategies as st

from livesubs import (
    EmissionLog,
    EmptySurfaceError,
    NonMonotonicTimeError,
    StreamError,
    Terminator,
    TokenKind,
    delay_k_seconds,
    extract_blocks,
    extract_lines,
    parse_token_stream,
)


def test_parse_classifies_breaks():
    events = parse_token_stream([("Hello", 1.0), ("<eob>", 1.2)])
    assert [e.kind for e in events] == [TokenKind.WORD, TokenKind.END_OF_BLOCK]
    assert events[0].surface == "Hello"
    assert events[1].emit_time == 1.2


def test_parse_empty_stream():
    assert parse_token_stream([]) == ()


def test_parse_rejects_decreasing_time():
    with pytest.raises(NonMonotonicTimeError):
        parse_token_stream([("a", 1.0), ("b", 0.5)])


def test_parse_rejects_empty_surface():
    with pytest.raises(EmptySurfaceError):
        parse_token_stream([("", 1.0)])


def test_word_surface_rejects_whitespace():
    with pytest.raises(StreamError):
        parse_token_stream([("two words", 1.0)])


@pytest.mark.parametrize("surface,kind", [
    ("<eol>", TokenKind.END_OF_LINE),
    ("<eob>", TokenKind.END_OF_BLOCK),
    ("<eos>", TokenKind.END_OF_SEGMENT),
    ("<EOB>", TokenKind.WORD),  # break symbols are exact surface matches
    ("word", TokenKind.WORD),
])
def test_surface_classification(surface, kind):
    (event,) = parse_token_stream([(surface, 0.0)])
    assert event.kind is kind


def test_extract_blocks_two_blocks():
    events = parse_token_stream(
        [("Good", 1.0), ("morning", 1.5), ("<eob>", 2.0), ("friends", 3.0), ("<eob>", 4.0)]
    )
    blocks = extract_blocks(events)
    assert [b.block_time for b in blocks] == [2.0, 4.0]
    assert blocks[0].text == "Good morning"
    assert blocks[1].text == "friends"


def test_extract_blocks_eol_splits_lines():
    events = parse_token_stream([("a", 1.0), ("<eol>", 1.2), ("b", 1.5), ("<eob>", 2.0)])
    blocks = extract_blocks(events)
    assert len(blocks) == 1
    assert len(blocks[0].lines) == 2
    assert blocks[0].lines[0].break_time == 1.2
    assert blocks[0].block_time == 2.0
    assert blocks[0].text == "a b"


def test_extract_blocks_trailing_run_is_implicit():
    blocks = extract_blocks(parse_token_stream([("a", 1.0)]))
    assert len(blocks) == 1
    assert blocks[0].terminator is Terminator.IMPLICIT_END
    assert blocks[0].block_time == 1.0


def test_extract_lines_unified_delimiter():
    events = parse_token_stream([("a", 1.0), ("<eol>", 1.2), ("b", 1.5), ("<eob>", 2.0)])
    lines = extract_lines(events)
    assert [ln.break_time for ln in lines] == [1.2, 2.0]


def test_extract_lines_single_break():
    lines = extract_lines(parse_token_stream([("a", 1.0), ("<eob>", 2.0)]))
    assert len(lines) == 1


def test_extract_lines_empty_line_preserved():
    lines = extract_lines(parse_token_stream([("<eol>", 1.0)]))
    assert len(lines) == 1
    assert lines[0].words == ()
    assert lines[0].text == ""


def test_eos_contributes_no_words():
    events = parse_token_stream([("a", 1.0), ("<eob>", 2.0), ("<eos>", 2.5)])
    assert extract_blocks(events)[0].text == "a"
    assert len(extract_lines(events)) == 1


def test_delay_k():
    assert delay_k_seconds(3) == pytest.approx(0.84)
    assert delay_k_seconds(5, 0.280) == pytest.approx(1.4)
    with pytest.raises(ValueError):
        delay_k_seconds(0)


def test_emission_log_validation():
    events = parse_token_stream([("a", 1.0)])
    with pytest.raises(StreamError):
        EmissionLog("s", 0.0, 3, events=events)
    with pytest.raises(StreamError):
        EmissionLog("s", 2.0, 3, events=parse_token_stream([("<eos>", 0.5), ("a", 1.0)]))



NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("t", NON_FINITE)
def test_parse_rejects_non_finite_time(t):
    with pytest.raises(StreamError, match="finite"):
        parse_token_stream([("a", t)])
    with pytest.raises(StreamError):  # -inf fails as a decrease first
        parse_token_stream([("a", 1.0), ("<eob>", t)])


@pytest.mark.parametrize("x", NON_FINITE)
def test_emission_log_rejects_non_finite_parameters(x):
    events = parse_token_stream([("a", 1.0)])
    for args in [(x, 3, 0.28), (2.0, x, 0.28), (2.0, 3, x)]:
        with pytest.raises(StreamError, match="finite"):
            EmissionLog("s", *args, events=events)
    with pytest.raises(ValueError, match="finite"):
        delay_k_seconds(3, x)
    with pytest.raises(ValueError, match="finite"):
        delay_k_seconds(x)


token_streams = st.lists(
    st.tuples(
        st.sampled_from(["foo", "bar", "xyzzy", "<eol>", "<eob>"]),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ),
    max_size=40,
).map(lambda raw: sorted(raw, key=lambda p: p[1]))


@given(token_streams)
def test_every_word_in_exactly_one_line_and_block(raw):
    events = parse_token_stream(raw)
    words = [e for e in events if e.is_word]
    lines = extract_lines(events)
    blocks = extract_blocks(events)
    assert [w for ln in lines for w in ln.words] == words
    assert [w for b in blocks for w in b.words] == words


@given(token_streams)
def test_line_count_matches_break_count(raw):
    events = parse_token_stream(raw)
    lines = extract_lines(events)
    n_breaks = sum(
        1 for e in events if e.kind in (TokenKind.END_OF_LINE, TokenKind.END_OF_BLOCK)
    )
    trailing_words = bool(events) and events[-1].is_word
    assert len(lines) == n_breaks + (1 if trailing_words else 0)


@given(token_streams)
def test_block_round_trip(raw):
    # Re-inserting breaks at the recorded line/block boundaries reproduces
    # the word/break subsequence of the input.
    events = parse_token_stream(raw)
    rebuilt = []
    for block in extract_blocks(events):
        for line in block.lines:
            rebuilt.extend(w.surface for w in line.words)
            if line.terminator is Terminator.END_OF_LINE:
                rebuilt.append("<eol>")
            elif line.terminator is Terminator.END_OF_BLOCK:
                rebuilt.append("<eob>")
    original = [e.surface for e in events if e.kind is not TokenKind.END_OF_SEGMENT]
    assert rebuilt == original
