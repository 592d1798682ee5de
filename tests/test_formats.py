import dataclasses
import io
import json
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from livesubs import (
    AnnotatedReference,
    EmissionLog,
    NonMonotonicTimeError,
    NonPositiveDurationError,
    SchemaError,
    StreamError,
    TokenEvent,
    TokenKind,
    WaitKConfig,
    close_schedule,
    export_srt,
    extract_blocks,
    parse_token_stream,
    read_annotated_refs,
    read_log_corpus,
    schedule_block_mode,
    schedule_line_mode,
    simulate_waitk,
    write_annotated_refs,
    write_log_corpus,
)
from livesubs.formats import SRT_END_MS, _record_line, format_srt_time, log_from_record
from livesubs.core import _check_columns
from livesubs.formats import log_to_record
from livesubs.latency import EmptyLogError, LatencyOverflowError

from conftest import make_refs, simulate_corpus
from oracles import naive_log_fault, parse_srt


def corpus_text(logs):
    buf = io.StringIO()
    write_log_corpus(logs, buf)
    return buf.getvalue()


class TestLogCorpus:
    def test_single_record(self):
        line = json.dumps(
            {"id": "s1", "duration": 4.2, "k": 3, "step": 0.28,
             "events": [{"t": 1.0, "w": "Hello"}, {"t": 1.5, "w": "<eob>"}]}
        )
        (log,) = read_log_corpus([line])
        assert log.segment_id == "s1"
        assert len(log.events) == 2
        assert log.events[1].surface == "<eob>"

    def test_missing_field_named(self):
        line = json.dumps({"id": "s1", "k": 3, "step": 0.28, "events": []})
        with pytest.raises(SchemaError, match="duration"):
            list(read_log_corpus([line]))

    def test_error_carries_line_number(self):
        good = json.dumps({"id": "s", "duration": 1.0, "k": 1, "step": 0.28, "events": []})
        with pytest.raises(SchemaError, match="line 2"):
            list(read_log_corpus([good, "{not json"]))

    def test_non_monotonic_time(self):
        line = json.dumps(
            {"id": "s1", "duration": 4.2, "k": 3, "step": 0.28,
             "events": [{"t": 1.0, "w": "a"}, {"t": 0.5, "w": "b"}]}
        )
        with pytest.raises(NonMonotonicTimeError):
            list(read_log_corpus([line]))

    def test_nonpositive_duration(self):
        line = json.dumps({"id": "s1", "duration": 0, "k": 3, "step": 0.28, "events": []})
        with pytest.raises(NonPositiveDurationError):
            list(read_log_corpus([line]))

    def test_round_trip_values(self):
        logs = simulate_corpus(make_refs(50, seed=1), k=3)
        text = corpus_text(logs)
        back = list(read_log_corpus(io.StringIO(text)))
        assert back == logs

    def test_round_trip_bytes_canonical(self):
        logs = simulate_corpus(make_refs(50, seed=2), k=5, compute_latency=0.013)
        text = corpus_text(logs)
        again = corpus_text(read_log_corpus(io.StringIO(text)))
        assert again == text

    def test_large_corpus_order_preserved(self):
        logs = simulate_corpus(make_refs(1000, seed=4), k=3)
        back = list(read_log_corpus(io.StringIO(corpus_text(logs))))
        assert [x.segment_id for x in back] == [x.segment_id for x in logs]


class TestAnnotatedRefs:
    def test_basic(self):
        (ref,) = read_annotated_refs(["s1\t4.2\tHello world <eob>"])
        assert ref.segment_id == "s1"
        assert ref.duration == 4.2
        assert ref.tokens == ("Hello", "world", "<eob>")

    def test_zero_duration(self):
        with pytest.raises(NonPositiveDurationError):
            list(read_annotated_refs(["s1\t0\tHello"]))

    def test_bad_field_count(self):
        with pytest.raises(SchemaError):
            list(read_annotated_refs(["s1 4.2 Hello"]))

    def test_round_trip(self):
        refs = make_refs(20, seed=5)
        buf = io.StringIO()
        write_annotated_refs(refs, buf)
        back = list(read_annotated_refs(io.StringIO(buf.getvalue())))
        assert back == refs


class TestSrt:
    def _schedule(self, raw, duration=10.0, k=3):
        from livesubs import EmissionLog, parse_token_stream

        log = EmissionLog("s", duration, k, events=parse_token_stream(raw))
        return close_schedule(
            schedule_block_mode(extract_blocks(log.events)),
            log.end_time + log.delay_k,
        )

    def test_single_cue(self):
        sched = self._schedule(
            [("Good", 1.0), ("morning", 1.5), ("<eob>", 2.0), ("x", 3.0), ("<eob>", 4.0)]
        )
        srt = export_srt(sched)
        assert srt.startswith("1\n00:00:02,000 --> 00:00:04,000\nGood morning\n")

    def test_two_line_cue(self):
        sched = self._schedule(
            [("a", 1.0), ("<eol>", 1.2), ("b", 1.5), ("<eob>", 2.0)]
        )
        cues = parse_srt(export_srt(sched))
        assert cues[0][2] == ("a", "b")

    def test_empty_schedule(self):
        sched = self._schedule([])
        assert export_srt(sched) == ""

    def test_final_cue_closed_at_delay_k(self):
        sched = self._schedule([("a", 1.0), ("<eob>", 2.0)], k=3)
        cues = parse_srt(export_srt(sched))
        assert cues[-1][1] == pytest.approx(2.0 + 0.84, abs=1e-3)

    def test_cue_past_the_largest_srt_time_rejected(self):
        # 359,999.5 s plus the 0.84 s wait-3 delay ends past 99:59:59,999
        sched = self._schedule([("a", 359999.5), ("<eob>", 359999.5)], k=3)
        with pytest.raises(ValueError, match="cue 1 ends at 360000.34 s, past the largest SRT time"):
            export_srt(sched)
        # one cue earlier ends in time
        sched = self._schedule([("a", 359998.5), ("<eob>", 359999.0)], k=3)
        assert export_srt(sched) == "1\n99:59:59,000 --> 99:59:59,840\na\n"

    def test_open_schedule_rejected(self):
        from livesubs import parse_token_stream

        sched = schedule_block_mode(
            extract_blocks(parse_token_stream([("a", 1.0), ("<eob>", 2.0)]))
        )
        with pytest.raises(ValueError):
            export_srt(sched)

    def test_line_mode_rejected(self):
        from livesubs import extract_lines, parse_token_stream

        sched = schedule_line_mode(
            extract_lines(parse_token_stream([("a", 1.0), ("<eob>", 2.0)]))
        )
        with pytest.raises(ValueError):
            export_srt(sched)

    def test_reparse_matches_schedule(self):
        logs = simulate_corpus(make_refs(20, seed=6), k=3)
        for log in logs:
            sched = close_schedule(
                schedule_block_mode(extract_blocks(log.events)),
                log.end_time + log.delay_k,
            )
            cues = parse_srt(export_srt(sched))
            assert len(cues) == len(sched.states)
            for cue, state in zip(cues, sched.states):
                assert cue[0] == pytest.approx(state.onset, abs=1e-3)
                assert cue[1] == pytest.approx(state.offset, abs=1e-3)
                assert cue[2] == state.rows


def test_format_srt_time():
    assert format_srt_time(0.0) == "00:00:00,000"
    assert format_srt_time(3661.5) == "01:01:01,500"
    assert format_srt_time(0.0004) == "00:00:00,000"


def test_srt_times_below_the_end_have_two_hour_digits():
    # 359999.9995 s is 359,999,999.5 ms, which rounds half to even up to 100 h
    last = math.nextafter(359999.9995, 0.0)
    assert last * 1000 < SRT_END_MS <= 359999.9995 * 1000
    assert format_srt_time(last) == "99:59:59,999"
    assert format_srt_time(359999.9995) == "100:00:00,000"


OVERLAPPING = """
from livesubs import DisplayMode, DisplaySchedule, ScreenState, export_srt

states = (ScreenState(("a",), 1.0, 3.0), ScreenState(("b",), 2.0, 4.0))
try:
    export_srt(DisplaySchedule(DisplayMode.BLOCKS, states, {}))
except ValueError as exc:
    print(exc)
"""


def test_overlapping_cues_rejected_even_under_optimize():
    import os
    import subprocess
    import sys

    import livesubs

    src = os.path.dirname(os.path.dirname(livesubs.__file__))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", OVERLAPPING],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert "overlapping cues" in proc.stdout


def test_overlapping_cues_rejected():
    from livesubs import DisplayMode, DisplaySchedule, ScreenState

    states = (ScreenState(("a",), 1.0, 3.0), ScreenState(("b",), 2.0, 4.0))
    with pytest.raises(ValueError, match=r"^overlapping cues: cue 2 starts before cue 1 ends$"):
        export_srt(DisplaySchedule(DisplayMode.BLOCKS, states, {}))


def _one_cue(onset, offset):
    from livesubs import DisplayMode, DisplaySchedule, ScreenState

    return DisplaySchedule(DisplayMode.BLOCKS, (ScreenState(("a",), onset, offset),), {})


@pytest.mark.parametrize("onset", [-2.0, -1e-300, math.nan])
def test_cue_starting_before_zero_rejected(onset):
    with pytest.raises(ValueError, match=rf"cue 1 starts at {onset!r} s, before 0 s"):
        export_srt(_one_cue(onset, 1.0))


def test_cue_ending_before_it_starts_rejected():
    with pytest.raises(ValueError, match=r"cue 1 ends at 3\.0 s, before it starts"):
        export_srt(_one_cue(5.0, 3.0))
    # a cue may end as it starts, at 0 s
    assert export_srt(_one_cue(0.0, 0.0)) == "1\n00:00:00,000 --> 00:00:00,000\na\n"


@pytest.mark.parametrize(
    "exc",
    [
        SchemaError("missing", 3, "id"),
        SchemaError("invalid JSON", 7, None),
        SchemaError("no line"),
        NonPositiveDurationError("duration must be > 0", 2, "duration"),
        NonMonotonicTimeError("emission time decreases: 0.5 after 1.0"),
        EmptyLogError("segment s: no word events"),
        LatencyOverflowError("segment s: AL is not a finite number of ms", 4, "duration"),
    ],
)
def test_stream_errors_survive_pickling(exc):
    # errors raised in a worker process reach the parent pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert (back.message, back.line, back.field) == (exc.message, exc.line, exc.field)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["duration", "t"])
def test_log_corpus_rejects_non_finite_numbers(constant, where):
    record = json.dumps(
        {"id": "s1", "duration": 4.2, "k": 3, "step": 0.28,
         "events": [{"t": 1.0, "w": "Hello"}, {"t": 1.5, "w": "<eob>"}]}
    )
    bad = record.replace("4.2" if where == "duration" else "1.5", constant)
    with pytest.raises(SchemaError, match=f"line 5: non-finite number {constant}"):
        list(read_log_corpus([record, "", bad], start=3))


@pytest.mark.parametrize("duration", ["nan", "inf", "NaN", "Infinity"])
def test_refs_reject_non_finite_duration(duration):
    with pytest.raises(SchemaError, match="line 2, field 'duration'") as info:
        list(read_annotated_refs(["s0\t2.0\ta b <eob>\n", f"s1\t{duration}\ta b <eob>\n"]))
    assert info.value.field == "duration"


def test_decreasing_time_names_its_line():
    good = json.dumps({"id": "s0", "duration": 1.0, "k": 1, "step": 0.28, "events": []})
    bad = json.dumps(
        {"id": "s1", "duration": 4.2, "k": 3, "step": 0.28,
         "events": [{"t": 1.0, "w": "a"}, {"t": 0.5, "w": "b"}]}
    )
    with pytest.raises(NonMonotonicTimeError) as info:
        list(read_log_corpus([good, bad], start=4))
    exc = info.value
    assert str(exc) == "line 5, field 'events': emission time decreases: 0.5 after 1.0"
    assert (exc.line, exc.field) == (5, "events")
    assert str(pickle.loads(pickle.dumps(exc))) == str(exc)


def test_corpus_writer_never_writes_non_finite_numbers():
    # The constructors check the times; consumed_source is checked as the
    # reader checks it, before the line is rendered.
    for g in (math.nan, math.inf, -math.inf):
        log = EmissionLog("s", 2.0, 3, events=parse_token_stream([("a", 1.0)]),
                          consumed_source=(g,))
        out = io.StringIO()
        with pytest.raises(SchemaError) as info:
            write_log_corpus([log], out)
        assert (info.value.line, info.value.field) == (None, "g")
        assert out.getvalue() == ""



# Numbers at the edges of float text: zero, subnormals, the smallest
# normal, 1e16 (the first written with an exponent) and 1e308; ints too.
_EDGE_NUMBERS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e16, 1e308, 0, 7, 10**20]
# Text json escapes: quotes, backslashes, control characters; and text it
# does not: U+2028, non-ASCII, a lone surrogate.
_EDGE_TEXT = st.text(st.sampled_from('"\\\x00\x07\x1b\x7f\u2028é字\ud800a<>/') | st.characters())
_WORDS = st.sampled_from(["<eol>", "<eob>"]) | _EDGE_TEXT.map(
    lambda w: "".join(w.split()).replace("<eos>", "") or "x"
)


class _Int(int):
    """An int subclass, which json.dumps writes as int.__repr__ does."""

    def __repr__(self):
        return f"_Int({int(self)})"


@st.composite
def _logs(draw):
    n = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(
        st.sampled_from(_EDGE_NUMBERS) | st.floats(0.0, 1e308), min_size=n, max_size=n,
    )))
    surfaces = draw(st.lists(_WORDS, min_size=n, max_size=n))
    if surfaces and draw(st.booleans()):
        surfaces[-1] = "<eos>"
    positive = st.sampled_from([x for x in _EDGE_NUMBERS if x]) | st.floats(1e-300, 1e308)
    g = draw(st.none() | st.lists(
        st.sampled_from(_EDGE_NUMBERS) | st.floats(0.0, 1e308), min_size=n, max_size=n,
    ))
    return EmissionLog(
        draw(_EDGE_TEXT), draw(positive), draw(st.integers(1, 10**20)), draw(positive),
        parse_token_stream(zip(surfaces, times)), None if g is None else tuple(g),
    )


@settings(max_examples=300)
@given(_logs())
@example(EmissionLog("", 1, 1, 1))
@example(EmissionLog('a"\\\n\u2028é', 1e308, 3, 5e-324,
                     parse_token_stream([("\x00\"", 0.0), ("<eos>", 1e16)]), (0, 1e308)))
@example(EmissionLog("s", 1.0, _Int(3), 0.28, parse_token_stream([("a", 0.5), ("b", 0.9)])))
def test_corpus_line_is_what_json_dumps_writes(log):
    expected = json.dumps(log_to_record(log), ensure_ascii=False, allow_nan=False) + "\n"
    times = [ev.emit_time for ev in log.events]
    fields = (log.segment_id, log.source_duration, log.wait_k, log.step_size,
              [ev.surface for ev in log.events], times)
    assert _record_line(*fields, log.consumed_source) == expected
    # The writer writes that line when the reader accepts it, and otherwise
    # raises the reader's error and writes nothing.
    out = io.StringIO()
    try:
        list(read_log_corpus([expected]))
    except SchemaError as read:
        with pytest.raises(SchemaError) as info:
            write_log_corpus([log], out)
        assert (info.value.line, info.value.field) == (None, read.field)
        assert info.value.message == read.message
        assert out.getvalue() == ""
    else:
        assert corpus_text([log]) == expected
    # The simulator passes one list as both times and consumed source.
    record = {**log_to_record(log), "g": times}
    line = _record_line(*fields, times)
    assert line == json.dumps(record, ensure_ascii=False, allow_nan=False) + "\n"

# Faults, one or two of which are set in a valid event list, so that each
# decides the outcome often: a time before the previous one, negative,
# infinite (the JSON number 1e400), an integer or a bool; a surface empty
# or with whitespace; <eos> anywhere.
_TIME_FAULTS = [-1.0, -0.0, math.inf, -math.inf, 2, 10**6, True, False]
_SURFACE_FAULTS = ["", " ", "a b", "a\tb", "x\u00a0y", "\u3000", "a\n", "<eos>"]


@st.composite
def _records(draw):
    events = []
    t = draw(st.floats(0.0, 5.0))
    for _ in range(draw(st.integers(0, 6))):
        t += draw(st.sampled_from([0.5, 0.0]) | st.floats(0.0, 3.0))
        events.append({"t": t, "w": draw(st.sampled_from(["a", "bb", "<eol>", "<eob>", "é"]))})
    if events and draw(st.booleans()):
        events[-1]["w"] = "<eos>"
    for _ in range(draw(st.integers(0, 2)) if events else 0):
        ev = events[draw(st.integers(0, len(events) - 1))]
        fault = draw(st.sampled_from(["earlier", "time", "surface"]))
        if fault == "earlier":
            ev["t"] -= 0.25 + ev["t"] / 2
        elif fault == "time":
            ev["t"] = draw(st.sampled_from(_TIME_FAULTS))
        else:
            ev["w"] = draw(st.sampled_from(_SURFACE_FAULTS))
    record = {"id": "s", "duration": 4.0, "k": 3, "step": 0.28, "events": events}
    if draw(st.booleans()):
        record["g"] = [min(4.0, 0.5 * j) for j in range(len(events))]
    return record


def _reader_rejection(record, line):
    """The error log_from_record(record, line) must raise, made by the
    reader's type check or by the constructors themselves."""
    for j, ev in enumerate(record["events"]):
        if isinstance(ev["t"], bool):
            return SchemaError(f"event {j} needs a number 't', got {ev!r}", line, "events")
    raw = [(ev["w"], float(ev["t"])) for ev in record["events"]]
    g = record.get("g")
    try:
        return EmissionLog(
            record["id"], record["duration"], record["k"], record["step"],
            events=parse_token_stream(raw),
            consumed_source=None if g is None else tuple(map(float, g)),
        )
    except NonMonotonicTimeError as exc:
        return NonMonotonicTimeError(exc.message, line, "events")
    except StreamError as exc:
        return SchemaError(exc.message, line, "events")


def _events(*pairs, g=False):
    record = {"id": "s", "duration": 4.0, "k": 3, "step": 0.28,
              "events": [{"t": t, "w": w} for t, w in pairs]}
    if g:
        record["g"] = [min(4.0, 0.5 * j) for j in range(len(pairs))]
    return record


@settings(max_examples=300)
@given(_records())
@example(_events((0.5, "a"), (0.5, "<eos>"), (1.0, "b")))
@example(_events((0.5, "a"), (0.25, "b"), g=True))
@example(_events((-1.0, "a"), (0.5, "b")))
@example(_events((0.5, "a"), (math.inf, "b")))
@example(_events((0.5, "a"), (1, "b"), (True, "c")))
@example(_events((0.5, "a"), (1.0, "")))
@example(_events((0.5, "a"), (1.0, "x\u00a0y")))
@example(_events((0.5, "<eos>")))
def test_reader_checks_each_event_as_the_constructors_do(record):
    """The reader checks the events in one pass of its own: the same log as
    the constructors build, or the same error as they raise, re-raised
    naming the line and field."""
    expected = _reader_rejection(record, 7)
    try:
        log = log_from_record(record, 7)
    except StreamError as exc:
        assert isinstance(expected, StreamError), exc
        assert type(exc) is type(expected)
        assert (str(exc), exc.line, exc.field) == (str(expected), 7, "events")
    else:
        assert log == expected
        assert all(type(ev.emit_time) is float for ev in log.events)


# Faults in the fields of a log: not a number, not finite, out of range, a
# bool (which the rules take for 0 or 1) and an integer no float holds.
_PARAM_FAULTS = [0, -1.0, 0.5, math.inf, -math.inf, math.nan, True, 10**400]


@st.composite
def _columns(draw):
    """(id, duration, k, step, surfaces, times, consumed) of a valid log,
    with up to three faults set in it."""
    n = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    surfaces = draw(st.lists(
        st.sampled_from(["a", "bb", "<eol>", "<eob>", "é"]), min_size=n, max_size=n,
    ))
    if surfaces and draw(st.booleans()):
        surfaces[-1] = "<eos>"
    params = [4.0, 3, 0.28]
    consumed = draw(st.none() | st.just(list(times)))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["earlier", "time", "surface", "consumed", "param"]))
        j = draw(st.integers(0, n - 1)) if n else None
        if fault == "earlier" and n:
            times[j] -= 0.25 + times[j] / 2
        elif fault == "time" and n:
            times[j] = draw(st.sampled_from(_TIME_FAULTS))
        elif fault == "surface" and n:
            surfaces[j] = draw(st.sampled_from(_SURFACE_FAULTS))
        elif fault == "consumed":
            consumed = [0.0] * draw(st.sampled_from([m for m in (0, n + 1, n - 1) if m >= 0]))
        elif fault == "param":
            params[draw(st.integers(0, 2))] = draw(st.sampled_from(_PARAM_FAULTS))
    return ("s", *params, surfaces, times, consumed)


@settings(max_examples=500)
@given(_columns())
@example(("s", 4.0, 3, 0.28, ["a", "<eos>", ""], [0.5, 0.25, 1.0], None))
@example(("s", math.nan, 0, 0.28, ["a", "b"], [0.5, 1.0], [0.0]))
@example(("s", 4.0, 3, -1.0, ["<eos>", "a"], [0.5, 1.0], [0.0]))
@example(("s", 4.0, 3, 0.28, ["a"], [0.5], [0.0, 0.0]))
@example(("s", 4.0, 3, 0.28, ["a\n"], [math.inf], None))
def test_checker_raises_what_the_oracle_names(columns):
    """The column checker, and the constructors it stands in for, accept
    what the oracle accepts and raise the oracle's error otherwise."""
    expected = naive_log_fault(*columns)
    seg_id, duration, k, step, surfaces, times, consumed = columns
    runs = [
        lambda: _check_columns(*columns),
        lambda: EmissionLog(
            seg_id, duration, k, step, parse_token_stream(zip(surfaces, times)), consumed
        ),
    ]
    for run in runs:
        try:
            run()
        except StreamError as exc:
            assert expected is not None, exc
            assert (type(exc).__name__, str(exc), exc.field) == (*expected, None)
        else:
            assert expected is None


# Text without lone surrogates, which no UTF-8 file holds.
_TEXT = _EDGE_TEXT.filter(lambda text: not any("\ud800" <= c <= "\udfff" for c in text))
# Fields of a type the reader rejects, each with a value EmissionLog holds.
_TYPE_FAULTS = [("segment_id", 5), ("segment_id", None), ("source_duration", True),
                ("wait_k", True), ("wait_k", 3.0), ("step_size", True)]


@st.composite
def _writable_logs(draw):
    """A log whose fields and events the reader accepts, or one whose field
    is of a type it rejects."""
    n = draw(st.integers(0, 6))
    duration = draw(st.sampled_from([1, 7, 1e-300]) | st.floats(1e-300, 1e300))
    times = sorted(draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n)))
    words = st.sampled_from(["<eol>", "<eob>"]) | _TEXT.map(
        lambda w: "".join(w.split()).replace("<", "") or "x"
    )
    surfaces = draw(st.lists(words, min_size=n, max_size=n))
    if surfaces and draw(st.booleans()):
        surfaces[-1] = "<eos>"
    g = draw(st.none() | st.lists(st.floats(0.0, duration), min_size=n, max_size=n).map(sorted))
    log = EmissionLog(
        draw(_TEXT), duration, draw(st.integers(1, 1000)), draw(st.floats(1e-3, 1e3)),
        parse_token_stream(zip(surfaces, times)), None if g is None else tuple(g),
    )
    fault = draw(st.none() | st.sampled_from(_TYPE_FAULTS))
    return log if fault is None else dataclasses.replace(log, **dict([fault]))


@settings(max_examples=300)
@given(_writable_logs())
@example(EmissionLog(5, 1.0, 3))
@example(EmissionLog("s", 1.0, True))
@example(EmissionLog("s", 1.0, 3.0))
@example(EmissionLog("s", True, 3))
@example(EmissionLog("s", 1.0, 3, events=(TokenEvent("a", TokenKind.WORD, True),)))
def test_log_corpus_round_trips_or_is_refused(log):
    """read(write(log)) == log for every log the writer accepts. A log it
    refuses is one whose line the reader rejects, naming the same field."""
    line = json.dumps(log_to_record(log), ensure_ascii=False, allow_nan=False) + "\n"
    try:
        text = corpus_text([log])
    except SchemaError as exc:
        with pytest.raises(SchemaError) as read:
            list(read_log_corpus([line]))
        assert (exc.line, exc.field) == (None, read.value.field)
        assert exc.message == read.value.message
    else:
        assert text == line
        assert list(read_log_corpus([text])) == [log]


def _read_refs(text):
    # Universal newlines, as the commands open a file: \r ends a line too.
    return list(read_annotated_refs(io.StringIO(text, newline=None)))


_REF_TEXT = st.text(st.sampled_from("ab <>\t\n\r\x0b\u2028é\ud800"), max_size=4)


@st.composite
def _refs(draw):
    tokens = draw(st.lists(
        _REF_TEXT | st.sampled_from(["<eol>", "<eob>", "word"]), min_size=1, max_size=4,
    ))
    return AnnotatedReference(
        draw(_REF_TEXT | st.sampled_from([5, None])), tuple(tokens),
        draw(st.floats(1e-300, 1e300) | st.sampled_from([True, 2, 0.1, 10**400])),
    )


@settings(max_examples=300)
@given(_refs())
@example(AnnotatedReference("a\tb", ("x",), 1.0))
@example(AnnotatedReference("a\nb", ("x",), 1.0))
@example(AnnotatedReference("a\rb", ("x",), 1.0))
@example(AnnotatedReference(5, ("x",), 1.0))
@example(AnnotatedReference("s", ("x y",), 1.0))
@example(AnnotatedReference("s", ("", "x"), 1.0))
@example(AnnotatedReference("s", ("x",), True))
@example(AnnotatedReference("s\ud800", ("x",), 1.0))
def test_refs_round_trip_or_are_refused(ref):
    """read(write(ref)) == [ref] for every reference the writer accepts. A
    reference it refuses is one that the reader rejects or reads back as
    another; on a line that no tab or line break splits, the reader names
    the writer's field."""
    line = f"{ref.segment_id}\t{ref.duration}\t{' '.join(ref.tokens)}\n"
    split = line[:-1].count("\t") != 2 or "\n" in line[:-1] or "\r" in line
    out = io.StringIO()
    try:
        write_annotated_refs([ref], out)
    except SchemaError as exc:
        assert out.getvalue() == ""
        assert exc.line is None and exc.field in ("id", "tokens", "duration")
        try:
            back = _read_refs(line)
        except SchemaError as read:
            assert split or read.field == exc.field
        else:
            assert back != [ref]
    else:
        assert out.getvalue() == line
        assert _read_refs(line) == [ref]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("duration", "2", "expected a number, got '2'"),
        ("step", None, "expected a number, got None"),
        ("k", 3.0, "expected int, got 3.0"),
        ("id", 5, "expected str, got 5"),
    ],
)
def test_a_field_of_the_wrong_type_names_the_type(field, value, message):
    record = {"id": "s", "duration": 2.0, "k": 3, "step": 0.28, "events": [], field: value}
    with pytest.raises(SchemaError) as info:
        log_from_record(record, 4)
    assert str(info.value) == f"line 4, field {field!r}: {message}"


def test_writer_refuses_a_time_the_reader_rejects():
    a = TokenEvent("a", TokenKind.WORD, 0.5)
    log = EmissionLog("s", 2.0, 3, events=(a, TokenEvent("b", TokenKind.WORD, True)))
    out = io.StringIO()
    with pytest.raises(SchemaError) as info:
        write_log_corpus([EmissionLog("s0", 2.0, 3, events=(a,)), log], out)
    assert str(info.value) == "record, field 'events': event 1 needs a number 't', got {'t': True, 'w': 'b'}"
    # the log before it is written, nothing of the refused one
    assert [r.segment_id for r in read_log_corpus(out.getvalue().splitlines())] == ["s0"]


_A = parse_token_stream([("a", 0.5)])


@pytest.mark.parametrize(
    "log, field, message",
    [
        (EmissionLog("s", 1.0, 10**400), "k", "step * k must be a finite number of seconds"),
        (EmissionLog("s", 1.0, 3, events=_A, consumed_source=(5.0,)), "g",
         "entry 0 is 5.0; entries must be numbers in [0, 1.0] that never decrease"),
        (EmissionLog("s", 1.0, 3, events=_A, consumed_source=(-1.0,)), "g",
         "entry 0 is -1.0; entries must be numbers in [0, 1.0] that never decrease"),
        (EmissionLog("\ud800", 1.0, 3), "id", "not UTF-8 text: '\\ud800'"),
        (EmissionLog("s", 10**400, 3), "duration", "integer too large for a float"),
        # the reader's rule comes before the writer's own kind check
        (EmissionLog("s", 1.0, 3, events=(TokenEvent("<eos>", TokenKind.WORD, 0.5), *_A)),
         "events", "segment s: <eos> is not the last event"),
    ],
    ids=["k-overflow", "g-past-duration", "g-negative", "id-surrogate", "duration-overflow",
         "eos-not-last"],
)
def test_writer_refuses_a_value_the_reader_rejects(log, field, message):
    line = json.dumps(log_to_record(log), ensure_ascii=False) + "\n"
    with pytest.raises(SchemaError) as read:
        list(read_log_corpus([line]))
    assert (read.value.field, read.value.message) == (field, message)
    out = io.StringIO()
    with pytest.raises(SchemaError) as info:
        write_log_corpus([EmissionLog("s0", 1.0, 3, events=_A), log], out)
    assert (info.value.line, info.value.field, info.value.message) == (None, field, message)
    # the log before it is written, nothing of the refused one
    assert [r.segment_id for r in read_log_corpus(out.getvalue().splitlines())] == ["s0"]


@pytest.mark.parametrize(
    "event, message",
    [
        (TokenEvent("<eol>", TokenKind.WORD, 1.0), "'<eol>' of kind word is read back as kind eol"),
        (TokenEvent("a", TokenKind.END_OF_BLOCK, 1.0), "'a' of kind eob is read back as kind word"),
    ],
)
def test_writer_refuses_an_event_read_back_as_another_kind(event, message):
    log = EmissionLog("s", 2.0, 3, events=(TokenEvent("a", TokenKind.WORD, 0.5), event))
    out = io.StringIO()
    with pytest.raises(SchemaError) as info:
        write_log_corpus([log], out)
    assert (info.value.line, info.value.field) == (None, "events")
    assert info.value.message == f"event 1: {message}"
    assert out.getvalue() == ""

