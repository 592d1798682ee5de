import dataclasses
import io
import json
import math
import pickle
from fractions import Fraction

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
from livesubs.core import classify_surface
from livesubs.report import evaluate_log
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
    # The writer is never handed a number JSON cannot hold: the constructors
    # refuse a non-finite consumed source, naming field 'g' with the
    # reader's message for the same record.
    record = {"id": "s", "duration": 2.0, "k": 3, "step": 0.28, "events": [{"t": 1.0, "w": "a"}]}
    for g in (math.nan, math.inf, -math.inf):
        with pytest.raises(StreamError) as info:
            EmissionLog("s", 2.0, 3, events=parse_token_stream([("a", 1.0)]),
                        consumed_source=(g,))
        with pytest.raises(SchemaError) as read:
            log_from_record({**record, "g": [g]})
        assert (info.value.line, info.value.field) == (None, "g")
        assert info.value.message == read.value.message


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
def _fields(draw):
    """(id, duration, k, step, surfaces, times, g) of a log at the edges of
    JSON text and numbers. Some break a rule that the constructors and the
    reader both keep: a lone surrogate, step * k too large for a float, g
    outside [0, duration] or decreasing."""
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
    return (
        draw(_EDGE_TEXT), draw(positive), draw(st.integers(1, 10**20)), draw(positive),
        surfaces, times, None if g is None else tuple(g),
    )


@settings(max_examples=300)
@given(_fields())
@example(("", 1, 1, 1, [], [], None))
@example(('a"\\\n\u2028é', 1e308, 3, 5e-324, ["\x00\"", "<eos>"], [0.0, 1e16], (0, 1e308)))
@example(("s", 1.0, _Int(3), 0.28, ["a", "b"], [0.5, 0.9], None))
def test_corpus_line_is_what_json_dumps_writes(fields):
    seg_id, duration, k, step, surfaces, times, g = fields
    record = {"id": seg_id, "duration": duration, "k": k, "step": step,
              "events": [{"t": t, "w": w} for w, t in zip(surfaces, times)]}
    if g is not None:
        record["g"] = list(g)
    expected = json.dumps(record, ensure_ascii=False, allow_nan=False) + "\n"
    assert _record_line(*fields) == expected
    # The writer writes that line for the log of these fields. The
    # constructors refuse exactly the fields whose line the reader rejects,
    # naming its field with its message.
    try:
        log = EmissionLog(seg_id, duration, k, step, parse_token_stream(zip(surfaces, times)), g)
    except StreamError as exc:
        with pytest.raises(SchemaError) as read:
            list(read_log_corpus([expected]))
        assert (exc.line, exc.field, exc.message) == (None, read.value.field, read.value.message)
    else:
        assert log_to_record(log) == record
        assert corpus_text([log]) == expected
    # The simulator passes one list as both times and consumed source.
    record["g"] = times
    line = _record_line(*fields[:-1], times)
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
# bool (which the rules take for 0 or 1), an integer no float holds, a
# float k, a text field's wrong type.
_PARAM_FAULTS = [0, -1.0, 0.5, 3.0, math.inf, -math.inf, math.nan, True, 10**400, "3", None]
_ID_FAULTS = [5, None, True, "s\ud800"]
# Faults in the consumed source: past the duration (4 s), negative, not a
# number, no float, and 3.5, which the entries after it may be below.
_CONSUMED_FAULTS = [5.0, -1.0, math.nan, math.inf, True, 10**400, "0.5", 3.5]
_BREAK_KINDS = {"<eol>": "eol", "<eob>": "eob", "<eos>": "eos"}


@st.composite
def _columns(draw):
    """((id, duration, k, step, surfaces, times, consumed), kinds) of a
    valid log with up to three faults set in it. kinds, the events' kinds
    when they are built one by one, are the surfaces' own unless a fault
    sets one to another."""
    n = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    surfaces = draw(st.lists(
        st.sampled_from(["a", "bb", "<eol>", "<eob>", "é"]), min_size=n, max_size=n,
    ))
    if surfaces and draw(st.booleans()):
        surfaces[-1] = "<eos>"
    kinds = None
    seg_id = "s"
    params = [4.0, 3, 0.28]
    # None, times clamped to the duration, or the times list itself, as the
    # simulator passes its flushed times.
    consumed = draw(st.sampled_from([None, [min(t, 4.0) for t in times], times]))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(
            ["earlier", "time", "surface", "consumed", "param", "id", "g", "kind"]
        ))
        j = draw(st.integers(0, n - 1)) if n else None
        if fault == "earlier" and n:
            try:
                times[j] -= 0.25 + times[j] / 2
            except OverflowError:  # a time fault of 10**400, which no float halves
                pass
        elif fault == "time" and n:
            times[j] = draw(st.sampled_from([*_TIME_FAULTS, 10**400, math.nan, Fraction(1, 2)]))
        elif fault == "surface" and n:
            surfaces[j] = draw(st.sampled_from([*_SURFACE_FAULTS, "a\ud800", "\udcff"]))
        elif fault == "consumed":
            consumed = [0.0] * draw(st.sampled_from([m for m in (0, n + 1, n - 1) if m >= 0]))
        elif fault == "param":
            params[draw(st.integers(0, 2))] = draw(st.sampled_from(_PARAM_FAULTS))
        elif fault == "id":
            seg_id = draw(st.sampled_from(_ID_FAULTS))
        elif fault == "g" and consumed:
            consumed = list(consumed)  # a fault in g alone, not in the times
            consumed[draw(st.integers(0, len(consumed) - 1))] = draw(
                st.sampled_from(_CONSUMED_FAULTS)
            )
        elif fault == "kind" and n:
            kinds = kinds or [_BREAK_KINDS.get(s, "word") for s in surfaces]
            kinds[j] = draw(st.sampled_from(["word", "eol", "eob", "eos"]))
    return (seg_id, *params, surfaces, times, consumed), kinds


@settings(max_examples=500)
@given(_columns())
@example((("s", 4.0, 3, 0.28, ["a", "<eos>", ""], [0.5, 0.25, 1.0], None), None))
@example((("s", math.nan, 0, 0.28, ["a", "b"], [0.5, 1.0], [0.0]), None))
@example((("s", 4.0, 3, -1.0, ["<eos>", "a"], [0.5, 1.0], [0.0]), None))
@example((("s", 4.0, 3, 0.28, ["a"], [0.5], [0.0, 0.0]), None))
@example((("s", 4.0, 3, 0.28, ["a\n"], [math.inf], None), None))
@example((("s", True, 3, 0.28, ["a"], [0.5], None), None))
@example((("s", 4.0, 10**400, 0.28, ["a"], [0.5], None), None))
@example((("s", 4.0, 3, 0.28, ["a", "b"], [0.5, True], [0.5, 5.0]), None))
@example((("s", 4.0, 3, 0.28, ["a", "b"], [0.5, 1.0], [0.5, 0.25]), ["word", "eol"]))
@example((("s", 4.0, 3, 0.28, ["a b", "b"], [1.0, 0.5], None), ["eol", "word"]))
@example((("s", 4.0, 3, 0.28, ["a", "b"], *[[0.5, 5.0]] * 2), None))
@example((("s", 4.0, 3, 0.28, ["a", "b"], [0.5, True], None), None))
def test_checker_raises_what_the_oracle_names(case):
    """The column checker, and the constructors it stands in for, accept
    what the oracle accepts and raise the oracle's error otherwise, naming
    its field; so do the constructors of events built one by one, kinds
    included."""
    columns, kinds = case
    seg_id, duration, k, step, surfaces, times, consumed = columns
    if kinds is None:
        kinds = [_BREAK_KINDS.get(s, "word") for s in surfaces]
    runs = [
        (naive_log_fault(*columns), lambda: _check_columns(*columns)),
        (naive_log_fault(*columns), lambda: EmissionLog(
            seg_id, duration, k, step, parse_token_stream(zip(surfaces, times)), consumed
        )),
        (naive_log_fault(*columns, kinds=kinds), lambda: EmissionLog(
            seg_id, duration, k, step,
            tuple(TokenEvent(s, TokenKind(kind), t) for s, kind, t in zip(surfaces, kinds, times)),
            consumed,
        )),
    ]
    for expected, run in runs:
        try:
            run()
        except StreamError as exc:
            assert expected is not None, exc
            assert (type(exc).__name__, str(exc), exc.field, exc.line) == (*expected, None)
        else:
            assert expected is None


def _one_fault_columns():
    """Valid columns with one fault set in them from the lists above, each
    in turn: the faults that only the checker's fast pass can let through."""
    valid = ("s", 4.0, 3, 0.28, ["a", "é", "b"], [0.5, 1.0, 1.5], [0.5, 1.0, 1.5])

    def put(i, value):
        return (*valid[:i], value, *valid[i + 1:])

    return [
        *[put(0, x) for x in _ID_FAULTS],
        *[put(i, x) for i in (1, 2, 3) for x in _PARAM_FAULTS],
        *[put(4, ["a", x, "b"]) for x in [*_SURFACE_FAULTS, "a\ud800", "\udcff"]],
        *[put(5, [0.5, 1.0, x]) for x in [*_TIME_FAULTS, 10**400, math.nan, Fraction(3, 2)]],
        *[put(6, [0.5, 1.0, x]) for x in _CONSUMED_FAULTS],
        put(6, [0.5, 1.0]),
    ]


@pytest.mark.parametrize("columns", _one_fault_columns())
def test_checker_raises_what_the_oracle_names_for_one_fault(columns):
    expected = naive_log_fault(*columns)
    try:
        _check_columns(*columns)
    except StreamError as exc:
        assert (type(exc).__name__, str(exc), exc.field, exc.line) == (*expected, None)
    else:
        assert expected is None


def _as_read(log):
    """log as the reader reads its line back: every number but k a float,
    as JSON numbers are read. It equals log when each int in it is one that
    a float equals."""
    g = log.consumed_source
    return EmissionLog(
        log.segment_id, float(log.source_duration), log.wait_k, float(log.step_size),
        parse_token_stream([(ev.surface, float(ev.emit_time)) for ev in log.events]),
        None if g is None else tuple(map(float, g)),
    )


# Text without lone surrogates, which no UTF-8 file holds.
_TEXT = _EDGE_TEXT.filter(lambda text: not any("\ud800" <= c <= "\udfff" for c in text))
# Fields of a type the reader rejects, each in place of a valid value; the
# events field holds a bool time.
_TYPE_FAULTS = [("segment_id", 5), ("segment_id", None), ("source_duration", True),
                ("wait_k", True), ("wait_k", 3.0), ("step_size", True),
                ("events", (TokenEvent("a", TokenKind.WORD, True),))]
_RECORD_KEYS = {"segment_id": "id", "source_duration": "duration", "wait_k": "k",
                "step_size": "step", "events": "events"}


@st.composite
def _writable_logs(draw):
    """(log, fault): a log whose fields and events the reader accepts, and
    None or a (field, value) of a type the reader rejects."""
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
    return log, draw(st.none() | st.sampled_from(_TYPE_FAULTS))


_LOG = EmissionLog("s", 1.0, 3, events=parse_token_stream([("a", 0.5)]))


@settings(max_examples=300)
@given(_writable_logs())
@example((_LOG, ("segment_id", 5)))
@example((_LOG, ("wait_k", True)))
@example((_LOG, ("wait_k", 3.0)))
@example((_LOG, ("source_duration", True)))
@example((_LOG, ("events", (TokenEvent("a", TokenKind.WORD, True),))))
def test_log_corpus_round_trips_or_is_refused(case):
    """read(write(log)) == [log] for every log that can be built. A field of
    a type the reader rejects is refused by the constructors, naming the
    reader's field with its message, so no writer is handed it."""
    log, fault = case
    if fault is None:
        line = json.dumps(log_to_record(log), ensure_ascii=False, allow_nan=False) + "\n"
        text = corpus_text([log])
        assert text == line
        assert list(read_log_corpus([text])) == [log]
        return
    name, value = fault
    with pytest.raises(StreamError) as built:
        dataclasses.replace(log, **{name: value})
    record = log_to_record(log)
    record[_RECORD_KEYS[name]] = (
        [{"t": ev.emit_time, "w": ev.surface} for ev in value] if name == "events" else value
    )
    with pytest.raises(SchemaError) as read:
        list(read_log_corpus([json.dumps(record, ensure_ascii=False) + "\n"]))
    assert (built.value.line, built.value.field) == (None, read.value.field)
    assert built.value.message == read.value.message


def _read_refs(text):
    # Universal newlines, as the commands open a file: \r ends a line too.
    return list(read_annotated_refs(io.StringIO(text, newline=None)))


_REF_TEXT = st.text(st.sampled_from("ab <>\t\n\r\x0b\u2028é\ud800"), max_size=4)
# Durations of any type: a bool, an int no float equals, one too large for a
# float, and floats that are not finite or not > 0.
_ANY_DURATION = (
    st.floats(1e-300, 1e300) | st.floats()
    | st.sampled_from([True, False, 0, 2, 5, 0.1, 10**23, 10**400, math.nan])
)


@st.composite
def _ref_fields(draw):
    """(id, tokens, duration) of any type: the tokens a tuple or a list."""
    tokens = draw(st.lists(
        _REF_TEXT | st.sampled_from(["<eol>", "<eob>", "word"]), min_size=1, max_size=4,
    ))
    return (
        draw(_REF_TEXT | st.sampled_from([5, None])),
        draw(st.sampled_from([tuple, list]))(tokens),
        draw(_ANY_DURATION),
    )


def _ref_as_read(seg_id, tokens, duration):
    """The fields of a reference as the reader reads its line back: an int
    or float duration that a float holds as that float."""
    if type(duration) in (int, float) and abs(duration) < 10**309:
        duration = float(duration)
    return seg_id, tokens, duration


@settings(max_examples=300)
@given(_ref_fields())
@example(("a\tb", ("x",), 1.0))
@example(("a\nb", ("x",), 1.0))
@example(("a\rb", ("x",), 1.0))
@example((5, ("x",), 1.0))
@example(("s", ("x y",), 1.0))
@example(("s", ("", "x"), 1.0))
@example(("s", ("x",), True))
@example(("s\ud800", ("x",), 1.0))
@example(("s", ("x",), 10**23))
@example(("s", ["x"], 1.0))
@example((5, ("",), 1.0))
def test_refs_round_trip_or_are_refused(fields):
    """AnnotatedReference refuses exactly the fields whose line the reader
    rejects or reads back as another reference (a duration compared as the
    float the reader makes), raising a StreamError that names 'id',
    'duration' or 'tokens'. On a line that no tab or line break splits, the
    reader names that field, unless the id is not a str: the constructor
    then names 'id', which the line cannot show. Every reference that builds is written as that line, and
    read(write(ref)) == [ref]."""
    seg_id, tokens, duration = fields
    line = f"{seg_id}\t{duration}\t{' '.join(tokens)}\n"
    split = line[:-1].count("\t") != 2 or "\n" in line[:-1] or "\r" in line
    try:
        back = [(r.segment_id, r.tokens, r.duration) for r in _read_refs(line)]
    except SchemaError as read:
        back = read
    try:
        ref = AnnotatedReference(*fields)
    except StreamError as exc:
        assert exc.line is None and exc.field in ("id", "tokens", "duration")
        if isinstance(back, SchemaError):
            assert split or back.field == exc.field or (
                not isinstance(seg_id, str) and exc.field == "id"
            )
        else:
            assert back != [_ref_as_read(*fields)]
    else:
        assert back == [_ref_as_read(*fields)]
        out = io.StringIO()
        write_annotated_refs([ref], out)
        assert out.getvalue() == line
        assert _read_refs(line) == [dataclasses.replace(ref, duration=float(duration))]


@pytest.mark.parametrize(
    "fields, field, message",
    [
        (("s\ud800", ("a",), 1.0), "id", "not UTF-8 text: 's\\ud800'"),
        ((5, ("a",), 1.0), "id", "expected str, got 5"),
        (("s\tx", ("a",), 1.0), "id", "a tab or line break splits the line: 's\\tx'"),
        (("s", ("a",), True), "duration", "expected a number, got True"),
        (("s", ("a",), 10**400), "duration", "integer too large for a float"),
        (("s", ("a",), math.nan), "duration", "duration must be finite and > 0, got nan"),
        (("s", ("a b",), 1.0), "tokens", "('a b',) is read back as ('a', 'b')"),
        (("s", ("",), 1.0), "tokens", "('',) is read back as ()"),
        (("s", ["a"], 1.0), "tokens", "expected tuple, got ['a']"),
        (("s", ("a", 5), 1.0), "tokens", "expected str, got 5"),
        (("s", ("a", "\ud800"), 1.0), "tokens", "not UTF-8 text: 'a \\ud800'"),
    ],
    ids=["surrogate-id", "int-id", "tab-id", "bool-duration", "huge-duration", "nan-duration",
         "spaced-token", "empty-token", "list-tokens", "int-token", "surrogate-token"],
)
def test_reference_refuses_what_no_line_holds(fields, field, message):
    with pytest.raises(StreamError) as info:
        AnnotatedReference(*fields)
    assert (info.value.line, info.value.field, str(info.value)) == (None, field, message)


class _Id(str):
    def __format__(self, spec):
        return "other"

    def __str__(self):
        return "other"


class _Duration(float):
    def __format__(self, spec):
        return "9.0"

    def __repr__(self):
        return "9.0"


def test_writer_renders_the_base_types():
    # A subclass's own str, repr or format does not change the line.
    out = io.StringIO()
    write_annotated_refs([AnnotatedReference(_Id("s"), ("a",), _Duration(2.5))], out)
    assert out.getvalue() == "s\t2.5\ta\n"


def test_reader_refuses_an_id_holding_a_line_break():
    # A list of lines holds what a file read with universal newlines cannot.
    for text in ["s\r1\t1.0\ta\n", "s\n1\t1.0\ta"]:
        with pytest.raises(SchemaError) as info:
            list(read_annotated_refs([text]))
        assert (info.value.line, info.value.field) == (1, "id")
        assert info.value.message == f"a tab or line break splits the line: {text[:3]!r}"


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
    # No log holds a bool time: the constructors refuse it as the reader
    # rejects it, naming the event.
    a = TokenEvent("a", TokenKind.WORD, 0.5)
    with pytest.raises(StreamError) as info:
        EmissionLog("s", 2.0, 3, events=(a, TokenEvent("b", TokenKind.WORD, True)))
    assert (info.value.line, info.value.field) == (None, "events")
    assert str(info.value) == "event 1 needs a number 't', got {'t': True, 'w': 'b'}"
    record = {"id": "s", "duration": 2.0, "k": 3, "step": 0.28,
              "events": [{"t": 0.5, "w": "a"}, {"t": True, "w": "b"}]}
    with pytest.raises(SchemaError) as read:
        list(read_log_corpus([json.dumps(record)]))
    assert str(read.value) == f"line 1, field 'events': {info.value}"


_A = (TokenEvent("a", TokenKind.WORD, 0.5),)


@pytest.mark.parametrize(
    "fields, field, message",
    [
        ({"wait_k": 10**400}, "k", "step * k must be a finite number of seconds"),
        ({"events": _A, "consumed_source": (5.0,)}, "g",
         "entry 0 is 5.0; entries must be numbers in [0, 1.0] that never decrease"),
        ({"events": _A, "consumed_source": (-1.0,)}, "g",
         "entry 0 is -1.0; entries must be numbers in [0, 1.0] that never decrease"),
        ({"segment_id": "\ud800"}, "id", "not UTF-8 text: '\\ud800'"),
        ({"source_duration": 10**400}, "duration", "integer too large for a float"),
        ({"events": (TokenEvent("<eos>", TokenKind.END_OF_SEGMENT, 0.5), *_A)},
         "events", "segment s: <eos> is not the last event"),
    ],
    ids=["k-overflow", "g-past-duration", "g-negative", "id-surrogate", "duration-overflow",
         "eos-not-last"],
)
def test_writer_refuses_a_value_the_reader_rejects(fields, field, message):
    """No log holds a value the reader rejects: the constructors refuse it
    with the reader's field and message, so no writer is handed it."""
    fields = {"segment_id": "s", "source_duration": 1.0, "wait_k": 3, **fields}
    with pytest.raises(StreamError) as built:
        EmissionLog(**fields)
    assert (built.value.line, built.value.field, built.value.message) == (None, field, message)
    g = fields.get("consumed_source")
    record = {
        "id": fields["segment_id"], "duration": fields["source_duration"], "k": fields["wait_k"],
        "step": 0.28, "events": [{"t": ev.emit_time, "w": ev.surface} for ev in fields.get("events", ())],
        **({} if g is None else {"g": list(g)}),
    }
    with pytest.raises(SchemaError) as read:
        list(read_log_corpus([json.dumps(record, ensure_ascii=False) + "\n"]))
    assert (read.value.field, read.value.message) == (field, message)


@pytest.mark.parametrize(
    "event, message",
    [
        (("<eol>", TokenKind.WORD, 1.0), "'<eol>' of kind word is read back as kind eol"),
        (("a", TokenKind.END_OF_BLOCK, 1.0), "'a' of kind eob is read back as kind word"),
    ],
)
def test_writer_refuses_an_event_read_back_as_another_kind(event, message):
    # No event holds a kind its surface does not read back as: TokenEvent
    # refuses it, naming field 'events' (an event does not know its index).
    with pytest.raises(StreamError) as info:
        TokenEvent(*event)
    assert (info.value.line, info.value.field, info.value.message) == (None, "events", message)


_AB = parse_token_stream([("a", 0.5), ("b", 0.9)])


@pytest.mark.parametrize(
    "build, field, message",
    [
        (lambda: EmissionLog("s", 10**400, 3, 0.28, _AB), "duration",
         "integer too large for a float"),
        (lambda: EmissionLog("s", 1.0, 10**400, 0.28, _AB), "k",
         "step * k must be a finite number of seconds"),
        (lambda: EmissionLog("s", 1.0, 10**308, 10.0, _AB), "k",
         "step * k must be a finite number of seconds"),
        (lambda: EmissionLog("s", 1.0, 3, 0.28, _AB, (5.0, 0.2)), "g",
         "entry 0 is 5.0; entries must be numbers in [0, 1.0] that never decrease"),
        (lambda: EmissionLog("s", 1.0, 3, 0.28, _AB, (math.nan, 0.2)), "g",
         "entry 0 is nan; entries must be numbers in [0, 1.0] that never decrease"),
        (lambda: TokenEvent("<eol>", TokenKind.WORD, 1.0), "events",
         "'<eol>' of kind word is read back as kind eol"),
    ],
    ids=["huge-duration", "huge-k", "infinite-delay", "g-past-duration", "g-nan", "eol-word"],
)
def test_logs_that_broke_evaluate_log_do_not_build(build, field, message):
    """Each of these built before the constructors kept the reader's rules,
    and then evaluate_log raised OverflowError or measured nonsense (AL of
    5000 ms, 0.0 cps under an infinite delay, an error naming 'duration')."""
    with pytest.raises(StreamError) as info:
        build()
    assert (info.value.field, info.value.message) == (field, message)


# Values of every JSON type and of none, each of which some field rejects.
_ANY = st.sampled_from([
    None, True, False, "3", [], {}, 0, -1, 1, 3, 7, _Int(3), 10**20, 10**300, 10**400,
    0.0, -0.0, 0.5, 2.5, 1e308, math.nan, math.inf, -math.inf, Fraction(1, 2),
])
# A time of no number type at all is a TypeError in TokenEvent's range check.
_ANY_TIME = st.floats(0.0, 5.0) | st.sampled_from([
    True, False, 0, 2, 10**300, 10**400, -1.0, 1e308, math.nan, math.inf, Fraction(1, 2),
])
_ANY_WORD = st.sampled_from(["a", "bb", "<eol>", "<eob>", "<eos>", "é", "", "a b", "a\ud800"])


@st.composite
def _any_fields(draw):
    """(id, duration, k, step, (word, time) pairs, consumed): valid values
    with any of them replaced by a value of any type."""
    pairs = sorted(draw(st.lists(st.tuples(_ANY_WORD, st.floats(0.0, 1.0)), max_size=4)),
                   key=lambda p: p[1])
    pairs = [(w, draw(_ANY_TIME) if draw(st.integers(0, 5)) == 0 else t) for w, t in pairs]
    consumed = draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=len(pairs),
                                         max_size=len(pairs)).map(sorted))
    if consumed and draw(st.integers(0, 3)) == 0:
        consumed[draw(st.integers(0, len(consumed) - 1))] = draw(_ANY)
    fields = [draw(_TEXT | st.sampled_from(["s\ud800", 5])), 2.0, 3, 0.28]
    for i in draw(st.sets(st.integers(0, 3), max_size=2)):
        fields[i] = draw(_ANY)
    return (*fields, pairs, None if consumed is None else tuple(consumed))


@settings(max_examples=500)
@given(_any_fields())
@example(("s", 10**300, 3, 0.28, [("a", 10**300)], (10**300,)))
@example(("s", 2.0, 3, 0.28, [("a", Fraction(1, 2))], None))
def test_constructors_refuse_what_the_reader_rejects(fields):
    """For any field values, types included, the constructors raise exactly
    when log_from_record rejects the matching record; a log they build is
    written as a line that the reader reads back as it."""
    seg_id, duration, k, step, pairs, consumed = fields
    record = {"id": seg_id, "duration": duration, "k": k, "step": step,
              "events": [{"t": t, "w": w} for w, t in pairs]}
    if consumed is not None:
        record["g"] = list(consumed)
    try:
        read = log_from_record(record, 1)
    except StreamError as exc:
        assert isinstance(exc, SchemaError) or type(exc) is NonMonotonicTimeError
        with pytest.raises(StreamError):
            EmissionLog(seg_id, duration, k, step,
                        tuple(TokenEvent(w, classify_surface(w), t) for w, t in pairs), consumed)
        return
    log = EmissionLog(seg_id, duration, k, step,
                      tuple(TokenEvent(w, classify_surface(w), t) for w, t in pairs), consumed)
    assert read == _as_read(log)
    assert list(read_log_corpus([corpus_text([log])])) == [read]


# Single faults: (where, value), each set in a log of times and consumed
# source in [0, 0.5], a duration of 1 s or more and k of 2 or more, where it
# breaks one rule. where is a field, or an event's time ("t0" the first,
# "t-1" the last), word ("w" any, "w0" the first) or g entry ("g0", "g-1",
# "g" any); "g-len" drops the last entry.
_SINGLE_FAULTS = [
    *[("id", v) for v in (5, None, True, "s\ud800")],
    *[("duration", v) for v in (True, "4", None, 10**400, Fraction(1, 2), 0, -1.0, math.nan,
                                math.inf)],
    *[("k", v) for v in (True, 3.0, 3.5, "3", None, 10**400, 0, -1, 0.5, math.inf)],
    *[("step", v) for v in (True, "x", 10**400, 1e308, 0, math.nan, -math.inf)],
    ("t0", False), ("t0", -1.0), ("t0", 2.0),
    *[("t-1", v) for v in (True, 10**400, Fraction(1, 2), math.nan, math.inf)],
    ("w", "a\ud800"), ("w", "\udcff"), ("w", ""), ("w", "a b"), ("w0", "<eos>"),
    ("g0", -1.0), ("g0", 0.75), ("g", math.nan),
    *[("g-1", v) for v in (5.0, True, 10**400, math.inf)],
    ("g-len", None),
]


@st.composite
def _single_faults(draw):
    """(id, duration, k, step, (word, time) pairs, consumed, fault) of a
    log with one fault of _SINGLE_FAULTS set in it."""
    n = draw(st.integers(2, 5))
    times = sorted(draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n)))
    words = draw(st.lists(st.sampled_from(["a", "bb", "<eol>", "<eob>", "é"]),
                          min_size=n, max_size=n))
    consumed = sorted(draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n)))
    fields = {"id": draw(_TEXT), "duration": draw(st.floats(1.0, 4.0)),
              "k": draw(st.integers(2, 5)), "step": draw(st.floats(0.01, 1.0))}
    fault = where, value = draw(st.sampled_from(_SINGLE_FAULTS))
    j = {"0": 0, "-1": n - 1}.get(where[1:], draw(st.integers(0, n - 1)))
    if where in fields:
        fields[where] = value
    elif where[0] == "t":
        times[j] = value
    elif where[0] == "w":
        words[j] = value
    elif where == "g-len":
        consumed.pop()
    else:
        consumed[j] = value
    return (*fields.values(), list(zip(words, times)), tuple(consumed), fault)


@settings(max_examples=300)
@given(_single_faults())
def test_constructors_refuse_a_single_fault_as_the_reader_does(case):
    """With one rule broken, the constructors and the reader both refuse the
    log, naming the same field in the same words."""
    seg_id, duration, k, step, pairs, consumed, _ = case
    with pytest.raises(StreamError) as built:
        EmissionLog(seg_id, duration, k, step,
                    tuple(TokenEvent(w, classify_surface(w), t) for w, t in pairs), consumed)
    record = {"id": seg_id, "duration": duration, "k": k, "step": step,
              "events": [{"t": t, "w": w} for w, t in pairs], "g": list(consumed)}
    with pytest.raises(StreamError) as read:
        log_from_record(record, 1)
    assert (built.value.field, built.value.message) == (read.value.field, read.value.message)


_BOUNDARY_K = 2**1024 - 2**970 - 1  # the largest int that converts to a float


@settings(max_examples=300)
@given(
    _EDGE_TEXT | st.sampled_from(["s\ud800", 5]),
    st.lists(_ANY_WORD | _EDGE_TEXT, min_size=1, max_size=5),
    st.floats(1e-300, 1e308) | st.sampled_from([True, 10**400, 7, 10**20]),
    st.integers(1, 10**400) | st.sampled_from([True, 3.5, 3.0, _BOUNDARY_K]),
    st.floats(1e-300, 1e308) | st.sampled_from([True, 2, 10**400]),
    st.sampled_from([0.0, 0.013, 10**400, 10**308]) | st.floats(0.0, 1e308),
    st.booleans(),
)
@example("s", ["a", "b"], 2.0, 10**400, 0.28, 0.0, True)
@example("s", ["a", "b"], True, 3, 0.28, 0.0, True)
@example("s", ["a", "b"], 2.0, True, 0.28, 0.0, True)
@example("s", ["a", "b"], 2.0, 3.5, 0.28, 0.0, True)
@example("s", ["a", "b"], 10**400, 3, 0.28, 0.0, True)
@example("s\ud800", ["a", "b"], 2.0, 3, 0.28, 0.0, True)
@example("s", ["a", "b"], 2.0, _BOUNDARY_K, 0.5, 0.0, True)
@example("s", ["a", "b", "c"], 2.0, 3, 0.28, 10**308, True)
def test_simulated_logs_round_trip_or_are_refused(seg_id, tokens, duration, k, step, latency,
                                                   flush):
    """simulate_waitk, for any reference and policy that build, gives a log
    that write_log_corpus writes and read_log_corpus reads back as it, or
    raises ValueError (a StreamError is one); never OverflowError."""
    try:
        ref = AnnotatedReference(seg_id, tuple(tokens), duration)
        cfg = WaitKConfig(k, step, latency, flush)
        log = simulate_waitk(ref, cfg)
    except ValueError:
        return
    assert list(read_log_corpus([corpus_text([log])])) == [_as_read(log)]


@settings(max_examples=300)
@given(_any_fields())
@example(("s", 10**308, 1, 10**308, [("a", 10**308), ("b", 10**308)], None))
@example(("s", 1e308, 1, 1e308, [("a", 1e308), ("<eol>", 1e308)], (1e308, 1e308)))
def test_no_log_that_builds_overflows_evaluate_log(fields):
    """evaluate_log measures every log that can be built, or refuses it with
    a StreamError (AL or a delay too large for a float, no words)."""
    seg_id, duration, k, step, pairs, consumed = fields
    try:
        log = EmissionLog(seg_id, duration, k, step,
                          tuple(TokenEvent(w, classify_surface(w), t) for w, t in pairs), consumed)
    except StreamError:
        return
    try:
        evaluate_log(log)
    except StreamError:
        pass
