import io
import json
import math
import pickle

import pytest

from livesubs import (
    NonMonotonicTimeError,
    NonPositiveDurationError,
    SchemaError,
    WaitKConfig,
    close_schedule,
    export_srt,
    extract_blocks,
    read_annotated_refs,
    read_log_corpus,
    schedule_block_mode,
    schedule_line_mode,
    simulate_waitk,
    write_annotated_refs,
    write_log_corpus,
)
from livesubs.formats import SRT_END_MS, format_srt_time
from livesubs.latency import EmptyLogError, LatencyOverflowError

from conftest import make_refs, simulate_corpus
from oracles import parse_srt


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
    # The constructors check the times; consumed_source is checked when read.
    from livesubs import EmissionLog, parse_token_stream

    log = EmissionLog("s", 2.0, 3, events=parse_token_stream([("a", 1.0)]),
                      consumed_source=(float("nan"),))
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_log_corpus([log], io.StringIO())
