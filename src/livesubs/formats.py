"""File formats: emission-log corpus, annotated references, SRT export.

The emission-log interchange format is one JSON record per line:

    {"id": ..., "duration": ..., "k": ..., "step": ...,
     "events": [{"t": seconds, "w": surface}, ...],
     "g": [consumed-source seconds per event]}   # optional

Break kinds are inferred from surfaces. Timestamps are decimal seconds;
writing uses Python's shortest round-trip float representation, so
write(read(x)) is byte-identical for canonical records.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring
from typing import IO, Iterable, Iterator, Sequence

import livesubs

from .core import (
    EmissionLog,
    NonMonotonicTimeError,
    StreamError,
    _NUMBER,
    _as_float,
    _block_rows,
    _built_log,
    _check_columns,
    _check_consumed,
    _check_delay_k,
    _check_ref_id,
    _check_ref_tokens,
    _check_utf8,
    _closed_offset,
    _event_time,
    _tiled,
    _typed,
    _utf8,
    delay_k_seconds,
)
from .defaults import DisplayMode

__all__ = [
    "SchemaError",
    "NonPositiveDurationError",
    "read_log_corpus",
    "write_log_corpus",
    "log_to_record",
    "log_from_record",
    "read_annotated_refs",
    "write_annotated_refs",
    "export_srt",
    "format_srt_time",
    "SRT_END_MS",
]


class SchemaError(StreamError):
    """A corpus record does not match the interchange schema."""

    _unlocated = "record"


class NonPositiveDurationError(SchemaError):
    pass


# The JSON types of the fields of a corpus record.
_TYPES = {"id": (str,), "duration": _NUMBER, "k": (int,), "step": _NUMBER, "events": (list,)}


def _require(record: dict, field: str):
    value = record.get(field)
    types = _TYPES[field]
    if type(value) in types:  # nearly every value; never a bool
        return value
    if field not in record:
        raise SchemaError("missing", None, field)
    _typed(value, types, field)
    return value


def log_from_record(record: dict, line: int | None = None) -> EmissionLog:
    """Build an EmissionLog from one parsed interchange record."""
    return _built_log(*_record_columns(record, line))


def _record_columns(record: dict, line: int | None) -> tuple:
    """(id, duration, k, step, surfaces, times, g) of one parsed interchange
    record: the columns log_from_record builds its log of, its fields and
    events read one by one. The first rule broken raises, naming its line
    and field; a rule the constructors keep raises their text, as a
    SchemaError unless the time decreases."""
    try:
        seg_id = _require(record, "id")
        _check_utf8(seg_id, "id")
        # The constructors check these ranges too, but in other words.
        duration = _as_float(_require(record, "duration"), "duration")
        if duration <= 0:
            raise NonPositiveDurationError("duration must be > 0", None, "duration")
        if not duration < math.inf:
            raise SchemaError("duration must be finite", None, "duration")
        k = _require(record, "k")
        if k < 1:
            raise SchemaError("k must be >= 1", None, "k")
        step = _as_float(_require(record, "step"), "step")
        if not 0 < step < math.inf:
            raise SchemaError("step must be finite and > 0", None, "step")
        _check_delay_k(k, step)
        surfaces: list[str] = []
        times: list[float] = []
        for j, ev in enumerate(_require(record, "events")):
            if not isinstance(ev, dict) or "t" not in ev or "w" not in ev:
                raise SchemaError(f"event {j} needs 't' and 'w'", None, "events")
            w, t = ev["w"], ev["t"]
            if type(t) is not float:  # nearly every time is one
                t = _event_time(j, t, ev)
            if not isinstance(w, str):
                raise SchemaError(f"event {j} needs a string 'w', got {ev!r}", None, "events")
            if not w.isascii():  # called for a non-ASCII word alone
                _check_utf8(w, "events", j)
            surfaces.append(w)
            times.append(t)
        g = record.get("g")
        if g is not None:
            if not isinstance(g, list) or len(g) != len(times):
                raise SchemaError("'g' must match events in length", None, "g")
            _check_consumed(g, duration)
            g = tuple(map(float, g))
        # What the constructors still reject is about the events; g is checked.
        _check_columns(seg_id, duration, k, step, surfaces, times, None)
    except StreamError as exc:
        kind = type(exc) if isinstance(exc, (SchemaError, NonMonotonicTimeError)) else SchemaError
        raise kind(exc.message, line, exc.field) from None
    return seg_id, duration, k, step, surfaces, times, g


def log_to_record(log: EmissionLog) -> dict:
    record: dict = {
        "id": log.segment_id,
        "duration": log.source_duration,
        "k": log.wait_k,
        "step": log.step_size,
        "events": [{"t": ev.emit_time, "w": ev.surface} for ev in log.events],
    }
    if log.consumed_source is not None:
        record["g"] = list(log.consumed_source)
    return record


class _NonFiniteNumber(ValueError):
    pass


def _reject_constant(name: str):
    raise _NonFiniteNumber(name)


# Python's JSON reader accepts NaN and Infinity, which no metric survives.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def read_log_corpus(source: Iterable[str], start: int = 1) -> Iterator[EmissionLog]:
    """Parse a line-delimited log corpus, yielding logs in file order.

    start is the file line number of the first line of source, so errors
    name the right line when source is a run of lines from inside a file.
    """
    yield from _read_records(source, start, log_from_record)


def _read_columns(source: Iterable[str], start: int = 1) -> Iterator[tuple]:
    """read_log_corpus's records as the checked columns of _record_columns:
    the same rules and errors, and no log built."""
    return _read_records(source, start, _record_columns)


def _read_records(source: Iterable[str], start: int, build) -> Iterator:
    """build(record, line number) of each record of a log corpus."""
    for lineno, line in enumerate(source, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            record = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", lineno, None) from exc
        except _NonFiniteNumber as exc:
            raise SchemaError(f"non-finite number {exc}", lineno, None) from None
        except ValueError as exc:  # an integer of more digits than int() reads
            raise SchemaError(f"unreadable number: {exc}", lineno, None) from None
        except RecursionError:
            raise SchemaError("JSON nested too deeply", lineno, None) from None
        if not isinstance(record, dict):
            raise SchemaError("record is not an object", lineno, None)
        built = build(record, lineno)
        # An undecodable byte outside the id and the words, which name their field.
        if not line.isascii() and not _utf8(line):
            raise SchemaError("not UTF-8 text", lineno, None)
        yield built


def _each_record(start: int, lines, work, read=_read_columns, field: str | None = None):
    """(line number, work(record)) for each record that read (a reader of
    this module) finds in lines, the first of which is line start of its
    file. A StreamError from work is raised naming the line, and field in
    place of the one it names when field is given."""
    for lineno, line in enumerate(lines, start):
        for record in read((line,), start=lineno):
            try:
                result = work(record)
            except StreamError as exc:
                raise type(exc)(exc.message, lineno, field or exc.field) from None
            yield lineno, result


def write_log_corpus(logs: Iterable[EmissionLog], out: IO[str]) -> None:
    """Write each log as one corpus line, which read_log_corpus reads back
    as the log (a JSON number is read as a float). Nothing is checked: the
    constructors refuse every log whose line the reader would reject."""
    for log in logs:
        events = log.events
        out.write(_record_line(
            log.segment_id, log.source_duration, log.wait_k, log.step_size,
            [ev.surface for ev in events], [ev.emit_time for ev in events],
            log.consumed_source,
        ))


def _record_line(
    segment_id: str,
    duration: float,
    wait_k: int,
    step: float,
    surfaces: Sequence[str],
    times: Sequence[float],
    consumed: Sequence[float] | None,
) -> str:
    """The corpus line of the log of these fields and (surface, time,
    consumed source) columns: json.dumps(log_to_record(log),
    ensure_ascii=False, allow_nan=False) plus a newline, laid out from a
    template, which is several times faster. The columns are those of a
    log or ones _check_columns has passed, so the line is one the reader
    accepts; nothing is checked here. consumed may be times itself, whose
    texts are then written twice but made once."""
    t_texts = _json_numbers(times)
    # '{"t": t, "w": w}' per event, joined by ", ".
    pairs = map(', "w": '.join, zip(t_texts, map(encode_basestring, surfaces)))
    events = '{"t": ' + '}, {"t": '.join(pairs) + "}" if t_texts else ""
    line = (
        f'{{"id": {_json_value(segment_id)}, "duration": {_json_value(duration)}, '
        f'"k": {_json_value(wait_k)}, "step": {_json_value(step)}, "events": [{events}]'
    )
    if consumed is not None:
        g_texts = t_texts if consumed is times else _json_numbers(consumed)
        line += f', "g": [{", ".join(g_texts)}]'
    return line + "}\n"


def _json_value(value) -> str:
    """value as json.dumps(value, ensure_ascii=False, allow_nan=False) writes it."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, ensure_ascii=False, allow_nan=False)


def _json_numbers(values: Sequence[float]) -> list[str]:
    """Each value as _json_value writes it; finite floats, nearly every
    value, by one pass of their repr."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # an int or a bool among the floats
        return list(map(_json_value, values))
    return texts if all(map(math.isfinite, values)) else list(map(_json_value, values))


def read_annotated_refs(source: Iterable[str], start: int = 1):
    """Parse references: one segment per line, tab-separated id, duration,
    space-separated tokens with inline break symbols. start is the file line
    number of the first line of source."""
    from .waitk import AnnotatedReference

    for fields in _read_ref_fields(source, start):
        yield AnnotatedReference(*fields)


def _read_ref_fields(source: Iterable[str], start: int) -> Iterator[tuple]:
    """read_annotated_refs's checked (id, tokens, duration), no reference built."""
    for lineno, line in enumerate(source, start=start):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SchemaError(
                f"expected 3 tab-separated fields, got {len(parts)}", lineno, None
            )
        seg_id, dur_text, token_text = parts
        try:
            _check_ref_id(seg_id)
            try:
                duration = float(dur_text)
            except ValueError:
                raise SchemaError(f"bad duration {dur_text!r}", None, "duration") from None
            if not math.isfinite(duration):
                raise SchemaError(f"non-finite duration {dur_text!r}", None, "duration")
            if duration <= 0:
                raise NonPositiveDurationError("duration must be > 0", None, "duration")
            _check_utf8(token_text, "tokens")
            tokens = tuple(token_text.split())
            if not tokens:  # what str.split() gives keeps every other token rule
                _check_ref_tokens(tokens)
        except StreamError as exc:
            kind = type(exc) if isinstance(exc, SchemaError) else SchemaError
            raise kind(exc.message, lineno, exc.field) from None
        yield seg_id, tokens, duration


def write_annotated_refs(refs, out: IO[str]) -> None:
    """Write each reference as one line, which read_annotated_refs reads
    back as the reference (an int duration as a float). Nothing is checked:
    AnnotatedReference refuses every reference whose line the reader would
    reject or read back as another. The fields are written as their base
    types (str, int or float) write them."""
    for ref in refs:
        duration = ref.duration
        number = float.__repr__ if isinstance(duration, float) else int.__repr__
        out.write("\t".join((ref.segment_id, number(duration), " ".join(ref.tokens))) + "\n")


# SRT times have two hour digits, so they end before 100 h: format_srt_time
# writes them for seconds * 1000 below this, which rounds (half to even)
# below 360,000,000 ms.
SRT_END_MS = 359_999_999.5


def format_srt_time(seconds: float) -> str:
    ms = round(seconds * 1000)
    h, ms = divmod(ms, 3_600_000)
    m, ms = divmod(ms, 60_000)
    s, ms = divmod(ms, 1000)
    return f"{h:02d}:{m:02d}:{s:02d},{ms:03d}"


def export_srt(schedule: livesubs.display.DisplaySchedule) -> str:
    """Render a blocks-mode schedule as SubRip text.

    The schedule must have closed offsets (close the final state at segment
    end plus the wait-k delay first). Every cue must start at 0 s or later,
    no earlier than the cue before it ends, end no earlier than it starts
    and end before 100 h, the largest time SRT writes.
    """
    if schedule.mode is not DisplayMode.BLOCKS:
        raise ValueError(f"SRT export needs a blocks-mode schedule, got {schedule.mode}")
    return _srt_text([(state.onset, state.offset, state.rows) for state in schedule.states])


def _srt_text(cues: Iterable[tuple[float, float | None, Sequence[str]]]) -> str:
    """SubRip text of (onset, offset, rows) cues, numbered from 1. The one cue
    check of both export paths: the first cue to break a rule of export_srt raises."""
    texts = []
    prev_end = -math.inf
    for n, (onset, offset, rows) in enumerate(cues, start=1):
        if offset is None:
            raise ValueError("schedule has an open-ended state; close it first")
        if not onset >= 0:
            raise ValueError(f"cue {n} starts at {onset!r} s, before 0 s")
        if offset < onset:
            raise ValueError(f"cue {n} ends at {offset!r} s, before it starts")
        if onset < prev_end:
            raise ValueError(f"overlapping cues: cue {n} starts before cue {n - 1} ends")
        if not 1000.0 * offset < SRT_END_MS:
            raise ValueError(f"cue {n} ends at {offset!r} s, past the largest SRT time")
        prev_end = offset
        text = "\n".join(rows)
        texts.append(f"{n}\n{format_srt_time(onset)} --> {format_srt_time(offset)}\n{text}\n")
    return "\n".join(texts)


def _srt_of_columns(columns: tuple) -> bytes:
    """export_srt(screen_schedule(log, DisplayMode.BLOCKS)) as UTF-8 for the log of
    a record's checked columns, nothing built: cues tiled as schedule_block_mode
    tiles states, the last closed as close_schedule closes it, at the last event
    plus the wait-k delay. A cue ending at 100 h or later is a SchemaError naming
    'events' if the last event alone passes that bound, else 'k'."""
    seg_id, _, k, step, surfaces, times, _ = columns
    end_time = times[-1] if times else 0.0
    blocks = _block_rows(surfaces, times)
    cues = [[on, off, blocks[b][1]] for b, on, off in _tiled([t for t, _ in blocks])]
    if cues:
        cues[-1][1] = _closed_offset(cues[-1][0], end_time + delay_k_seconds(k, step))
    try:
        return _srt_text(cues).encode("utf-8")
    except ValueError:  # checked columns give cues that fail only the 100 h bound
        field = "k" if 1000.0 * end_time < SRT_END_MS else "events"
        raise SchemaError(
            f"segment {seg_id}: the last cue ends past the largest SRT time", None, field
        ) from None


def _srt_run(run: tuple[int, Sequence[str]]) -> list[tuple[int, tuple[str, bytes]]]:
    """(line, (id, SRT file contents)) per record of (first line number, lines)."""
    return list(_each_record(*run, lambda c: (c[0], _srt_of_columns(c))))
