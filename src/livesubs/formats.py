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
    _block_rows,
    _built_log,
    _check_columns,
    _closed_offset,
    _tiled,
    classify_surface,
    delay_k_seconds,
    finite_delay_k,
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


def _is_number(value) -> bool:
    # type() first: nearly every value is a float, and then no isinstance runs.
    return type(value) is float or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )


def _float(value: int | float, line: int | None, field: str) -> float:
    """A JSON number as a float: an integer too large for one names its field."""
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("integer too large for a float", line, field) from None


def _utf8(text: str) -> bool:
    """Whether text can be written as UTF-8: it holds no lone surrogate,
    neither one escaped in the JSON nor an undecodable input byte read as
    one (surrogateescape)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# The JSON types of the fields of a corpus record.
_TYPES = {
    "id": (str,), "duration": (int, float), "k": (int,), "step": (int, float), "events": (list,),
}


def _require(record: dict, field: str, line: int | None):
    value = record.get(field)
    types = _TYPES[field]
    if type(value) in types:  # nearly every value; never a bool
        return value
    if field not in record:
        raise SchemaError("missing", line, field)
    if not isinstance(value, types) or isinstance(value, bool):
        expected = "a number" if float in types else types[0].__name__
        raise SchemaError(f"expected {expected}, got {value!r}", line, field)
    return value


def log_from_record(record: dict, line: int | None = None) -> EmissionLog:
    """Build an EmissionLog from one parsed interchange record."""
    return _built_log(*_record_columns(record, line))


def _record_columns(record: dict, line: int | None) -> tuple:
    """(id, duration, k, step, surfaces, times, g) of one parsed interchange
    record: the columns log_from_record builds its log of, its fields and
    events read one by one. The first rule broken raises, naming its field."""
    seg_id = _require(record, "id", line)
    if not seg_id.isascii() and not _utf8(seg_id):
        raise SchemaError(f"not UTF-8 text: {seg_id!r}", line, "id")
    # The constructors check these ranges too, but only the reader knows the field.
    duration = _float(_require(record, "duration", line), line, "duration")
    if duration <= 0:
        raise NonPositiveDurationError("duration must be > 0", line, "duration")
    if not duration < math.inf:
        raise SchemaError("duration must be finite", line, "duration")
    k = _require(record, "k", line)
    if k < 1:
        raise SchemaError("k must be >= 1", line, "k")
    step = _float(_require(record, "step", line), line, "step")
    if not 0 < step < math.inf:
        raise SchemaError("step must be finite and > 0", line, "step")
    if not finite_delay_k(k, step):
        raise SchemaError("step * k must be a finite number of seconds", line, "k")
    surfaces: list[str] = []
    times: list[float] = []
    for j, ev in enumerate(_require(record, "events", line)):
        if not isinstance(ev, dict) or "t" not in ev or "w" not in ev:
            raise SchemaError(f"event {j} needs 't' and 'w'", line, "events")
        w, t = ev["w"], ev["t"]
        if type(t) is not float:  # nearly every time is one
            if not _is_number(t):
                raise SchemaError(f"event {j} needs a number 't', got {ev!r}", line, "events")
            t = _float(t, line, "events")
        if not isinstance(w, str):
            raise SchemaError(f"event {j} needs a string 'w', got {ev!r}", line, "events")
        if not w.isascii() and not _utf8(w):
            raise SchemaError(f"event {j}: 'w' is not UTF-8 text: {w!r}", line, "events")
        surfaces.append(w)
        times.append(t)
    g = record.get("g")
    if g is not None:
        if not isinstance(g, list) or len(g) != len(times):
            raise SchemaError("'g' must match events in length", line, "g")
        last = 0.0
        for j, x in enumerate(g):
            if not (type(x) is float or _is_number(x)) or not last <= x <= duration:
                raise SchemaError(
                    f"entry {j} is {x!r}; entries must be numbers in "
                    f"[0, {duration!r}] that never decrease", line, "g",
                )
            last = x
        g = tuple(map(float, g))
    columns = seg_id, duration, k, step, surfaces, times, g
    # Whatever the constructors still reject is about the events.
    try:
        _check_columns(*columns)
    except NonMonotonicTimeError as exc:
        raise NonMonotonicTimeError(exc.message, line, "events") from exc
    except StreamError as exc:
        raise SchemaError(exc.message, line, "events") from exc
    return columns


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
    file. A StreamError from work is raised naming the line, and field when
    it names none."""
    for lineno, line in enumerate(lines, start):
        for record in read((line,), start=lineno):
            try:
                result = work(record)
            except StreamError as exc:
                raise type(exc)(exc.message, lineno, exc.field or field) from None
            yield lineno, result


def write_log_corpus(logs: Iterable[EmissionLog], out: IO[str]) -> None:
    """Write each log as one corpus line. A log the reader would reject
    raises the reader's SchemaError (line None); an event whose surface
    reads back as another kind raises one naming field 'events'. Nothing of
    a refused log is written."""
    for log in logs:
        events = log.events
        _record_columns(log_to_record(log), None)
        for j, ev in enumerate(events):
            read = classify_surface(ev.surface)
            if read is not ev.kind:
                raise SchemaError(
                    f"event {j}: {ev.surface!r} of kind {ev.kind.value} is read back "
                    f"as kind {read.value}", None, "events",
                )
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
    template, which is several times faster. consumed may be times itself,
    whose texts are then written twice but made once."""
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
        yield _ref_fields(*parts, lineno)


def _ref_fields(
    seg_id: str, dur_text: str, token_text: str, lineno: int | None
) -> tuple[str, tuple[str, ...], float]:
    """(id, tokens, duration), the fields of AnnotatedReference, of the three
    fields of a reference line."""
    if not _utf8(seg_id):
        raise SchemaError(f"not UTF-8 text: {seg_id!r}", lineno, "id")
    try:
        duration = float(dur_text)
    except ValueError as exc:
        raise SchemaError(f"bad duration {dur_text!r}", lineno, "duration") from exc
    if not math.isfinite(duration):
        raise SchemaError(f"non-finite duration {dur_text!r}", lineno, "duration")
    if duration <= 0:
        raise NonPositiveDurationError("duration must be > 0", lineno, "duration")
    if not _utf8(token_text):
        raise SchemaError(f"not UTF-8 text: {token_text!r}", lineno, "tokens")
    tokens = tuple(token_text.split())
    if not tokens:
        raise SchemaError("no tokens", lineno, "tokens")
    return seg_id, tokens, duration


def write_annotated_refs(refs, out: IO[str]) -> None:
    """Write each reference as one line. A reference the reader would
    reject, or read back as another, raises a SchemaError naming the field,
    and nothing of it is written."""
    for ref in refs:
        fields = (f"{ref.segment_id}", f"{ref.duration}", " ".join(ref.tokens))
        # A tab splits the line's fields; a line break, as a file is read
        # (universal newlines), the line.
        for name, text in (("id", fields[0]), ("tokens", fields[2])):
            if {"\t", "\n", "\r"}.intersection(text):
                raise SchemaError(f"a tab or line break splits the line: {text!r}", None, name)
        back = _ref_fields(*fields, None)
        written = (ref.segment_id, ref.tokens, ref.duration)
        for name, value, read in zip(("id", "tokens", "duration"), written, back):
            if read != value:
                raise SchemaError(f"{value!r} is read back as {read!r}", None, name)
        out.write("\t".join(fields) + "\n")


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
