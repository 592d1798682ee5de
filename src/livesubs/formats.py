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
from typing import IO, Iterable, Iterator

from .core import (
    EmissionLog,
    NonMonotonicTimeError,
    StreamError,
    finite_delay_k,
    parse_token_stream,
)
from .display import DisplayMode, DisplaySchedule

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


def _require(record: dict, field: str, types: tuple[type, ...], line: int | None):
    if field not in record:
        raise SchemaError("missing", line, field)
    value = record[field]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"expected {types[0].__name__}, got {value!r}", line, field)
    return value


def log_from_record(record: dict, line: int | None = None) -> EmissionLog:
    """Build an EmissionLog from one parsed interchange record."""
    seg_id = _require(record, "id", (str,), line)
    if not seg_id.isascii() and not _utf8(seg_id):
        raise SchemaError(f"not UTF-8 text: {seg_id!r}", line, "id")
    # The constructors check these ranges too, but only the reader knows the field.
    duration = _float(_require(record, "duration", (int, float), line), line, "duration")
    if duration <= 0:
        raise NonPositiveDurationError("duration must be > 0", line, "duration")
    if not duration < math.inf:
        raise SchemaError("duration must be finite", line, "duration")
    k = _require(record, "k", (int,), line)
    if k < 1:
        raise SchemaError("k must be >= 1", line, "k")
    step = _float(_require(record, "step", (int, float), line), line, "step")
    if not 0 < step < math.inf:
        raise SchemaError("step must be finite and > 0", line, "step")
    if not finite_delay_k(k, step):
        raise SchemaError("step * k must be a finite number of seconds", line, "k")
    raw_events = _require(record, "events", (list,), line)
    raw: list[tuple[str, float]] = []
    for j, ev in enumerate(raw_events):
        if not isinstance(ev, dict) or "t" not in ev or "w" not in ev:
            raise SchemaError(f"event {j} needs 't' and 'w'", line, "events")
        w, t = ev["w"], ev["t"]
        if type(t) is not float:  # nearly every t is
            if not _is_number(t):
                raise SchemaError(f"event {j} needs a number 't', got {ev!r}", line, "events")
            t = _float(t, line, "events")
        if not isinstance(w, str):
            raise SchemaError(f"event {j} needs a string 'w', got {ev!r}", line, "events")
        if not w.isascii() and not _utf8(w):
            raise SchemaError(f"event {j}: 'w' is not UTF-8 text: {w!r}", line, "events")
        raw.append((w, t))
    g = record.get("g")
    if g is not None:
        if not isinstance(g, list) or len(g) != len(raw):
            raise SchemaError("'g' must match events in length", line, "g")
        last = 0.0
        for j, x in enumerate(g):
            if not _is_number(x) or not last <= x <= duration:
                raise SchemaError(
                    f"entry {j} is {x!r}; entries must be numbers in "
                    f"[0, {duration!r}] that never decrease", line, "g",
                )
            last = x
        g = tuple(float(x) for x in g)
    # Whatever the constructors still reject is about the events.
    try:
        events = parse_token_stream(raw)
        return EmissionLog(
            segment_id=seg_id,
            source_duration=duration,
            wait_k=k,
            step_size=step,
            events=events,
            consumed_source=g,
        )
    except NonMonotonicTimeError as exc:
        raise NonMonotonicTimeError(exc.message, line, "events") from exc
    except StreamError as exc:
        raise SchemaError(exc.message, line, "events") from exc


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
        log = log_from_record(record, lineno)
        # An undecodable byte outside the id and the words, which name their field.
        if not line.isascii() and not _utf8(line):
            raise SchemaError("not UTF-8 text", lineno, None)
        yield log


def write_log_corpus(logs: Iterable[EmissionLog], out: IO[str]) -> None:
    for log in logs:
        out.write(json.dumps(log_to_record(log), ensure_ascii=False, allow_nan=False))
        out.write("\n")


def read_annotated_refs(source: Iterable[str]):
    """Parse references: one segment per line, tab-separated id, duration,
    space-separated tokens with inline break symbols."""
    from .waitk import AnnotatedReference

    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SchemaError(
                f"expected 3 tab-separated fields, got {len(parts)}", lineno, None
            )
        seg_id, dur_text, token_text = parts
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
        yield AnnotatedReference(seg_id, tokens, duration)


def write_annotated_refs(refs, out: IO[str]) -> None:
    for ref in refs:
        out.write(f"{ref.segment_id}\t{ref.duration}\t{' '.join(ref.tokens)}\n")


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


def export_srt(schedule: DisplaySchedule) -> str:
    """Render a blocks-mode schedule as SubRip text.

    The schedule must have closed offsets (close the final state at segment
    end plus the wait-k delay first).
    """
    if schedule.mode is not DisplayMode.BLOCKS:
        raise ValueError(f"SRT export needs a blocks-mode schedule, got {schedule.mode}")
    cues: list[str] = []
    prev_end = float("-inf")
    for n, state in enumerate(schedule.states, start=1):
        if state.offset is None:
            raise ValueError("schedule has an open-ended state; close it first")
        if state.onset < prev_end:
            raise ValueError(f"overlapping cues: cue {n} starts before cue {n - 1} ends")
        prev_end = state.offset
        rows = "\n".join(state.rows)
        cues.append(
            f"{n}\n{format_srt_time(state.onset)} --> {format_srt_time(state.offset)}\n{rows}\n"
        )
    return "\n".join(cues)
