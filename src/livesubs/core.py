"""Core domain types for timed subtitle token streams.

A token stream is a sequence of (surface, emission time) pairs. Surfaces are
either words or the break symbols ``<eol>`` (end of line), ``<eob>`` (end of
subtitle block) and ``<eos>`` (end of audio segment). All times are seconds
from the start of the source audio.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "TokenKind",
    "Terminator",
    "TokenEvent",
    "EmissionLog",
    "SubtitleLine",
    "SubtitleBlock",
    "StreamError",
    "SchemaError",
    "NonPositiveDurationError",
    "NonMonotonicTimeError",
    "EmptySurfaceError",
    "parse_token_stream",
    "extract_blocks",
    "extract_lines",
    "blocks_from_lines",
    "delay_k_seconds",
]

EOL_SURFACE = "<eol>"
EOB_SURFACE = "<eob>"
EOS_SURFACE = "<eos>"


class StreamError(ValueError):
    """Malformed token stream. ``line`` and ``field``, when known, locate the
    bad record in its file; the text then starts with them. The args are the
    parts (message, line, field), as for OSError, so the error pickles
    unchanged (raised in a worker process)."""

    # What the text names instead of the line when it is unknown.
    _unlocated = ""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        super().__init__(message, line, field)
        self.message = message
        self.line = line
        self.field = field

    def __str__(self) -> str:
        where = f"line {self.line}" if self.line is not None else self._unlocated
        if not where:
            return self.message
        if self.field is not None:
            where += f", field {self.field!r}"
        return f"{where}: {self.message}"


class SchemaError(StreamError):
    """A corpus record does not match the interchange schema."""

    _unlocated = "record"


class NonPositiveDurationError(SchemaError):
    """A duration is 0 or below, in a record or a constructor."""

    _unlocated = ""


class NonMonotonicTimeError(StreamError):
    """A timestamp decreases along the stream."""


class EmptySurfaceError(StreamError):
    """A token has an empty surface form."""


class TokenKind(Enum):
    WORD = "word"
    END_OF_LINE = "eol"
    END_OF_BLOCK = "eob"
    END_OF_SEGMENT = "eos"


_BREAK_KINDS = {
    EOL_SURFACE: TokenKind.END_OF_LINE,
    EOB_SURFACE: TokenKind.END_OF_BLOCK,
    EOS_SURFACE: TokenKind.END_OF_SEGMENT,
}


class Terminator(Enum):
    """What closed a subtitle unit."""

    END_OF_LINE = "eol"
    END_OF_BLOCK = "eob"
    # Trailing words with no explicit break before segment end.
    IMPLICIT_END = "implicit"


def classify_surface(surface: str) -> TokenKind:
    """Map a surface form to its token kind (break symbols are exact matches)."""
    return _BREAK_KINDS.get(surface, TokenKind.WORD)


def _unbroken(text: str) -> bool:
    """Whether text is non-empty and holds no whitespace (no character that
    str.isspace() accepts): it splits into one piece, itself."""
    return text.split() == [text]


def _check_event(surface: str, kind: TokenKind, t: float) -> None:
    """Raise for a token that TokenEvent does not hold: an empty surface, a
    word holding whitespace, a time that is not finite or is below 0, a kind
    other than the one its surface reads as, and last, so that a surface
    another rule refuses keeps its text, a surface that is not a str (bytes
    pass the other rules)."""
    if not surface:
        raise EmptySurfaceError("token surface is empty", None, "events")
    if kind is TokenKind.WORD and not _unbroken(surface):
        raise StreamError(f"word surface contains whitespace: {surface!r}", None, "events")
    if not 0 <= t < math.inf:
        raise StreamError(f"emission time must be finite and >= 0, got {t}", None, "events")
    read = classify_surface(surface)
    if read is not kind:
        _typed(kind, (TokenKind,), "events")
        raise StreamError(
            f"{surface!r} of kind {kind.value} is read back as kind {read.value}", None, "events"
        )
    _typed(surface, (str,), "events")


@dataclass(frozen=True, slots=True)
class TokenEvent:
    """One emitted token with its emission timestamp. Its kind is the one
    its surface reads as (classify_surface), as in a corpus file."""

    surface: str
    kind: TokenKind
    emit_time: float

    def __post_init__(self) -> None:
        try:
            _check_event(self.surface, self.kind, self.emit_time)
        except (AttributeError, TypeError):
            _typed_event(self.surface, self.emit_time)
            raise

    @property
    def is_word(self) -> bool:
        return self.kind is TokenKind.WORD


# Set a TokenEvent's fields past the frozen __setattr__ and __post_init__.
_SET_SURFACE = TokenEvent.surface.__set__
_SET_KIND = TokenEvent.kind.__set__
_SET_EMIT_TIME = TokenEvent.emit_time.__set__


def parse_token_stream(
    raw: Iterable[tuple[str, float]],
) -> tuple[TokenEvent, ...]:
    """Classify raw (surface, emit_time) pairs into token events.

    Order and timestamps are preserved. Raises NonMonotonicTimeError if a
    timestamp decreases, EmptySurfaceError on an empty surface, and a
    StreamError naming field 'events' for the first other pair TokenEvent
    does not hold, or for an item that does not unpack into a pair.
    """
    pairs = list(raw)
    last_t = -math.inf
    for i, pair in enumerate(pairs):
        try:
            surface, t = pair
        except (TypeError, ValueError):
            raise StreamError(
                f"expected a (surface, time) pair, got {pair!r}", None, "events"
            ) from None
        pairs[i] = surface, t  # pair may be an iterator, which unpacks once
        try:
            if t < last_t:
                raise _decreasing(t, last_t)
            last_t = t
            _check_event(surface, classify_surface(surface), t)
        except (AttributeError, TypeError):
            _typed_event(surface, t)
            raise
    return _events(pairs)


def _events(pairs: Iterable[tuple[str, float]]) -> tuple[TokenEvent, ...]:
    """The token events of checked (surface, time) pairs, built without
    TokenEvent's checks."""
    new = object.__new__
    kind_of = _BREAK_KINDS.get
    word = TokenKind.WORD
    events = []
    for surface, t in pairs:
        ev = new(TokenEvent)
        _SET_SURFACE(ev, surface)
        _SET_KIND(ev, kind_of(surface, word))
        _SET_EMIT_TIME(ev, t)
        events.append(ev)
    return tuple(events)


@dataclass(frozen=True, slots=True)
class SubtitleLine:
    """A break-delimited subtitle line with per-word timestamps."""

    words: tuple[TokenEvent, ...]
    break_time: float
    terminator: Terminator
    # Every consumer reads the text, most of them more than once: join it once.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", " ".join([w.surface for w in self.words]))

    @property
    def char_length(self) -> int:
        return len(self.text)


@dataclass(frozen=True)
class SubtitleBlock:
    """A subtitle block: the lines shown on screen together."""

    lines: tuple[SubtitleLine, ...]
    block_time: float
    terminator: Terminator

    @property
    def words(self) -> tuple[TokenEvent, ...]:
        return tuple(w for line in self.lines for w in line.words)

    @property
    def text(self) -> str:
        """Block text: non-empty line texts joined by a single space."""
        return " ".join(line.text for line in self.lines if line.words)

    @property
    def char_length(self) -> int:
        return _joined_length([line.char_length for line in self.lines])


def _joined_length(lengths: Sequence[int]) -> int:
    """Length of the non-empty texts of these lengths joined by single
    spaces: a block's text from its lines'."""
    pieces = [n for n in lengths if n]
    return sum(pieces) + len(pieces) - 1 if pieces else 0


def delay_k_seconds(wait_k: int, step_size: float = 0.280) -> float:
    """Conservative stand-in for the unknown next emission time at segment
    end. Refuses a k or step that no log holds, as the constructors do."""
    _check_delay_k(_check_k(wait_k), _check_positive(step_size, "step"))
    return step_size * wait_k


def finite_delay_k(wait_k: int, step_size: float) -> bool:
    """Whether the wait-k delay step_size * wait_k is a finite float."""
    try:
        return math.isfinite(step_size * wait_k)
    except OverflowError:  # wait_k is too large to be a float
        return False


# The rules of a log's fields that the corpus reader keeps too, each written
# once and called by both: a log that can be built is one the reader
# accepts, and a rule either breaks names the same field with the same text.
# Each raises a StreamError with no line, which the reader gives its line.
# A number out of range fails before its type is checked; an exact float
# (for k an int) in range returns at once.

_NUMBER = (int, float)


def _is_number(value) -> bool:
    # type() first: nearly every value is a float, and then no isinstance runs.
    return type(value) is float or (
        isinstance(value, _NUMBER) and not isinstance(value, bool)
    )


def _typed(value, types: tuple, field: str) -> None:
    """Refuse a value of none of types, or a bool: a field of the wrong JSON type."""
    if not isinstance(value, types) or isinstance(value, bool):
        expected = "a number" if float in types else types[0].__name__
        raise StreamError(f"expected {expected}, got {value!r}", None, field)


def _as_float(value: int | float, field: str) -> float:
    """A number as a float: a value of another type (a bool is one), or an
    int that no float holds, names its field."""
    _typed(value, _NUMBER, field)
    try:
        return float(value)
    except OverflowError:
        raise StreamError("integer too large for a float", None, field) from None


def _utf8(text: str) -> bool:
    """Whether text can be written as UTF-8: it holds no lone surrogate,
    neither one escaped in the JSON nor an undecodable input byte read as
    one (surrogateescape)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_utf8(text: str, field: str, event: int | None = None) -> None:
    """Refuse text that cannot be written as UTF-8: the id, or the word of
    the event numbered event."""
    if not text.isascii() and not _utf8(text):
        where = "" if event is None else f"event {event}: 'w' is "
        raise StreamError(f"{where}not UTF-8 text: {text!r}", None, field)


def _typed_event(surface: str, t: float) -> None:
    """Refuse a token whose surface is not a str or whose time is not a
    number: the values on which the token rules raised AttributeError or
    TypeError."""
    _typed(surface, (str,), "events")
    _typed(t, _NUMBER, "events")


def _event_time(j: int, t, event: dict) -> float:
    """Event j's time t as a float; event is that event as a record holds it."""
    if not _is_number(t):
        raise StreamError(f"event {j} needs a number 't', got {event!r}", None, "events")
    return _as_float(t, "events")


def _check_positive(value, field: str) -> float:
    """The duration's or the step's value as a float: a number a float
    holds, finite and > 0 (NonPositiveDurationError for a duration <= 0)."""
    if type(value) is float and 0 < value < math.inf:
        return value
    if _is_number(value) and not 0 < value < math.inf:
        kind = NonPositiveDurationError if value <= 0 and field == "duration" else StreamError
        raise kind(f"{field} must be finite and > 0, got {value}", None, field)
    return _as_float(value, field)


def _check_k(value) -> int:
    """k, an int, finite and >= 1."""
    if type(value) is int and value >= 1:
        return value
    if _is_number(value) and not 1 <= value < math.inf:
        raise StreamError(f"k must be finite and >= 1, got {value}", None, "k")
    _typed(value, (int,), "k")
    return value


def _check_delay_k(wait_k: int, step_size: float) -> None:
    if not finite_delay_k(wait_k, step_size):
        raise StreamError("step * k must be a finite number of seconds", None, "k")


def _decreasing(t: float, last_t: float) -> NonMonotonicTimeError:
    """The error of an event's time t below last_t, the time before it."""
    return NonMonotonicTimeError(f"emission time decreases: {t} after {last_t}", None, "events")


def _check_consumed(consumed: Sequence[float], n: int, duration: float) -> None:
    """Refuse consumed-source entries but n numbers, one per event, in
    [0, duration] that never decrease (duration is a float). n is -1 for a
    value that is no list, which no count of events matches."""
    if n < 0 or len(consumed) != n:
        raise StreamError("'g' must match events in length", None, "g")
    last = 0.0
    for j, x in enumerate(consumed):
        if not (type(x) is float or _is_number(x)) or not last <= x <= duration:
            raise StreamError(
                f"entry {j} is {x!r}; entries must be numbers in "
                f"[0, {duration!r}] that never decrease", None, "g",
            )
        last = x


# The rules of the fields of a reference line, each written once:
# AnnotatedReference keeps them all, and read_annotated_refs calls those of
# the id and of UTF-8 text, so a reference that can be built is one whose
# line the reader reads back as it.


def _check_ref_id(segment_id: str) -> None:
    """Refuse an id that is not a str or not UTF-8 text, or that holds a
    tab or a line break, either of which splits the line."""
    _typed(segment_id, (str,), "id")
    _check_utf8(segment_id, "id")
    if "\t" in segment_id or "\n" in segment_id or "\r" in segment_id:
        raise StreamError(f"a tab or line break splits the line: {segment_id!r}", None, "id")


def _check_ref_tokens(tokens: tuple[str, ...]) -> None:
    """Refuse tokens but a non-empty tuple of str that " ".join(tokens).split()
    gives back, as UTF-8 text."""
    _typed(tokens, (tuple,), "tokens")
    if not tokens:
        raise StreamError("no tokens", None, "tokens")
    try:
        text = " ".join(tokens)
    except TypeError:
        for token in tokens:
            _typed(token, (str,), "tokens")
        raise
    read = text.split()
    if read != [*tokens]:
        raise StreamError(f"{tokens!r} is read back as {tuple(read)!r}", None, "tokens")
    _check_utf8(text, "tokens")


@dataclass(frozen=True)
class EmissionLog:
    """One audio segment's emission sequence plus policy parameters.

    ``consumed_source`` optionally records, per event, how much source audio
    (seconds) had been consumed when the token was emitted; simulated logs
    carry it so latency can be computed exactly.

    A log holds only what a corpus file holds, so write_log_corpus writes
    every log as a line that read_log_corpus reads back as it: the
    constructors refuse what the reader rejects, with a StreamError naming
    the record field (``id``, ``duration``, ``k``, ``step``, ``events``,
    ``g``) and the reader's message.
    """

    segment_id: str
    source_duration: float
    wait_k: int
    step_size: float = 0.280
    events: tuple[TokenEvent, ...] = ()
    consumed_source: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # The columns first: an event that is not a TokenEvent raises AttributeError.
        # Then each rule in turn.
        surfaces = [ev.surface for ev in self.events]
        times = [ev.emit_time for ev in self.events]
        segment_id = self.segment_id
        _typed(segment_id, (str,), "id")
        _check_utf8(segment_id, "id")
        duration = _check_positive(self.source_duration, "duration")
        _check_delay_k(_check_k(self.wait_k), _check_positive(self.step_size, "step"))
        last_t = -math.inf
        last = len(times) - 1
        for i, (surface, t) in enumerate(zip(surfaces, times)):
            if t < last_t:
                raise _decreasing(t, last_t)
            last_t = t
            if type(t) is not float:
                _event_time(i, t, {"t": t, "w": surface})
            _check_utf8(surface, "events", i)
            if surface == EOS_SURFACE and i != last:
                raise StreamError(
                    f"segment {segment_id}: <eos> is not the last event", None, "events"
                )
        if self.consumed_source is not None:
            _check_consumed(self.consumed_source, len(times), duration)

    @property
    def delay_k(self) -> float:
        return delay_k_seconds(self.wait_k, self.step_size)

    @cached_property
    def words(self) -> tuple[TokenEvent, ...]:
        return tuple(ev for ev in self.events if ev.is_word)

    @property
    def end_time(self) -> float:
        return self.events[-1].emit_time if self.events else 0.0


_FLOATS = {float}
_FLOAT_MAX = sys.float_info.max


def _rising(values: Sequence[float], top: float) -> bool:
    """Whether values are floats from 0 to top that never decrease."""
    if not _FLOATS.issuperset(map(type, values)):
        return False
    last = 0.0
    for x in values:
        if not last <= x <= top:  # NaN fails
            return False
        last = x
    return True


def _check_columns(
    segment_id: str,
    source_duration: float,
    wait_k: int,
    step_size: float,
    surfaces: Sequence[str],
    times: Sequence[float],
    consumed_source: Sequence[float] | None,
) -> None:
    """Raise what EmissionLog(segment_id, source_duration, wait_k, step_size,
    parse_token_stream(zip(surfaces, times)), consumed_source) raises, of the
    same type and text; surfaces and times are of one length.

    One pass over the columns tests every rule at once, on numbers that are
    exact floats (k an exact int). Only when that test fails, a number of
    another type included, is that expression evaluated, to raise the first
    rule broken. Columns it then accepts (an int duration or step, which
    simulate_waitk may be given) build a log that is dropped.
    """
    text = "".join(surfaces)
    if (
        type(segment_id) is str and (segment_id.isascii() or _utf8(segment_id))
        and type(source_duration) is float and 0 < source_duration < math.inf
        and type(wait_k) is int and wait_k >= 1
        and type(step_size) is float and 0 < step_size < math.inf
        and finite_delay_k(wait_k, step_size)
        and _rising(times, _FLOAT_MAX)  # in order, finite and >= 0
        and (
            consumed_source is None
            or len(consumed_source) == len(times) and _rising(consumed_source, source_duration)
        )
        and (
            not surfaces
            # no surface is empty, holds whitespace or is not UTF-8, and <eos> is last
            or ("" not in surfaces and _unbroken(text) and (text.isascii() or _utf8(text))
                and EOS_SURFACE not in surfaces[:-1])
        )
    ):
        return
    EmissionLog(
        segment_id, source_duration, wait_k, step_size,
        parse_token_stream(zip(surfaces, times)), consumed_source,
    )


def _built_log(
    segment_id: str,
    source_duration: float,
    wait_k: int,
    step_size: float,
    surfaces: Sequence[str],
    times: Sequence[float],
    consumed_source: tuple[float, ...] | None,
) -> EmissionLog:
    """EmissionLog(segment_id, source_duration, wait_k, step_size,
    parse_token_stream(zip(surfaces, times)), consumed_source) of columns
    that _check_columns has passed, built without the constructors' checks."""
    log = object.__new__(EmissionLog)
    vars(log).update(
        segment_id=segment_id,
        source_duration=source_duration,
        wait_k=wait_k,
        step_size=step_size,
        events=_events(zip(surfaces, times)),
        consumed_source=consumed_source,
    )
    return log


def extract_blocks(events: Sequence[TokenEvent]) -> tuple[SubtitleBlock, ...]:
    """Split a parsed event sequence into subtitle blocks.

    One block per ``<eob>``; ``<eol>`` splits lines inside a block. A trailing
    run without ``<eob>`` forms a final implicit block (see blocks_from_lines).
    ``<eos>`` never contributes words.
    """
    return blocks_from_lines(extract_lines(events))


def extract_lines(events: Sequence[TokenEvent]) -> tuple[SubtitleLine, ...]:
    """Split a parsed event sequence into lines, treating <eol> and <eob>
    as one unified delimiter. Trailing words form an implicit final line."""
    kinds = [ev.kind for ev in events]
    eol, eob = TokenKind.END_OF_LINE, TokenKind.END_OF_BLOCK
    return tuple([
        SubtitleLine(
            tuple(events[start:stop]),
            events[closer].emit_time,
            Terminator.END_OF_LINE if kinds[closer] is eol
            else Terminator.END_OF_BLOCK if kinds[closer] is eob
            else Terminator.IMPLICIT_END,
        )
        for start, stop, closer in _line_cuts(kinds, eol, eob, TokenKind.END_OF_SEGMENT)
    ])


def _line_cuts(column: Sequence, eol, eob, eos) -> list[tuple[int, int, int]]:
    """(start, stop, closer) of each line of extract_lines, cut from a column
    of the events' kinds or surfaces in which eol, eob and eos stand for
    <eol>, <eob> and <eos>: the line's words are the events [start, stop),
    and it breaks at event closer's time. A line closed by <eol> or <eob>
    has closer == stop; the words after the last break, up to <eos> (only
    ever last), form an implicit line at the last event's time."""
    cuts = []
    start = 0
    for i in [i for i, x in enumerate(column) if x == eol or x == eob]:
        cuts.append((start, i, i))
        start = i + 1
    stop = len(column) - 1 if column and column[-1] == eos else len(column)
    if start < stop:
        cuts.append((start, stop, len(column) - 1))
    return cuts


def blocks_from_lines(lines: Sequence[SubtitleLine]) -> tuple[SubtitleBlock, ...]:
    """Group extracted lines into blocks: a block is the run of lines up to
    one closed by ``<eob>``. A trailing run forms a final implicit block
    timed at its last line's break time."""
    blocks: list[SubtitleBlock] = []
    start = 0
    for stop in _block_stops([line.terminator for line in lines], Terminator.END_OF_BLOCK):
        last = lines[stop - 1]
        terminator = last.terminator
        if terminator is not Terminator.END_OF_BLOCK:
            terminator = Terminator.IMPLICIT_END
        blocks.append(SubtitleBlock(tuple(lines[start:stop]), last.break_time, terminator))
        start = stop
    return tuple(blocks)


def _block_stops(ends: Sequence, eob) -> list[int]:
    """Where each block of blocks_from_lines ends, given what closes each
    line (its terminator, or the kind or surface of its closer), in which
    eob stands for <eob>: the index after its last line, which is closed by
    <eob> or is the last line."""
    stops = [i for i, end in enumerate(ends, 1) if end == eob]
    if len(ends) > (stops[-1] if stops else 0):
        stops.append(len(ends))
    return stops


def _block_rows(surfaces: Sequence[str], times: Sequence[float]) -> list[tuple[float, list[str]]]:
    """(block_time, line texts) of each block of extract_blocks over the
    events of these checked (surface, time) columns, cut from the columns."""
    cuts = _line_cuts(surfaces, EOL_SURFACE, EOB_SURFACE, EOS_SURFACE)
    rows = [" ".join(surfaces[start:stop]) for start, stop, _ in cuts]
    blocks = []
    start = 0
    for stop in _block_stops([surfaces[closer] for _, _, closer in cuts], EOB_SURFACE):
        blocks.append((times[cuts[stop - 1][2]], rows[start:stop]))
        start = stop
    return blocks


def _tiled(onsets: Sequence[float]) -> list[tuple[int, float, float | None]]:
    """(unit, onset, offset) of the screen states of units shown from their
    onsets: each until the next unit's onset, the last open-ended (offset
    None). Burst emissions produce zero-length states; they are dropped so
    states tile time without overlap."""
    offsets = [*onsets[1:], None]
    return [
        (i, onset, offset)
        for i, (onset, offset) in enumerate(zip(onsets, offsets))
        if offset is None or onset < offset
    ]


def _closed_offset(onset: float, end_time: float) -> float:
    """When an open-ended state shown from onset ends, closed at end_time:
    never before it is shown."""
    return max(end_time, onset)
