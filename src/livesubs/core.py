"""Core domain types for timed subtitle token streams.

A token stream is a sequence of (surface, emission time) pairs. Surfaces are
either words or the break symbols ``<eol>`` (end of line), ``<eob>`` (end of
subtitle block) and ``<eos>`` (end of audio segment). All times are seconds
from the start of the source audio.
"""

from __future__ import annotations

import math
import re
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
_WHITESPACE = re.compile(r"\s")  # the characters str.isspace() accepts


class StreamError(ValueError):
    """Malformed token stream. ``line`` and ``field``, when known, locate the
    bad record in its file; the text then starts with them."""

    # What the text names instead of the line when it is unknown.
    _unlocated = ""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        super().__init__(self._text(message, line, field))
        self.message = message
        self.line = line
        self.field = field

    def _text(self, message: str, line: int | None, field: str | None) -> str:
        where = f"line {line}" if line is not None else self._unlocated
        if not where:
            return message
        if field is not None:
            where += f", field {field!r}"
        return f"{where}: {message}"

    def __reduce__(self):
        # Rebuild from the parts, not from the composed text, so the error
        # is unchanged after pickling (raised in a worker process).
        return type(self), (self.message, self.line, self.field)


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


@dataclass(frozen=True, slots=True)
class TokenEvent:
    """One emitted token with its emission timestamp."""

    surface: str
    kind: TokenKind
    emit_time: float

    def __post_init__(self) -> None:
        if not self.surface:
            raise EmptySurfaceError("token surface is empty")
        if self.kind is TokenKind.WORD and _WHITESPACE.search(self.surface):
            raise StreamError(f"word surface contains whitespace: {self.surface!r}")
        if self.emit_time < 0:
            raise StreamError(f"negative emission time: {self.emit_time}")

    @property
    def is_word(self) -> bool:
        return self.kind is TokenKind.WORD


def parse_token_stream(
    raw: Iterable[tuple[str, float]],
) -> tuple[TokenEvent, ...]:
    """Classify raw (surface, emit_time) pairs into token events.

    Order and timestamps are preserved. Raises NonMonotonicTimeError if a
    timestamp decreases, EmptySurfaceError on an empty surface.
    """
    events: list[TokenEvent] = []
    last_t = float("-inf")
    for surface, t in raw:
        if t < last_t:
            raise NonMonotonicTimeError(
                f"emission time decreases: {t} after {last_t}"
            )
        last_t = t
        events.append(TokenEvent(surface, classify_surface(surface), t))
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
        return len(self.text)


def delay_k_seconds(wait_k: int, step_size: float = 0.280) -> float:
    """Conservative stand-in for the unknown next emission time at segment end."""
    if wait_k < 1:
        raise ValueError(f"wait_k must be >= 1, got {wait_k}")
    if step_size <= 0:
        raise ValueError(f"step_size must be > 0, got {step_size}")
    return step_size * wait_k


def finite_delay_k(wait_k: int, step_size: float) -> bool:
    """Whether the wait-k delay step_size * wait_k is a finite float."""
    try:
        return math.isfinite(step_size * wait_k)
    except OverflowError:  # wait_k is too large to be a float
        return False


@dataclass(frozen=True)
class EmissionLog:
    """One audio segment's emission sequence plus policy parameters.

    ``consumed_source`` optionally records, per event, how much source audio
    (seconds) had been consumed when the token was emitted; simulated logs
    carry it so latency can be computed exactly.
    """

    segment_id: str
    source_duration: float
    wait_k: int
    step_size: float = 0.280
    events: tuple[TokenEvent, ...] = ()
    consumed_source: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.source_duration <= 0:
            raise StreamError(
                f"source_duration must be > 0, got {self.source_duration}"
            )
        if self.wait_k < 1:
            raise StreamError(f"wait_k must be >= 1, got {self.wait_k}")
        if self.step_size <= 0:
            raise StreamError(f"step_size must be > 0, got {self.step_size}")
        last_t = float("-inf")
        for i, ev in enumerate(self.events):
            if ev.emit_time < last_t:
                raise NonMonotonicTimeError(
                    f"segment {self.segment_id}: emission time decreases at event {i}"
                )
            last_t = ev.emit_time
            if ev.kind is TokenKind.END_OF_SEGMENT and i != len(self.events) - 1:
                raise StreamError(
                    f"segment {self.segment_id}: <eos> is not the last event"
                )
        if self.consumed_source is not None and len(self.consumed_source) != len(
            self.events
        ):
            raise StreamError(
                f"segment {self.segment_id}: consumed_source length mismatch"
            )

    @property
    def delay_k(self) -> float:
        return delay_k_seconds(self.wait_k, self.step_size)

    @cached_property
    def words(self) -> tuple[TokenEvent, ...]:
        return tuple(ev for ev in self.events if ev.is_word)

    @property
    def end_time(self) -> float:
        return self.events[-1].emit_time if self.events else 0.0


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
    lines: list[SubtitleLine] = []
    cur_words: list[TokenEvent] = []
    for ev in events:
        if ev.kind is TokenKind.WORD:
            cur_words.append(ev)
        elif ev.kind is TokenKind.END_OF_LINE:
            lines.append(SubtitleLine(tuple(cur_words), ev.emit_time, Terminator.END_OF_LINE))
            cur_words = []
        elif ev.kind is TokenKind.END_OF_BLOCK:
            lines.append(SubtitleLine(tuple(cur_words), ev.emit_time, Terminator.END_OF_BLOCK))
            cur_words = []
    if cur_words:
        lines.append(
            SubtitleLine(tuple(cur_words), events[-1].emit_time, Terminator.IMPLICIT_END)
        )
    return tuple(lines)


def blocks_from_lines(lines: Sequence[SubtitleLine]) -> tuple[SubtitleBlock, ...]:
    """Group extracted lines into blocks: a block is the run of lines up to
    one closed by ``<eob>``. A trailing run forms a final implicit block
    timed at its last line's break time."""
    blocks: list[SubtitleBlock] = []
    start = 0
    for i, line in enumerate(lines, start=1):
        if line.terminator is Terminator.END_OF_BLOCK:
            blocks.append(SubtitleBlock(tuple(lines[start:i]), line.break_time, line.terminator))
            start = i
    if start < len(lines):
        trailing = tuple(lines[start:])
        blocks.append(SubtitleBlock(trailing, trailing[-1].break_time, Terminator.IMPLICIT_END))
    return tuple(blocks)
