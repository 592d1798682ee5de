"""Screen schedules for the three live-subtitle display modes.

Each scheduler turns timed subtitle units into a time-ordered sequence of
screen states (what rows are visible, from when to when) plus the first time
each word becomes visible: in word mode when it is emitted, in block and line
mode when its unit is complete. The final state of a segment is open-ended
(``offset=None``) until closed for rendering or export.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import SubtitleBlock, SubtitleLine, TokenEvent

__all__ = [
    "DisplayMode",
    "ScreenState",
    "DisplaySchedule",
    "WordBlock",
    "MAX_ROW_CHARS",
    "group_word_blocks",
    "schedule_word_mode",
    "schedule_block_mode",
    "schedule_line_mode",
    "close_schedule",
]

# Maximum characters of a full subtitle row (TED-style two-line block).
MAX_ROW_CHARS = 84


class DisplayMode(Enum):
    WORD_FOR_WORD = "word"
    BLOCKS = "block"
    SCROLLING_LINES = "line"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; Enum's default hashes the name in Python,
    # which is slow for the per-segment, per-mode dicts.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class ScreenState:
    """Rows visible on screen during [onset, offset)."""

    rows: tuple[str, ...]
    onset: float
    offset: float | None  # None: open-ended final state


@dataclass(frozen=True)
class DisplaySchedule:
    """Time-ordered screen states for one segment in one display mode.

    ``word_display_times[i]`` is the first time the i-th word (in emission
    order) is visible.
    """

    mode: DisplayMode
    states: tuple[ScreenState, ...]
    word_display_times: dict[int, float]


@dataclass(frozen=True)
class WordBlock:
    """A greedy group of words filling one word-for-word display row."""

    words: tuple[TokenEvent, ...]
    char_length: int

    @property
    def text(self) -> str:
        return " ".join(w.surface for w in self.words)


def group_word_blocks(
    events: Sequence[TokenEvent], max_chars: int = MAX_ROW_CHARS
) -> tuple[WordBlock, ...]:
    """Pack words greedily into rows of at most max_chars characters.

    Break tokens are skipped: word-for-word display ignores the subtitle
    structure. Character count is word lengths plus one space between
    adjacent words. A single word longer than max_chars gets its own block.
    """
    words = [ev for ev in events if ev.is_word]
    blocks: list[WordBlock] = []
    start = 0
    for stop, width in _pack_rows([len(w.surface) for w in words], max_chars):
        blocks.append(WordBlock(tuple(words[start:stop]), width))
        start = stop
    return tuple(blocks)


def _pack_rows(lengths: Sequence[int], max_chars: int) -> list[tuple[int, int]]:
    """group_word_blocks over word lengths: (index after its last word,
    characters) of each row."""
    rows: list[tuple[int, int]] = []
    width = 0
    for i, n in enumerate(lengths):
        if i and width + 1 + n <= max_chars:
            width += 1 + n
        else:
            if i:
                rows.append((i, width))
            width = n
    if lengths:
        rows.append((len(lengths), width))
    return rows


def _schedule(
    mode: DisplayMode,
    rows: Sequence[tuple[str, ...]],
    onsets: Sequence[float],
    shown: Sequence[float],
) -> DisplaySchedule:
    """The mode's schedule: rows[i] on screen from onsets[i], tiled as _tiled
    says; the i-th word in emission order is first shown at shown[i]."""
    states = tuple(ScreenState(rows[i], on, off) for i, on, off in _tiled(onsets))
    return DisplaySchedule(mode, states, dict(enumerate(shown)))


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


def schedule_word_mode(blocks: Sequence[WordBlock]) -> DisplaySchedule:
    """Word-for-word display: each word appears when emitted; the row is
    cleared when the next block's first word is emitted. The last state is
    open-ended, as in every mode, until close_schedule closes it."""
    rows: list[tuple[str]] = []
    for block in blocks:
        row = ""
        for w in block.words:
            row = w.surface if not row else row + " " + w.surface
            rows.append((row,))
    onsets = [w.emit_time for block in blocks for w in block.words]
    return _schedule(DisplayMode.WORD_FOR_WORD, rows, onsets, onsets)


def schedule_block_mode(blocks: Sequence[SubtitleBlock]) -> DisplaySchedule:
    """Block display: a block becomes visible when completed and stays until
    the next block is completed."""
    rows = [tuple(line.text for line in block.lines) for block in blocks]
    onsets = [block.block_time for block in blocks]
    shown = [block.block_time for block in blocks for _ in block.words]
    return _schedule(DisplayMode.BLOCKS, rows, onsets, shown)


def schedule_line_mode(lines: Sequence[SubtitleLine]) -> DisplaySchedule:
    """Scrolling-lines display: a finished line enters the lower row, moves
    to the upper row when the next line arrives, and disappears after two
    later lines have appeared."""
    rows = [(lines[l - 1].text, line.text) if l else (line.text,) for l, line in enumerate(lines)]
    onsets = [line.break_time for line in lines]
    shown = [line.break_time for line in lines for _ in line.words]
    return _schedule(DisplayMode.SCROLLING_LINES, rows, onsets, shown)


def close_schedule(schedule: DisplaySchedule, end_time: float) -> DisplaySchedule:
    """Close an open-ended final state at end_time (typically segment end
    plus the conservative wait-k delay)."""
    if not schedule.states or schedule.states[-1].offset is not None:
        return schedule
    last = schedule.states[-1]
    closed = ScreenState(last.rows, last.onset, _closed_offset(last.onset, end_time))
    return DisplaySchedule(
        schedule.mode, schedule.states[:-1] + (closed,), schedule.word_display_times
    )


def _closed_offset(onset: float, end_time: float) -> float:
    """When an open-ended state shown from onset ends, closed at end_time:
    never before it is shown."""
    return max(end_time, onset)
