"""Reading-speed (characters per second) metrics for each display mode.

The reading speed of a subtitle unit is its character count divided by the
time it is available on screen. What counts as a unit and how long it stays
visible differ per display mode:

* word-for-word: per 84-character group, the max over per-word suffix speeds;
* blocks: block text over the interval until the next block is completed;
* scrolling lines: line text over the time the next two lines take to appear.

At segment end the next emission time is unknown; the conservative wait-k
delay (step_size * k) stands in for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from statistics import fmean, mean, pstdev
from typing import Sequence

from .core import SubtitleBlock, SubtitleLine
from .defaults import MAX_CPL, MIN_CPL, RS_THRESHOLD_CPS, DisplayMode
from .display import WordBlock

__all__ = [
    "ReadingSpeedSample",
    "ReadingSpeedStats",
    "rs_word_block",
    "rs_word_blocks",
    "rs_blocks",
    "rs_lines",
    "rs_stats",
    "cps_stats",
    "block_conforms",
    "length_conformity",
    "RS_THRESHOLD_CPS",
    "MIN_CPL",
    "MAX_CPL",
]


@dataclass(frozen=True, slots=True)
class ReadingSpeedSample:
    """Reading speed of one subtitle unit.

    cps is +inf when the unit's display interval has zero length (burst
    emission); such samples are excluded from means and counted as
    non-conforming.
    """

    unit_id: tuple[str, int]
    cps: float
    mode: DisplayMode


@dataclass(frozen=True)
class ReadingSpeedStats:
    mean: float
    std_dev: float
    pct_conforming: float
    threshold: float
    n_samples: int
    n_finite: int


def _speed(length: int, elapsed: float) -> float:
    if elapsed <= 0:
        return math.inf
    return length / elapsed


def rs_word_block(
    block: WordBlock,
    next_start: float | None,
    delay_k: float,
    segment_id: str = "",
    index: int = 0,
) -> ReadingSpeedSample | None:
    """Word-for-word reading speed of one word group.

    For each word, the readable text is the word plus the rest of the group
    (joined by single spaces) and the available time runs from its emission
    to the start of the next group. The group's speed is the max over words.
    next_start is None for the final group: the last word's slot is then the
    conservative wait-k delay.
    """
    if not block.words:
        return None
    lengths = [len(w.surface) for w in block.words]
    times = [w.emit_time for w in block.words]
    cps = _group_speed(lengths, times, 0, len(times), next_start, delay_k)
    return ReadingSpeedSample((segment_id, index), cps, DisplayMode.WORD_FOR_WORD)


def _group_speed(
    lengths: Sequence[int], times: Sequence[float], start: int, stop: int,
    next_start: float | None, delay_k: float,
) -> float:
    """rs_word_block's speed, in cps, of the group of words start..stop-1 of
    the columns of word lengths and emission times."""
    last = stop - 1
    suffix_len = lengths[last]
    elapsed = delay_k if next_start is None else next_start - times[last]
    best = max(0.0, _speed(suffix_len, elapsed))
    for i in range(last - 1, start - 1, -1):
        suffix_len += lengths[i] + 1
        elapsed += times[i + 1] - times[i]
        speed = _speed(suffix_len, elapsed)
        if speed > best:
            best = speed
    return best


def _group_speeds(
    lengths: Sequence[int], times: Sequence[float], stops: Sequence[int], delay_k: float,
    segment_id: str,
) -> tuple[ReadingSpeedSample, ...]:
    """rs_word_blocks over the columns of word lengths and emission times:
    group i ends before word stops[i]. Empty groups are skipped."""
    samples: list[ReadingSpeedSample] = []
    mode = DisplayMode.WORD_FOR_WORD
    start = 0
    for index, stop in enumerate(stops):
        if start < stop:
            next_start = times[stop] if stop < len(times) else None
            cps = _group_speed(lengths, times, start, stop, next_start, delay_k)
            samples.append(ReadingSpeedSample((segment_id, index), cps, mode))
        start = stop
    return tuple(samples)


def rs_word_blocks(
    blocks: Sequence[WordBlock], delay_k: float, segment_id: str = ""
) -> tuple[ReadingSpeedSample, ...]:
    """Per-group word-for-word samples over one segment's word groups."""
    words = [w for block in blocks for w in block.words]
    stops = list(accumulate(len(block.words) for block in blocks))
    return _group_speeds(
        [len(w.surface) for w in words], [w.emit_time for w in words], stops, delay_k, segment_id
    )


def _readable_speeds(
    lengths: Sequence[int], times: Sequence[float], ahead: int, delay_k: float, segment_id: str,
    mode: DisplayMode,
) -> tuple[ReadingSpeedSample, ...]:
    """Each non-empty unit's text (lengths[i] characters) over the time until
    the unit ahead places later appears (times[i] is when unit i appears).
    When that unit does not exist, the interval runs to the last unit's time
    plus the wait-k delay."""
    samples: list[ReadingSpeedSample] = []
    last = len(lengths) - 1
    for i, length in enumerate(lengths):
        if length == 0:
            continue
        if i + ahead <= last:
            elapsed = times[i + ahead] - times[i]
        else:
            elapsed = (times[last] - times[i]) + delay_k
        samples.append(ReadingSpeedSample((segment_id, i), _speed(length, elapsed), mode))
    return tuple(samples)


def rs_blocks(
    blocks: Sequence[SubtitleBlock], delay_k: float, segment_id: str = ""
) -> tuple[ReadingSpeedSample, ...]:
    """Block-mode reading speed: block text over the time until the next
    block is completed (wait-k delay for the last block). Break symbols are
    not read and contribute nothing to the text. Empty blocks are skipped."""
    lengths = [b.char_length for b in blocks]
    times = [b.block_time for b in blocks]
    return _readable_speeds(lengths, times, 1, delay_k, segment_id, DisplayMode.BLOCKS)


def rs_lines(
    lines: Sequence[SubtitleLine], delay_k: float, segment_id: str = ""
) -> tuple[ReadingSpeedSample, ...]:
    """Scrolling-lines reading speed: a line stays visible until two later
    lines have appeared, so its slot spans the next two inter-line gaps. The
    missing future gaps at segment end are replaced by the wait-k delay."""
    lengths = [line.char_length for line in lines]
    times = [line.break_time for line in lines]
    return _readable_speeds(lengths, times, 2, delay_k, segment_id, DisplayMode.SCROLLING_LINES)


def rs_stats(
    samples: Sequence[ReadingSpeedSample], threshold: float = RS_THRESHOLD_CPS
) -> ReadingSpeedStats | None:
    """Mean, population std-dev and conformity percentage of rs samples.

    The mean and std-dev are over finite samples only; +inf samples still
    count (as non-conforming) in the percentage. Returns None when there is
    no finite sample to describe.
    """
    return cps_stats([s.cps for s in samples], threshold)


def fmean_no_overflow(values: Sequence[float]) -> float:
    """fmean(values), or, when their sum passes the largest float but their
    mean need not, the exact mean rounded once."""
    try:
        return fmean(values)
    except OverflowError:
        return mean(values)


def cps_stats(
    values: Sequence[float], threshold: float = RS_THRESHOLD_CPS
) -> ReadingSpeedStats | None:
    """rs_stats of the samples' speeds alone, in cps: the form in which a
    corpus pools them."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return None
    conforming = sum(1 for v in values if v <= threshold)
    return ReadingSpeedStats(
        mean=fmean_no_overflow(finite),
        std_dev=pstdev(finite),
        pct_conforming=100.0 * conforming / len(values),
        threshold=threshold,
        n_samples=len(values),
        n_finite=len(finite),
    )


def block_conforms(
    block: SubtitleBlock, min_cpl: int = MIN_CPL, max_cpl: int = MAX_CPL
) -> bool:
    """Whether every line of a subtitle is min_cpl..max_cpl characters long
    (inclusive, spaces included)."""
    return _conforms([line.char_length for line in block.lines], min_cpl, max_cpl)


def _conforms(line_lengths: Sequence[int], min_cpl: int, max_cpl: int) -> bool:
    """block_conforms over the lengths of a block's lines."""
    return all(min_cpl <= n <= max_cpl for n in line_lengths)


def length_conformity(
    blocks: Sequence[SubtitleBlock], min_cpl: int = MIN_CPL, max_cpl: int = MAX_CPL
) -> float | None:
    """Percentage of subtitles that conform in length (block_conforms)."""
    if not blocks:
        return None
    ok = sum(1 for b in blocks if block_conforms(b, min_cpl, max_cpl))
    return 100.0 * ok / len(blocks)
