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
from statistics import fmean, mean, pstdev
from typing import Sequence

from .core import SubtitleBlock, SubtitleLine
from .display import DisplayMode, WordBlock

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

# Conformity defaults: 21 cps reading-speed ceiling, 6-42 characters per line.
RS_THRESHOLD_CPS = 21.0
MIN_CPL = 6
MAX_CPL = 42


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
    best = 0.0
    suffix_len = 0
    elapsed = 0.0
    for i in range(len(block.words) - 1, -1, -1):
        w = block.words[i]
        suffix_len += len(w.surface) if i == len(block.words) - 1 else len(w.surface) + 1
        if i == len(block.words) - 1:
            if next_start is None:
                elapsed = delay_k
            else:
                elapsed = next_start - w.emit_time
        else:
            elapsed += block.words[i + 1].emit_time - w.emit_time
        best = max(best, _speed(suffix_len, elapsed))
    return ReadingSpeedSample((segment_id, index), best, DisplayMode.WORD_FOR_WORD)


def rs_word_blocks(
    blocks: Sequence[WordBlock], delay_k: float, segment_id: str = ""
) -> tuple[ReadingSpeedSample, ...]:
    """Per-group word-for-word samples over one segment's word groups."""
    samples: list[ReadingSpeedSample] = []
    for i, block in enumerate(blocks):
        next_start = (
            blocks[i + 1].words[0].emit_time if i + 1 < len(blocks) else None
        )
        sample = rs_word_block(block, next_start, delay_k, segment_id, i)
        if sample is not None:
            samples.append(sample)
    return tuple(samples)


def _readable_speeds(
    units: Sequence, times: Sequence[float], ahead: int, delay_k: float, segment_id: str,
    mode: DisplayMode,
) -> tuple[ReadingSpeedSample, ...]:
    """Each non-empty unit's text over the time until the unit ahead places
    later appears (times[i] is when unit i appears). When that unit does not
    exist, the interval runs to the last unit's time plus the wait-k delay."""
    samples: list[ReadingSpeedSample] = []
    last = len(units) - 1
    for i, unit in enumerate(units):
        length = unit.char_length
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
    times = [b.block_time for b in blocks]
    return _readable_speeds(blocks, times, 1, delay_k, segment_id, DisplayMode.BLOCKS)


def rs_lines(
    lines: Sequence[SubtitleLine], delay_k: float, segment_id: str = ""
) -> tuple[ReadingSpeedSample, ...]:
    """Scrolling-lines reading speed: a line stays visible until two later
    lines have appeared, so its slot spans the next two inter-line gaps. The
    missing future gaps at segment end are replaced by the wait-k delay."""
    times = [line.break_time for line in lines]
    return _readable_speeds(lines, times, 2, delay_k, segment_id, DisplayMode.SCROLLING_LINES)


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
    return all(min_cpl <= line.char_length <= max_cpl for line in block.lines)


def length_conformity(
    blocks: Sequence[SubtitleBlock], min_cpl: int = MIN_CPL, max_cpl: int = MAX_CPL
) -> float | None:
    """Percentage of subtitles that conform in length (block_conforms)."""
    if not blocks:
        return None
    ok = sum(1 for b in blocks if block_conforms(b, min_cpl, max_cpl))
    return 100.0 * ok / len(blocks)
