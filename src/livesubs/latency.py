"""Latency metrics: Average Lagging and per-mode display delay.

Average Lagging (AL) measures how far token emission lags behind an ideal
translator that consumes the source at a uniform rate, averaged up to the
point where the source is fully consumed. Display delay adds, on top of AL,
the extra time a display mode withholds already-emitted words from the
screen; for word-for-word display that extra time is zero, so its delay
equals AL by construction.
"""

from __future__ import annotations

from operator import sub
from typing import Sequence

from .core import EmissionLog, StreamError, TokenKind
from .display import DisplaySchedule
from .reading_speed import fmean_no_overflow

__all__ = [
    "EmptyLogError",
    "LatencyOverflowError",
    "MismatchedSegmentError",
    "average_lagging",
    "display_delay",
]


class EmptyLogError(StreamError):
    """Latency is undefined for a log with no word events."""


class LatencyOverflowError(StreamError):
    """A log of finite times whose AL or display delay, in milliseconds, is
    too large for a float; ``field`` names the input to blame."""


class MismatchedSegmentError(StreamError):
    """Schedule and log do not describe the same segment."""


def _word_consumed_source(log: EmissionLog, word_times: Sequence[float]) -> list[float]:
    """Consumed-source seconds per word (word_times are the words' emission
    times). Simulated logs record it exactly; for external logs the emission
    time (clamped to the source duration) upper-bounds it and is used as an
    approximation."""
    if log.consumed_source is not None:
        word = TokenKind.WORD
        return [g for g, ev in zip(log.consumed_source, log.events) if ev.kind is word]
    d = log.source_duration
    return [min(t, d) for t in word_times]


def average_lagging(log: EmissionLog) -> float:
    """Average Lagging of one segment, in milliseconds.

    Computed over word tokens (break symbols are formatting, not content):
    AL = (1/tau) * sum_{i=1..tau} [g(i) - (i-1) * D / n], where g(i) is the
    source consumed when word i was emitted, D the source duration, n the
    number of words and tau the first index with g(i) >= D (n if none).
    """
    g = _word_consumed_source(log, [w.emit_time for w in log.words])
    return _lagging_ms(g, log.source_duration, log.segment_id)


def _lagging_ms(g: Sequence[float], d: float, segment_id: str) -> float:
    """average_lagging of the words' consumed source g and the duration d."""
    n = len(g)
    if n == 0:
        raise EmptyLogError(f"segment {segment_id}: no word events", None, "events")
    tau = n
    for i, gi in enumerate(g, start=1):
        if gi >= d:
            tau = i
            break
    # Left to right: builtin sum() of floats is compensated from Python 3.12 on.
    total = 0.0
    for i in range(tau):
        total += g[i] - i * d / n
    return 1000.0 * total / tau


def display_delay(
    schedule: DisplaySchedule, log: EmissionLog, al: float
) -> float:
    """Display delay of one segment for one mode, in milliseconds.

    Delay = AL + mean over words of (display time - emission time). The
    second term is zero for word-for-word display (a word shows the instant
    it is emitted) and grows with how long a mode buffers words before the
    closing break.
    """
    words = log.words
    if len(schedule.word_display_times) != len(words):
        raise MismatchedSegmentError(
            f"segment {log.segment_id}: schedule covers "
            f"{len(schedule.word_display_times)} words, log has {len(words)}"
        )
    if not words:
        raise EmptyLogError(f"segment {log.segment_id}: no word events")
    shown = [schedule.word_display_times[i] for i in range(len(words))]
    return _delay_ms(al, shown, [w.emit_time for w in words])


def _delay_ms(al: float, shown: Sequence[float], emitted: Sequence[float]) -> float:
    """display_delay: al plus the mean over words of (first shown - emitted)."""
    return al + 1000.0 * fmean_no_overflow(list(map(sub, shown, emitted)))
