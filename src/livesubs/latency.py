"""Latency metrics: Average Lagging and per-mode display delay.

Average Lagging (AL) measures how far token emission lags behind an ideal
translator that consumes the source at a uniform rate, averaged up to the
point where the source is fully consumed. Display delay adds, on top of AL,
the extra time a display mode withholds already-emitted words from the
screen; for word-for-word display that extra time is zero, so its delay
equals AL by construction.
"""

from __future__ import annotations

from statistics import fmean

from .core import EmissionLog, StreamError
from .display import DisplaySchedule

__all__ = [
    "EmptyLogError",
    "MismatchedSegmentError",
    "average_lagging",
    "display_delay",
]


class EmptyLogError(StreamError):
    """Latency is undefined for a log with no word events."""


class MismatchedSegmentError(StreamError):
    """Schedule and log do not describe the same segment."""


def _word_consumed_source(log: EmissionLog) -> list[float]:
    """Consumed-source seconds per word. Simulated logs record it exactly;
    for external logs the emission time (clamped to the source duration)
    upper-bounds it and is used as an approximation."""
    if log.consumed_source is not None:
        return [
            g for g, ev in zip(log.consumed_source, log.events) if ev.is_word
        ]
    d = log.source_duration
    return [min(ev.emit_time, d) for ev in log.words]


def average_lagging(log: EmissionLog) -> float:
    """Average Lagging of one segment, in milliseconds.

    Computed over word tokens (break symbols are formatting, not content):
    AL = (1/tau) * sum_{i=1..tau} [g(i) - (i-1) * D / n], where g(i) is the
    source consumed when word i was emitted, D the source duration, n the
    number of words and tau the first index with g(i) >= D (n if none).
    """
    g = _word_consumed_source(log)
    n = len(g)
    if n == 0:
        raise EmptyLogError(f"segment {log.segment_id}: no word events")
    d = log.source_duration
    tau = n
    for i, gi in enumerate(g, start=1):
        if gi >= d:
            tau = i
            break
    total = sum(g[i] - i * d / n for i in range(tau))
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
    extra = fmean(
        schedule.word_display_times[i] - w.emit_time for i, w in enumerate(words)
    )
    return al + 1000.0 * extra
