"""Corpus evaluation and report rendering.

evaluate_log / evaluate_corpus wire the whole pipeline together: extract the
subtitle structure from each emission log, compute reading-speed samples and
latency for every display mode, and aggregate corpus statistics in a
CorpusTally: the tallies of consecutive runs of a corpus, folded anywhere (in
worker processes, say), merge into the tally of the whole. screen_schedule
gives the screen states that replay and SRT export render, built by each
mode's entry in MODES. Reports are serialized both as JSON and as an aligned
text table with one row per mode (reading speed mean +/- std, conformity
percentage, display delay).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring
from typing import Callable, Iterable, Sequence

from .core import EmissionLog, SubtitleLine, Terminator, _block_stops, _joined_length
from .core import blocks_from_lines, extract_lines
from .display import (
    MAX_ROW_CHARS,
    DisplayMode,
    DisplaySchedule,
    _pack_rows,
    close_schedule,
    group_word_blocks,
    schedule_block_mode,
    schedule_line_mode,
    schedule_word_mode,
)
from .formats import _each_record, read_log_corpus
from .latency import LatencyOverflowError, _delay_ms, _lagging_ms, _word_consumed_source
from .reading_speed import (
    MAX_CPL,
    MIN_CPL,
    RS_THRESHOLD_CPS,
    ReadingSpeedSample,
    ReadingSpeedStats,
    _conforms,
    _group_speeds,
    _readable_speeds,
    cps_stats,
    fmean_no_overflow,
    rs_lines,
)

__all__ = [
    "MODES",
    "MODE_ORDER",
    "SegmentMetrics",
    "CorpusReport",
    "CorpusTally",
    "evaluate_log",
    "screen_schedule",
    "evaluate_corpus",
    "report_to_dict",
    "render_table",
    "write_report",
]


# Each mode's open screen schedule of one segment, from its log, its lines
# (one segmentation pass serves all modes) and the row width. The entries
# look the module's functions up when called, not at import, so anything that
# rebinds those names (a wrapper, a mock) sees every call.
MODES: dict[DisplayMode, Callable[[EmissionLog, Sequence[SubtitleLine], int], DisplaySchedule]] = {
    DisplayMode.WORD_FOR_WORD: lambda log, lines, max_row_chars: schedule_word_mode(
        group_word_blocks(log.events, max_row_chars)
    ),
    DisplayMode.BLOCKS: lambda log, lines, max_row_chars: schedule_block_mode(
        blocks_from_lines(lines)
    ),
    DisplayMode.SCROLLING_LINES: lambda log, lines, max_row_chars: schedule_line_mode(lines),
}

# Fixed presentation order.
MODE_ORDER = tuple(MODES)
_MODE_KEYS = tuple(m.value for m in MODE_ORDER)
# Looked up once: an Enum member looked up through its class costs about
# 0.1 us in Python 3.11, which evaluate_log would pay per segment and mode.
_WORD, _BLOCKS, _LINES = DisplayMode.WORD_FOR_WORD, DisplayMode.BLOCKS, DisplayMode.SCROLLING_LINES


@dataclass(frozen=True)
class SegmentMetrics:
    segment_id: str
    average_lagging: float  # ms
    delay_by_mode: dict[DisplayMode, float]  # ms
    rs_samples: dict[DisplayMode, tuple[ReadingSpeedSample, ...]]
    n_blocks: int
    n_conforming_blocks: int


@dataclass(frozen=True)
class CorpusReport:
    n_segments: int
    average_lagging: float  # ms, mean over segments
    delay_by_mode: dict[DisplayMode, float]  # ms, mean over segments
    rs_by_mode: dict[DisplayMode, ReadingSpeedStats | None]
    length_conformity_pct: float | None
    rs_threshold: float
    cpl_bounds: tuple[int, int]
    # What the per-segment report lists, in corpus order: one tuple per
    # segment of its id, its AL and each mode's delay in MODE_ORDER (ms).
    segment_rows: Sequence[tuple] = ()


def evaluate_log(
    log: EmissionLog,
    min_cpl: int = MIN_CPL,
    max_cpl: int = MAX_CPL,
    max_row_chars: int = MAX_ROW_CHARS,
) -> SegmentMetrics:
    """All per-segment metrics for one emission log.

    One segmentation pass serves all modes. Blocks and word groups are index
    ranges over the lines and words, and no screen states are built: a
    mode's delay is AL plus the mean over words of (first shown - emitted).
    Raises LatencyOverflowError if AL or a delay is not a finite float.
    """
    lines = extract_lines(log.events)
    # Columns, one entry per word: its emission time and length, and when its
    # line and its block are complete.
    times: list[float] = []
    lengths: list[int] = []
    line_closed: list[float] = []
    block_closed: list[float] = []
    # One entry per block: when it is complete, its length, whether it conforms.
    block_times: list[float] = []
    block_lengths: list[int] = []
    n_conforming = 0
    line_lengths = [line.char_length for line in lines]
    start = 0
    for stop in _block_stops([line.terminator for line in lines], Terminator.END_OF_BLOCK):
        first_word = len(times)
        for line in lines[start:stop]:
            words = line.words
            times += [w.emit_time for w in words]
            lengths += [len(w.surface) for w in words]
            line_closed += [line.break_time] * len(words)
        block_time = lines[stop - 1].break_time
        block_closed += [block_time] * (len(times) - first_word)
        block_times.append(block_time)
        block_lengths.append(_joined_length(line_lengths[start:stop]))
        n_conforming += _conforms(line_lengths[start:stop], min_cpl, max_cpl)
        start = stop
    segment_id = log.segment_id
    al = _lagging_ms(_word_consumed_source(log, times), log.source_duration, segment_id)
    if not math.isfinite(al):  # g <= duration in every log, so the duration is to blame
        raise LatencyOverflowError(
            f"segment {segment_id}: AL is not a finite number of ms", None, "duration"
        )
    shown = {_WORD: times, _BLOCKS: block_closed, _LINES: line_closed}
    delays = {}
    for mode in MODE_ORDER:
        delays[mode] = _delay_ms(al, shown[mode], times)
        if not math.isfinite(delays[mode]):
            raise LatencyOverflowError(
                f"segment {segment_id}: {mode.value} delay is not a finite number of ms",
                None, "events",
            )
    delay_k = log.delay_k
    group_stops = [stop for stop, _ in _pack_rows(lengths, max_row_chars)]
    samples = {
        _WORD: _group_speeds(lengths, times, group_stops, delay_k, segment_id),
        _BLOCKS: _readable_speeds(block_lengths, block_times, 1, delay_k, segment_id, _BLOCKS),
        _LINES: rs_lines(lines, delay_k, segment_id),
    }
    return SegmentMetrics(
        segment_id=segment_id,
        average_lagging=al,
        delay_by_mode=delays,
        rs_samples=samples,
        n_blocks=len(block_times),
        n_conforming_blocks=n_conforming,
    )


def screen_schedule(
    log: EmissionLog, mode: DisplayMode, max_row_chars: int = MAX_ROW_CHARS
) -> DisplaySchedule:
    """One segment's screen states in one mode, the last closed at segment
    end plus the wait-k delay (the unknown next emission)."""
    schedule = MODES[mode](log, extract_lines(log.events), max_row_chars)
    return close_schedule(schedule, log.end_time + log.delay_k)


def evaluate_corpus(
    logs: Iterable[EmissionLog],
    rs_threshold: float = RS_THRESHOLD_CPS,
    min_cpl: int = MIN_CPL,
    max_cpl: int = MAX_CPL,
    max_row_chars: int = MAX_ROW_CHARS,
) -> CorpusReport:
    """Aggregate metrics over a corpus of emission logs."""
    tally = CorpusTally()
    for log in logs:
        tally.add(evaluate_log(log, min_cpl, max_cpl, max_row_chars))
    return tally.report(rs_threshold, min_cpl, max_cpl)


class CorpusTally:
    """The values corpus statistics are computed from, in corpus order: each
    mode's pooled reading speeds (cps), each segment's AL and per-mode
    delays, the block counts, and the segment ids with the corpus line each
    was read from (None when not read from a file).

    Tallies of consecutive runs of a corpus merge into the tally of the
    whole: the same float sequences, so the same report.
    """

    def __init__(self) -> None:
        self.cps: dict[DisplayMode, list[float]] = {m: [] for m in MODE_ORDER}
        self.al: list[float] = []
        self.delays: dict[DisplayMode, list[float]] = {m: [] for m in MODE_ORDER}
        self.n_blocks = 0
        self.n_conforming_blocks = 0
        self.ids: list[str] = []
        self.lines: list[int | None] = []

    def add(self, metrics: SegmentMetrics, line: int | None = None) -> None:
        """Append one segment, read from corpus line line."""
        self.al.append(metrics.average_lagging)
        for mode in MODE_ORDER:
            self.cps[mode].extend([s.cps for s in metrics.rs_samples[mode]])
            self.delays[mode].append(metrics.delay_by_mode[mode])
        self.n_blocks += metrics.n_blocks
        self.n_conforming_blocks += metrics.n_conforming_blocks
        self.ids.append(metrics.segment_id)
        self.lines.append(line)

    def merge(self, other: CorpusTally) -> None:
        """Append the segments of other, which follow these in the corpus."""
        self.al.extend(other.al)
        for mode in MODE_ORDER:
            self.cps[mode].extend(other.cps[mode])
            self.delays[mode].extend(other.delays[mode])
        self.n_blocks += other.n_blocks
        self.n_conforming_blocks += other.n_conforming_blocks
        self.ids.extend(other.ids)
        self.lines.extend(other.lines)

    def report(
        self,
        rs_threshold: float = RS_THRESHOLD_CPS,
        min_cpl: int = MIN_CPL,
        max_cpl: int = MAX_CPL,
    ) -> CorpusReport:
        """The corpus report. Reading-speed statistics pool the speeds across
        segments; AL and delays are means of the per-segment values."""
        if not self.al:
            return CorpusReport(
                0, 0.0, {}, {m: None for m in MODE_ORDER}, None, rs_threshold,
                (min_cpl, max_cpl),
            )
        return CorpusReport(
            n_segments=len(self.al),
            average_lagging=fmean_no_overflow(self.al),
            delay_by_mode={m: fmean_no_overflow(self.delays[m]) for m in MODE_ORDER},
            rs_by_mode={m: cps_stats(self.cps[m], rs_threshold) for m in MODE_ORDER},
            length_conformity_pct=(
                100.0 * self.n_conforming_blocks / self.n_blocks if self.n_blocks else None
            ),
            rs_threshold=rs_threshold,
            cpl_bounds=(min_cpl, max_cpl),
            segment_rows=tuple(zip(self.ids, self.al, *(self.delays[m] for m in MODE_ORDER))),
        )


def _tally_run(min_cpl: int, max_cpl: int, max_row_chars: int, run) -> CorpusTally:
    """An evaluate worker's CorpusTally of a run, (first line number, lines).
    read_log_corpus and evaluate_log are looked up per call: a wrapper sees each record."""
    measure = partial(evaluate_log, min_cpl=min_cpl, max_cpl=max_cpl, max_row_chars=max_row_chars)
    tally = CorpusTally()
    for lineno, metrics in _each_record(*run, measure, read_log_corpus):
        tally.add(metrics, lineno)
    return tally


def _mode_dict(report: CorpusReport, mode: DisplayMode) -> dict:
    stats = report.rs_by_mode.get(mode)
    entry: dict = {
        "delay_ms": report.delay_by_mode.get(mode),
    }
    if stats is None:
        entry.update(
            {"rs_mean": None, "rs_std": None, "pct_conforming": None, "n_samples": 0}
        )
    else:
        entry.update(
            {
                "rs_mean": stats.mean,
                "rs_std": stats.std_dev,
                "pct_conforming": stats.pct_conforming,
                "n_samples": stats.n_samples,
            }
        )
    return entry


def report_to_dict(report: CorpusReport, per_segment: bool = False) -> dict:
    """Machine-readable report document."""
    doc: dict = {
        "segments": report.n_segments,
        "al_ms": report.average_lagging if report.n_segments else None,
        "rs_threshold_cps": report.rs_threshold,
        "cpl_bounds": list(report.cpl_bounds),
        "length_conformity_pct": report.length_conformity_pct,
        "modes": {mode.value: _mode_dict(report, mode) for mode in MODE_ORDER},
    }
    if per_segment:
        doc["per_segment"] = [
            {"id": seg_id, "al_ms": al, "delay_ms": dict(zip(_MODE_KEYS, delays))}
            for seg_id, al, *delays in report.segment_rows
        ]
    return doc


def render_table(report: CorpusReport, modes: Iterable[DisplayMode] = MODE_ORDER) -> str:
    """Aligned text table: one row per display mode in modes."""
    header = f"{'mode':<6}  {'rs':>12}  {'<=' + format(report.rs_threshold, 'g') + 'cps':>8}  {'delay':>6}"
    rows = [header]
    if report.n_segments == 0:
        rows.append("(empty corpus)")
        return "\n".join(rows) + "\n"
    for mode in modes:
        stats = report.rs_by_mode.get(mode)
        delay = report.delay_by_mode.get(mode)
        if stats is None:
            rs_text, pct_text = "-", "-"
        else:
            rs_text = f"{stats.mean:.1f} ± {stats.std_dev:.1f}"
            pct_text = f"{stats.pct_conforming:.0f}%"
        delay_text = f"{delay:.0f}" if delay is not None else "-"
        rows.append(f"{mode.value:<6}  {rs_text:>12}  {pct_text:>8}  {delay_text:>6}")
    conf = report.length_conformity_pct
    rows.append(
        f"length conformity ({report.cpl_bounds[0]}-{report.cpl_bounds[1]} cpl): "
        + (f"{conf:.0f}%" if conf is not None else "-")
    )
    rows.append(f"AL: {report.average_lagging:.0f} ms over {report.n_segments} segments")
    return "\n".join(rows) + "\n"


# One per-segment entry as json.dumps(indent=2) lays it out at its depth.
_SEGMENT_ENTRY = (
    '    {\n      "id": %s,\n      "al_ms": %s,\n      "delay_ms": {\n'
    + ",\n".join(f"        {encode_basestring(key)}: %s" for key in _MODE_KEYS)
    + "\n      }\n    }"
)

_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: Sequence[float]) -> list[str]:
    """Each float as json spells it: its repr, or NaN, Infinity, -Infinity."""
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = [_JSON_CONSTANTS.get(t, t) for t in texts]
    return texts


def write_report(report: CorpusReport, per_segment: bool = False) -> str:
    """Serialize the report as deterministic JSON: the text of
    json.dumps(report_to_dict(report, per_segment), ensure_ascii=False,
    indent=2) plus a newline. The per-segment entries, nearly all of it,
    are laid out from one template, which is many times faster than the
    pure-Python encoder that indent selects."""
    head = json.dumps(report_to_dict(report), ensure_ascii=False, indent=2)
    if not per_segment:
        return head + "\n"
    rows = report.segment_rows
    if not rows:
        return head[:-2] + ',\n  "per_segment": []\n}\n'
    ids, *columns = zip(*rows)
    entries = zip(map(encode_basestring, ids), *map(_json_floats, columns))
    body = ",\n".join([_SEGMENT_ENTRY % entry for entry in entries])
    return head[:-2] + ',\n  "per_segment": [\n' + body + "\n  ]\n}\n"
