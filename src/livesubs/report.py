"""Corpus evaluation and report rendering.

evaluate_log / evaluate_corpus wire the whole pipeline together: extract the
subtitle structure from each emission log, compute reading-speed samples and
latency for every display mode (the MODES table says how for each mode), and
aggregate corpus statistics in a CorpusTally: the tallies of consecutive
runs of a corpus, folded anywhere (in worker processes, say), merge into the
tally of the whole. screen_schedule gives the screen states that replay and
SRT export render. Reports are serialized both as JSON and as an aligned
text table with one row per mode (reading speed mean +/- std, conformity
percentage, display delay).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, Sequence

from .core import EmissionLog, SubtitleLine, blocks_from_lines, extract_lines
from .display import (
    MAX_ROW_CHARS,
    SHOWN_AT,
    DisplayMode,
    DisplaySchedule,
    close_schedule,
    group_word_blocks,
    schedule_block_mode,
    schedule_line_mode,
    schedule_word_mode,
)
from .latency import LatencyOverflowError, average_lagging
from .reading_speed import (
    MAX_CPL,
    MIN_CPL,
    RS_THRESHOLD_CPS,
    ReadingSpeedSample,
    ReadingSpeedStats,
    block_conforms,
    cps_stats,
    fmean_no_overflow,
    rs_blocks,
    rs_lines,
    rs_word_blocks,
)

__all__ = [
    "MODES",
    "MODE_ORDER",
    "ModeSpec",
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


@dataclass(frozen=True)
class ModeSpec:
    """One display mode: units(log, lines, max_row_chars) cuts a segment into
    the mode's units from its lines (one segmentation pass serves all modes);
    rs(units, delay_k, segment_id) gives their reading-speed samples;
    schedule(units) builds the screen states that replay and SRT export
    render. When a word is first on screen is display.SHOWN_AT's rule."""

    units: Callable[[EmissionLog, Sequence[SubtitleLine], int], Sequence[Any]]
    rs: Callable[[Sequence[Any], float, str], tuple[ReadingSpeedSample, ...]]
    schedule: Callable[[Sequence[Any]], DisplaySchedule]


# The entries look the module's functions up when called, not at import, so
# anything that rebinds those names (a wrapper, a mock) sees every call.
MODES: dict[DisplayMode, ModeSpec] = {
    DisplayMode.WORD_FOR_WORD: ModeSpec(
        units=lambda log, lines, max_row_chars: group_word_blocks(log.events, max_row_chars),
        rs=lambda units, delay_k, segment_id: rs_word_blocks(units, delay_k, segment_id),
        schedule=lambda units: schedule_word_mode(units),
    ),
    DisplayMode.BLOCKS: ModeSpec(
        units=lambda log, lines, max_row_chars: blocks_from_lines(lines),
        rs=lambda units, delay_k, segment_id: rs_blocks(units, delay_k, segment_id),
        schedule=lambda units: schedule_block_mode(units),
    ),
    DisplayMode.SCROLLING_LINES: ModeSpec(
        units=lambda log, lines, max_row_chars: lines,
        rs=lambda units, delay_k, segment_id: rs_lines(units, delay_k, segment_id),
        schedule=lambda units: schedule_line_mode(units),
    ),
}

# Fixed presentation order.
MODE_ORDER = tuple(MODES)
_MODE_KEYS = tuple(m.value for m in MODE_ORDER)


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
    segments: tuple[SegmentMetrics, ...] = field(default=())
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

    One segmentation pass serves all modes, and no screen states are built:
    a mode's delay is AL plus the mean over words of (first shown - emitted).
    Raises LatencyOverflowError if AL or a delay is not a finite float.
    """
    lines = extract_lines(log.events)
    units = {mode: spec.units(log, lines, max_row_chars) for mode, spec in MODES.items()}
    al = average_lagging(log)
    if not math.isfinite(al):  # in a corpus g <= duration, so the duration is to blame
        raise LatencyOverflowError(
            f"segment {log.segment_id}: AL is not a finite number of ms", None, "duration"
        )
    delay_k = log.delay_k
    delays = {}
    samples = {}
    for mode, spec in MODES.items():
        shown = SHOWN_AT[mode]
        lags = [shown(u, w) - w.emit_time for u in units[mode] for w in u.words]
        delays[mode] = al + 1000.0 * fmean_no_overflow(lags)
        if not math.isfinite(delays[mode]):
            raise LatencyOverflowError(
                f"segment {log.segment_id}: {mode.value} delay is not a finite number of ms",
                None, "events",
            )
        samples[mode] = spec.rs(units[mode], delay_k, log.segment_id)
    blocks = units[DisplayMode.BLOCKS]
    return SegmentMetrics(
        segment_id=log.segment_id,
        average_lagging=al,
        delay_by_mode=delays,
        rs_samples=samples,
        n_blocks=len(blocks),
        n_conforming_blocks=sum(1 for b in blocks if block_conforms(b, min_cpl, max_cpl)),
    )


def screen_schedule(
    log: EmissionLog, mode: DisplayMode, max_row_chars: int = MAX_ROW_CHARS
) -> DisplaySchedule:
    """One segment's screen states in one mode, the last closed at segment
    end plus the wait-k delay (the unknown next emission)."""
    spec = MODES[mode]
    units = spec.units(log, extract_lines(log.events), max_row_chars)
    return close_schedule(spec.schedule(units), log.end_time + log.delay_k)


def evaluate_corpus(
    logs: Iterable[EmissionLog],
    rs_threshold: float = RS_THRESHOLD_CPS,
    min_cpl: int = MIN_CPL,
    max_cpl: int = MAX_CPL,
    max_row_chars: int = MAX_ROW_CHARS,
    keep_segments: bool = False,
) -> CorpusReport:
    """Aggregate metrics over a corpus of emission logs."""
    tally = CorpusTally()
    segments = []
    for log in logs:
        metrics = evaluate_log(log, min_cpl, max_cpl, max_row_chars)
        tally.add(metrics)
        if keep_segments:
            segments.append(metrics)
    return replace(tally.report(rs_threshold, min_cpl, max_cpl), segments=tuple(segments))


class CorpusTally:
    """The values corpus statistics are computed from, in corpus order: each
    mode's pooled reading speeds (cps), each segment's AL and per-mode
    delays, the block counts and the segment ids.

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

    def add(self, metrics: SegmentMetrics) -> None:
        """Append one segment."""
        self.al.append(metrics.average_lagging)
        for mode in MODE_ORDER:
            self.cps[mode].extend([s.cps for s in metrics.rs_samples[mode]])
            self.delays[mode].append(metrics.delay_by_mode[mode])
        self.n_blocks += metrics.n_blocks
        self.n_conforming_blocks += metrics.n_conforming_blocks
        self.ids.append(metrics.segment_id)

    def merge(self, other: CorpusTally) -> None:
        """Append the segments of other, which follow these in the corpus."""
        self.al.extend(other.al)
        for mode in MODE_ORDER:
            self.cps[mode].extend(other.cps[mode])
            self.delays[mode].extend(other.delays[mode])
        self.n_blocks += other.n_blocks
        self.n_conforming_blocks += other.n_conforming_blocks
        self.ids.extend(other.ids)

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
