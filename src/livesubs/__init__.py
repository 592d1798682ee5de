"""Live-subtitle display simulation and readability/latency metrics.

Pipeline: break-annotated token streams (or synthetic wait-k emission logs)
-> display schedules for word-for-word, block and scrolling-line modes
-> reading speed, length conformity, Average Lagging and display delay.
"""

from .core import (
    EmissionLog,
    EmptySurfaceError,
    NonMonotonicTimeError,
    StreamError,
    SubtitleBlock,
    SubtitleLine,
    Terminator,
    TokenEvent,
    TokenKind,
    blocks_from_lines,
    delay_k_seconds,
    extract_blocks,
    extract_lines,
    parse_token_stream,
)
from .display import (
    DisplayMode,
    DisplaySchedule,
    ScreenState,
    WordBlock,
    close_schedule,
    group_word_blocks,
    schedule_block_mode,
    schedule_line_mode,
    schedule_word_mode,
)
from .formats import (
    NonPositiveDurationError,
    SchemaError,
    export_srt,
    read_annotated_refs,
    read_log_corpus,
    write_annotated_refs,
    write_log_corpus,
)
from .latency import (
    EmptyLogError,
    LatencyOverflowError,
    MismatchedSegmentError,
    average_lagging,
    display_delay,
)
from .reading_speed import (
    ReadingSpeedSample,
    ReadingSpeedStats,
    length_conformity,
    rs_blocks,
    rs_lines,
    rs_stats,
    rs_word_block,
    rs_word_blocks,
)
from .report import (
    CorpusReport,
    CorpusTally,
    SegmentMetrics,
    evaluate_corpus,
    evaluate_log,
    render_table,
    report_to_dict,
    write_report,
)
from .waitk import AnnotatedReference, WaitKConfig, simulate_waitk

__version__ = "0.1.0"
