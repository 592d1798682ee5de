"""Live-subtitle display simulation and readability/latency metrics.

Pipeline: break-annotated token streams (or synthetic wait-k emission logs)
-> display schedules for word-for-word, block and scrolling-line modes
-> reading speed, length conformity, Average Lagging and display delay.

The submodules load on first use: ``import livesubs`` loads none of them,
and ``livesubs.name`` imports the module that defines name. A name is looked
up in its module on every access, never kept here, so a name rebound in its
module (a wrapper, a test double) is what the package gives.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names of each submodule that the package gives.
_EXPORTS = {
    "core": (
        "EmissionLog", "EmptySurfaceError", "NonMonotonicTimeError", "StreamError",
        "SubtitleBlock", "SubtitleLine", "Terminator", "TokenEvent", "TokenKind",
        "blocks_from_lines", "delay_k_seconds", "extract_blocks", "extract_lines",
        "parse_token_stream",
    ),
    "defaults": ("DisplayMode",),
    "display": (
        "DisplaySchedule", "ScreenState", "WordBlock", "close_schedule", "group_word_blocks",
        "schedule_block_mode", "schedule_line_mode", "schedule_word_mode",
    ),
    "formats": (
        "NonPositiveDurationError", "SchemaError", "export_srt", "read_annotated_refs",
        "read_log_corpus", "write_annotated_refs", "write_log_corpus",
    ),
    "latency": (
        "EmptyLogError", "LatencyOverflowError", "MismatchedSegmentError", "average_lagging",
        "display_delay",
    ),
    "reading_speed": (
        "ReadingSpeedSample", "ReadingSpeedStats", "length_conformity", "rs_blocks", "rs_lines",
        "rs_stats", "rs_word_block", "rs_word_blocks",
    ),
    "report": (
        "CorpusReport", "CorpusTally", "SegmentMetrics", "evaluate_corpus", "evaluate_log",
        "render_table", "report_to_dict", "write_report",
    ),
    "waitk": ("AnnotatedReference", "WaitKConfig", "simulate_waitk"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not loaded yet
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
