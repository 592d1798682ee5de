"""The package's names: each resolves, on every access, to its module's
attribute; the submodules load only when used."""

import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import typing

import pytest

import livesubs

# The names the package gives, by the module that defined each when the
# package still imported every submodule up front.
SURFACE = {
    "core": [
        "EmissionLog", "EmptySurfaceError", "NonMonotonicTimeError", "StreamError",
        "SubtitleBlock", "SubtitleLine", "Terminator", "TokenEvent", "TokenKind",
        "blocks_from_lines", "delay_k_seconds", "extract_blocks", "extract_lines",
        "parse_token_stream",
    ],
    "display": [
        "DisplayMode", "DisplaySchedule", "ScreenState", "WordBlock", "close_schedule",
        "group_word_blocks", "schedule_block_mode", "schedule_line_mode", "schedule_word_mode",
    ],
    "formats": [
        "NonPositiveDurationError", "SchemaError", "export_srt", "read_annotated_refs",
        "read_log_corpus", "write_annotated_refs", "write_log_corpus",
    ],
    "latency": [
        "EmptyLogError", "LatencyOverflowError", "MismatchedSegmentError", "average_lagging",
        "display_delay",
    ],
    "reading_speed": [
        "ReadingSpeedSample", "ReadingSpeedStats", "length_conformity", "rs_blocks", "rs_lines",
        "rs_stats", "rs_word_block", "rs_word_blocks",
    ],
    "report": [
        "CorpusReport", "CorpusTally", "SegmentMetrics", "evaluate_corpus", "evaluate_log",
        "render_table", "report_to_dict", "write_report",
    ],
    "waitk": ["AnnotatedReference", "WaitKConfig", "simulate_waitk"],
}
NAMES = [(module, name) for module, names in SURFACE.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_every_name_is_its_modules_attribute(module, name):
    namespace: dict = {}
    exec(f"from livesubs import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"livesubs.{module}"), name)
    assert name in dir(livesubs)
    assert name in livesubs.__all__
    assert module in dir(livesubs)


def test_all_lists_the_surface_and_nothing_more():
    assert sorted(livesubs.__all__) == sorted(name for _, name in NAMES)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        livesubs.no_such_name
    with pytest.raises(ImportError):
        exec("from livesubs import no_such_name", {})


def test_a_name_rebound_in_its_module_is_what_the_package_gives(monkeypatch):
    from livesubs import report

    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(report, "evaluate_log", stand_in)
    assert livesubs.evaluate_log is stand_in
    monkeypatch.undo()
    assert livesubs.evaluate_log is report.evaluate_log is not stand_in


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_display_modes_survive_pickling(protocol):
    from livesubs.display import DisplayMode

    for mode in DisplayMode:
        assert pickle.loads(pickle.dumps(mode, protocol)) is mode


def test_one_home_per_default():
    from livesubs import defaults, display, reading_speed

    assert display.DisplayMode is defaults.DisplayMode
    assert display.MAX_ROW_CHARS is defaults.MAX_ROW_CHARS
    for name in ("RS_THRESHOLD_CPS", "MIN_CPL", "MAX_CPL"):
        assert getattr(reading_speed, name) is getattr(defaults, name)
        assert name in reading_speed.__all__
    assert {"DisplayMode", "MAX_ROW_CHARS"} <= set(display.__all__)


LAZY = """
import sys
import livesubs

print(sorted(m for m in sys.modules if m.startswith("livesubs.")))
print(livesubs.report.MODES is sys.modules["livesubs.report"].MODES)
print(sorted(m for m in sys.modules if m.startswith("livesubs.")))
"""


def test_submodules_load_on_first_use():
    src = os.path.dirname(os.path.dirname(livesubs.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAZY],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    before, found, after = proc.stdout.splitlines()
    assert before == "[]"
    assert found == "True"
    assert "'livesubs.report'" in after
    assert "'livesubs.cli'" not in after


def test_the_corpus_generator_runs_without_pytest():
    """tests/corpora.py imports only the standard library and livesubs, so
    a Python without the test tools can build the benchmark's corpora."""
    src = os.path.dirname(os.path.dirname(livesubs.__file__))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    code = (
        "import sys; from corpora import make_refs; refs = make_refs(50, seed=11); "
        "print(len(refs), 'pytest' in sys.modules, 'hypothesis' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.split() == ["50", "False", "False"]


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(livesubs.__path__)))
def test_every_public_hint_resolves(module):
    # the hints of each function and class a module lists in __all__
    mod = importlib.import_module(f"livesubs.{module}")
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            typing.get_type_hints(obj)
