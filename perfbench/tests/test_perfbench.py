"""Tests of the benchmark itself: span arithmetic, corpus generators, wrappers
and the report digest.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import tracing  # noqa: E402
from checks import REPORT_KEYS, project, report_digest  # noqa: E402
from workloads import bursts_refs, shape_of  # noqa: E402


def add_span(tracer, name, start, end, parent):
    tracer.name.append(tracer.name_id(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.request.append(-1)
    return len(tracer.name) - 1


def test_self_time_subtracts_direct_children_only():
    t = tracing.Tracer()
    root = add_span(t, "cli.evaluate", 0.0, 10.0, -1)
    a = add_span(t, "report.evaluate_corpus", 1.0, 7.0, root)
    add_span(t, "core.extract_blocks", 2.0, 3.0, a)
    add_span(t, "core.extract_blocks", 3.5, 5.0, a)
    add_span(t, "report.write_report", 8.0, 9.5, root)
    t.commands.append(("evaluate", 0, len(t.name)))
    assert t.self_times() == pytest.approx([2.5, 3.5, 1.0, 1.5, 1.5])

    metrics = tracing.summarize(t)
    assert metrics["evaluate.core.extract_blocks.self_s"] == pytest.approx(2.5)
    assert metrics["evaluate.core.extract_blocks.calls"] == 2
    assert metrics["evaluate.report.evaluate_corpus.self_s"] == pytest.approx(3.5)
    assert "evaluate.report.evaluate_corpus.calls" not in metrics  # only core, display
    assert metrics["trace.spans"] == 5


def test_failures_are_counted_per_command_and_function():
    t = tracing.Tracer()

    def boom(x):
        raise ValueError(x)

    traced = t.wrap("core.boom", boom)
    with t.command("export_srt"):
        with pytest.raises(ValueError):
            traced(1)
    metrics = tracing.summarize(t)
    assert metrics["export_srt.core.boom.failures"] == 1
    assert metrics["trace.failures"] == 1
    assert metrics["export_srt.core.boom.calls"] == 1


def test_per_segment_latency_percentiles():
    t = tracing.Tracer()
    root = add_span(t, "cli.evaluate", 0.0, 100.0, -1)
    for i in range(1, 31):  # durations 1..30 us
        add_span(t, "report.evaluate_log", float(i), i + i * 1e-6, root)
    t.commands.append(("evaluate", 0, len(t.name)))
    metrics = tracing.summarize(t)
    assert metrics["evaluate.report.evaluate_log.samples"] == 30
    assert metrics["evaluate.report.evaluate_log.p50_us"] == pytest.approx(15.5)
    assert metrics["evaluate.report.evaluate_log.phigh_us"] == pytest.approx(20.0)


def test_generator_is_deterministic_per_seed():
    a, b, c = bursts_refs(3, n=40), bursts_refs(3, n=40), bursts_refs(4, n=40)
    assert a == b
    assert a != c


def test_generator_shape():
    bursts = shape_of(bursts_refs(11, n=2_000))
    assert bursts.median_tokens <= 8
    assert bursts.flushed_tokens / bursts.tokens > 0.85


def _public_functions():
    for modname in tracing.TRACED_MODULES:
        module = importlib.import_module(f"livesubs.{modname}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield fn


def test_install_wraps_every_public_function_in_every_namespace():
    import livesubs.cli  # noqa: F401  (loads every module)

    originals = list(_public_functions())
    assert len(originals) > 25
    bindings = [
        (module, attr, value)
        for name, module in list(sys.modules.items())
        if name == "livesubs" or name.startswith("livesubs.")
        for attr, value in vars(module).items()
        if any(value is fn for fn in originals)
    ]
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        for module, attr, fn in bindings:
            wrapper = getattr(module, attr)
            assert wrapper is not fn, f"{module.__name__}.{attr} not wrapped"
            assert wrapper.__wrapped__ is fn
        assert {fn for _, _, fn in patched} == set(originals)
    finally:
        tracing.uninstall(patched)
    for module, attr, fn in bindings:
        assert getattr(module, attr) is fn


def test_traced_commands_behave_like_untraced(tmp_path):
    from livesubs.cli import main

    refs = bursts_refs(5, n=25)
    tsv = tmp_path / "refs.tsv"
    tsv.write_text(
        "".join(f"{r.segment_id}\t{r.duration}\t{' '.join(r.tokens)}\n" for r in refs),
        encoding="utf-8",
    )
    logs = tmp_path / "e.jsonl"
    assert main(["simulate", str(tsv), "--out", str(logs)]) == 0

    def evaluate(out):
        assert main(["evaluate", str(logs), "--per-segment", "--out", str(out)]) == 0
        return out.read_bytes()

    plain = evaluate(tmp_path / "plain.json")
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        with tracer.command("evaluate"):
            traced = evaluate(tmp_path / "traced.json")
    finally:
        tracing.uninstall(patched)
    assert traced == plain

    names = [tracer.names[n] for n in tracer.name]
    assert names.count("formats.read_log_corpus") == 25  # one span per item
    assert names.count("report.evaluate_log") == 25
    metrics = tracing.summarize(tracer)
    assert metrics["evaluate.report.evaluate_log.samples"] == 25
    assert metrics["reading_speed.samples"] > 0
    assert metrics["trace.failures"] == 0
    # every span under evaluate_log carries that log's segment id
    for i, n in enumerate(tracer.name):
        if tracer.names[n] == "display.schedule_block_mode":
            assert tracer.requests[tracer.request[i]].startswith("burst")


def test_report_digest_ignores_new_keys_but_not_changed_values(tmp_path):
    mode = {"delay_ms": 1.0, "rs_mean": 2.0, "rs_std": 0.5, "pct_conforming": 90.0, "n_samples": 3}
    doc = {
        "segments": 1, "al_ms": 1.0, "rs_threshold_cps": 21.0, "cpl_bounds": [6, 42],
        "length_conformity_pct": 100.0,
        "modes": {"word": dict(mode), "block": dict(mode), "line": dict(mode)},
        "per_segment": [{"id": "a", "al_ms": 1.0,
                         "delay_ms": {"word": 1.0, "block": 2.0, "line": 3.0}}],
    }
    path = tmp_path / "r.json"

    def digest(d):
        path.write_text(json.dumps(d), encoding="utf-8")
        return report_digest(path)

    base = digest(doc)
    doc["provenance"] = {"version": "x"}
    doc["modes"]["word"]["n_inf"] = 0
    assert digest(doc) == base
    doc["per_segment"][0]["al_ms"] = 1.5
    assert digest(doc) != base
    del doc["al_ms"]
    with pytest.raises(KeyError):
        project(doc, REPORT_KEYS)
