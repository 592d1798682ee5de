import io
import json
import math
import os
import threading
import time

import pytest

from livesubs import (
    AnnotatedReference,
    EmissionLog,
    TokenEvent,
    WaitKConfig,
    read_log_corpus,
    simulate_waitk,
    write_annotated_refs,
    write_log_corpus,
)
from livesubs import core
from livesubs.cli import main

from conftest import make_refs
from oracles import parse_srt


@pytest.fixture()
def refs_file(tmp_path):
    path = tmp_path / "refs.tsv"
    with open(path, "w", encoding="utf-8") as f:
        write_annotated_refs(make_refs(30, seed=12), f)
    return path


@pytest.fixture()
def logs_file(tmp_path, refs_file):
    out = tmp_path / "emissions.jsonl"
    assert main(["simulate", str(refs_file), "--k", "3", "--out", str(out)]) == 0
    return out


def test_simulate_writes_one_log_per_ref(logs_file):
    with open(logs_file, encoding="utf-8") as f:
        logs = list(read_log_corpus(f))
    assert len(logs) == 30


def test_simulate_deterministic(tmp_path, refs_file):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    main(["simulate", str(refs_file), "--out", str(a)])
    main(["simulate", str(refs_file), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_k_monotone(tmp_path, refs_file):
    a = tmp_path / "k3.jsonl"
    b = tmp_path / "k5.jsonl"
    main(["simulate", str(refs_file), "--k", "3", "--out", str(a)])
    main(["simulate", str(refs_file), "--k", "5", "--out", str(b)])
    with open(a, encoding="utf-8") as f:
        logs3 = list(read_log_corpus(f))
    with open(b, encoding="utf-8") as f:
        logs5 = list(read_log_corpus(f))
    for l3, l5 in zip(logs3, logs5):
        for e3, e5 in zip(l3.events, l5.events):
            assert e5.emit_time >= e3.emit_time



# Non-ASCII ids and words; s2 is flushed from its second token on.
_NON_ASCII_REFS = [
    AnnotatedReference(
        "séance-1", ("Bonjour", "à", "tous", "<eol>", "«", "été", "»", "<eob>", "<eos>"), 3.0
    ),
    AnnotatedReference("字幕2", ("東京", "で", "会い", "ましょう", "<eob>", "<eos>"), 0.9),
    AnnotatedReference("s3", ("naïve", "<eos>"), 0.3),
]
_POLICIES = {
    "default": ([], WaitKConfig(k=3)),
    "k5-latency-no-flush": (
        ["--k", "5", "--latency-ms", "13", "--no-flush"],
        WaitKConfig(k=5, compute_latency=0.013, flush_at_end=False),
    ),
}


def _simulated(tmp_path, argv) -> bytes:
    refs = tmp_path / "refs.tsv"
    with open(refs, "w", encoding="utf-8") as f:
        write_annotated_refs(_NON_ASCII_REFS, f)
    out = tmp_path / "e.jsonl"
    assert main(["simulate", str(refs), "--out", str(out), *argv]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("policy", list(_POLICIES))
def test_simulate_writes_what_the_library_writes(tmp_path, policy):
    argv, cfg = _POLICIES[policy]
    expected = io.StringIO()
    write_log_corpus([simulate_waitk(ref, cfg) for ref in _NON_ASCII_REFS], expected)
    assert _simulated(tmp_path, argv) == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("policy", list(_POLICIES))
def test_simulate_builds_no_token_objects(tmp_path, monkeypatch, policy):
    argv = _POLICIES[policy][0]
    expected = _simulated(tmp_path, argv)

    def built(*args, **kwargs):
        raise AssertionError("simulate built a token object")

    monkeypatch.setattr(core, "parse_token_stream", built)
    monkeypatch.setattr(TokenEvent, "__post_init__", built)
    monkeypatch.setattr(EmissionLog, "__post_init__", built)
    assert _simulated(tmp_path, argv) == expected

def test_evaluate_table_and_report(tmp_path, logs_file, capsys):
    report_path = tmp_path / "report.json"
    assert main(["evaluate", str(logs_file), "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "word" in out and "block" in out and "line" in out
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["segments"] == 30
    assert doc["modes"]["word"]["delay_ms"] == pytest.approx(doc["al_ms"])


@pytest.mark.parametrize("mode", ["word", "block", "line"])
def test_evaluate_mode_filters_the_table_not_the_report(tmp_path, logs_file, mode):
    # --mode picks the rows of the printed table; the JSON report covers every mode
    for flags in ([], ["--per-segment"]):
        full, one = tmp_path / "all.json", tmp_path / f"{mode}.json"
        assert main(["evaluate", str(logs_file), *flags, "--out", str(full)]) == 0
        assert main(["evaluate", str(logs_file), *flags, "--mode", mode, "--out", str(one)]) == 0
        assert one.read_bytes() == full.read_bytes()


def test_evaluate_alternate_threshold(tmp_path, logs_file):
    out15 = tmp_path / "r15.json"
    out21 = tmp_path / "r21.json"
    main(["evaluate", str(logs_file), "--rs-threshold", "15", "--out", str(out15)])
    main(["evaluate", str(logs_file), "--rs-threshold", "21", "--out", str(out21)])
    d15 = json.loads(out15.read_text(encoding="utf-8"))
    d21 = json.loads(out21.read_text(encoding="utf-8"))
    assert d15["rs_threshold_cps"] == 15.0
    for mode in ("word", "block", "line"):
        assert d15["modes"][mode]["pct_conforming"] <= d21["modes"][mode]["pct_conforming"]


def test_evaluate_empty_corpus_fails(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["evaluate", str(empty)]) == 3


def test_evaluate_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "s1", "k": 3}\n', encoding="utf-8")
    assert main(["evaluate", str(bad)]) == 3
    assert "duration" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert main(["evaluate", str(tmp_path / "nope.jsonl")]) == 4


def test_replay_dump(logs_file, capsys):
    assert main(
        ["replay", str(logs_file), "--segment", "seg00000", "--mode", "line", "--speed", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "seg00000" in out
    assert "AL:" in out
    # scrolling lines: never more than 2 visible rows per frame
    frame_rows = 0
    for line in out.splitlines():
        if line.startswith("["):
            frame_rows = 0
        elif line.startswith("  | "):
            frame_rows += 1
            assert frame_rows <= 2


def test_replay_unknown_segment(logs_file):
    assert main(["replay", str(logs_file), "--segment", "nope", "--speed", "0"]) == 3


@pytest.mark.parametrize("speed", ["1e-300", "5e-324"])
def test_replay_speed_too_slow_to_sleep_exits_2(logs_file, capsys, speed):
    argv = ["replay", str(logs_file), "--segment", "seg00000", "--speed", speed]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: --speed ")


def test_replay_sleeps_each_gap_over_speed(logs_file, capsys, monkeypatch):
    argv = ["replay", str(logs_file), "--segment", "seg00000"]
    assert main([*argv, "--speed", "0"]) == 0
    expected = capsys.readouterr().out
    waits = []
    monkeypatch.setattr(time, "sleep", waits.append)
    # a replay of about 30 years: slow, but time.sleep can still wait it out
    assert main([*argv, "--speed", "1e-8"]) == 0
    assert capsys.readouterr().out == expected
    onsets = [float(line[1:-2]) for line in expected.splitlines() if line.startswith("[")]
    assert len(waits) == len(onsets) - 1
    assert sum(waits) == pytest.approx((onsets[-1] - onsets[0]) / 1e-8, rel=1e-3)


def test_replay_checks_the_wait_against_the_monotonic_clock(logs_file, capsys, monkeypatch):
    """time.sleep fails on a wait that would end TIMEOUT_MAX s or more after
    the monotonic clock's zero, so the bound shrinks as the clock runs."""
    monkeypatch.setattr(time, "sleep", lambda wait: None)
    monkeypatch.setattr(time, "monotonic", lambda: threading.TIMEOUT_MAX - 1.0)
    argv = ["replay", str(logs_file), "--segment", "seg00000", "--speed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --speed 1 ")


def test_export_srt(tmp_path, logs_file):
    out_dir = tmp_path / "srt"
    assert main(["export-srt", str(logs_file), "--out", str(out_dir)]) == 0
    files = sorted(out_dir.glob("*.srt"))
    assert len(files) == 30
    cues = parse_srt(files[0].read_text(encoding="utf-8"))
    assert cues
    for (s1, e1, _), (s2, _, _) in zip(cues, cues[1:]):
        assert e1 <= s2


def test_out_dir_env_var(tmp_path, refs_file, monkeypatch):
    monkeypatch.setenv("LIVESUBS_OUT", str(tmp_path / "envout"))
    assert main(["simulate", str(refs_file)]) == 0
    assert (tmp_path / "envout" / "emissions.jsonl").exists()


def test_replay_stops_at_first_match(tmp_path, logs_file):
    first = logs_file.read_text(encoding="utf-8").splitlines()[0]
    corpus = tmp_path / "broken_tail.jsonl"
    corpus.write_text(first + "\n{not json\n", encoding="utf-8")
    # the invalid later line is never read when the first record matches
    assert main(["replay", str(corpus), "--segment", "seg00000", "--speed", "0"]) == 0
    # a segment past it is still a data error
    assert main(["replay", str(corpus), "--segment", "seg00001", "--speed", "0"]) == 3


def _no_token_objects(monkeypatch):
    """Make building a token event, through any path, fail the test."""

    def built(*args, **kwargs):
        raise AssertionError("built a token object")

    monkeypatch.setattr(core, "_events", built)
    monkeypatch.setattr(core, "parse_token_stream", built)
    monkeypatch.setattr(TokenEvent, "__post_init__", built)
    monkeypatch.setattr(EmissionLog, "__post_init__", built)


def test_export_srt_builds_no_token_objects(tmp_path, logs_file, monkeypatch):
    assert main(["export-srt", str(logs_file), "--out", str(tmp_path / "objects")]) == 0
    _no_token_objects(monkeypatch)
    assert main(["export-srt", str(logs_file), "--out", str(tmp_path / "columns")]) == 0
    expected = sorted((p.name, p.read_bytes()) for p in (tmp_path / "objects").iterdir())
    assert sorted((p.name, p.read_bytes()) for p in (tmp_path / "columns").iterdir()) == expected


def test_replay_builds_one_log(logs_file, monkeypatch, capsys):
    argv = ["replay", str(logs_file), "--segment", "seg00017", "--speed", "0"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    events = core._events
    built = []

    def spy(pairs):
        built.append(1)
        return events(pairs)

    monkeypatch.setattr(core, "_events", spy)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert len(built) == 1


def test_replay_rejects_a_bad_record_before_the_segment(tmp_path, logs_file, capsys):
    lines = logs_file.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    record["events"][1]["t"] = -1.0
    lines[2] = json.dumps(record) + "\n"
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert main(["replay", str(corpus), "--segment", "seg00004", "--speed", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 3, field 'events': ")


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "x.jsonl", "--jobs", "0"],
        ["export-srt", "x.jsonl", "--jobs", "-1"],
        ["simulate", "x.tsv", "--k", "0"],
        ["simulate", "x.tsv", "--step-ms", "0"],
        ["simulate", "x.tsv", "--step-ms", "-280"],
        ["simulate", "x.tsv", "--step-ms", "nan"],
        ["simulate", "x.tsv", "--step-ms", "inf"],
        ["simulate", "x.tsv", "--latency-ms", "-1"],
        ["evaluate", "x.jsonl", "--cpl-min", "50", "--cpl-max", "10"],
        ["replay", "x.jsonl", "--segment", "s", "--cpl-min", "50", "--cpl-max", "10"],
        ["evaluate", "x.jsonl", "--max-row-chars", "0"],
        ["evaluate", "x.jsonl", "--rs-threshold", "nan"],
        ["evaluate", "x.jsonl", "--rs-threshold", "inf"],
        ["evaluate", "x.jsonl", "--rs-threshold", "0"],
        ["replay", "x.jsonl", "--segment", "s", "--rs-threshold", "-21"],
        ["evaluate", "x.jsonl", "--cpl-min", "-5", "--cpl-max", "-1"],
        ["evaluate", "x.jsonl", "--cpl-min", "0", "--cpl-max", "0"],
        ["replay", "x.jsonl", "--segment", "s", "--speed", "-1"],
        ["replay", "x.jsonl", "--segment", "s", "--speed", "nan"],
        ["simulate", "x.tsv", "--k", str(10**400)],
        ["simulate", "x.tsv", "--k", str(10**308), "--step-ms", "10000"],
    ],
)
def test_invalid_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "export-srt"])
def test_corpus_commands_have_no_jobs_option(command, capsys):
    # the worker count comes from the CPUs the process may use (test_jobs.py)
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert "--jobs" not in capsys.readouterr().out


def _with_id(logs_file, tmp_path, lineno, seg_id):
    lines = logs_file.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[lineno - 1])
    record["id"] = seg_id
    lines[lineno - 1] = json.dumps(record) + "\n"
    corpus = tmp_path / "ids.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    return corpus


@pytest.mark.parametrize(
    "seg_id",
    ["../escaped", "a/b", "nul\0byte", *{os.sep, os.altsep} - {None, "/"}],
)
def test_export_rejects_ids_that_are_not_file_names(tmp_path, logs_file, capsys, seg_id):
    corpus = _with_id(logs_file, tmp_path, 4, seg_id)
    out_dir = tmp_path / "srt"
    assert main(["export-srt", str(corpus), "--out", str(out_dir)]) == 3
    assert "line 4, field 'id'" in capsys.readouterr().err
    assert not (tmp_path / "escaped.srt").exists()
    assert sorted(p.name for p in tmp_path.rglob("*.srt")) == [
        f"seg{i:05d}.srt" for i in range(3)
    ]


def test_export_names_the_line_of_an_id_too_long_for_a_file_name(tmp_path, logs_file, capsys):
    seg_id = "a" * 300
    corpus = _with_id(logs_file, tmp_path, 2, seg_id)
    out_dir = tmp_path / "srt"
    assert main(["export-srt", str(corpus), "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: line 2, field 'id': segment id {seg_id!r} cannot name a file in {out_dir}\n"
    assert [p.name for p in out_dir.iterdir()] == ["seg00000.srt"]


def test_export_rejects_duplicate_ids(tmp_path, logs_file, capsys):
    corpus = _with_id(logs_file, tmp_path, 7, "seg00001")
    assert main(["export-srt", str(corpus), "--out", str(tmp_path / "srt")]) == 3
    err = capsys.readouterr().err
    assert "line 7, field 'id'" in err
    assert "line 2" in err


@pytest.mark.parametrize("command", ["evaluate", "export-srt"])
def test_non_finite_number_exits_3(tmp_path, logs_file, capsys, command):
    lines = logs_file.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    record["duration"] = float("nan")
    lines[2] = json.dumps(record) + "\n"
    corpus = tmp_path / "nan.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert main([command, str(corpus), "--out", str(tmp_path / "out")]) == 3
    assert "line 3: non-finite number NaN" in capsys.readouterr().err


def test_simulate_rejects_non_finite_duration(tmp_path, capsys):
    refs = tmp_path / "refs.tsv"
    refs.write_text("s0\t2.0\ta b <eob>\ns1\tnan\ta b <eob>\n", encoding="utf-8")
    assert main(["simulate", str(refs), "--out", str(tmp_path / "e.jsonl")]) == 3
    assert "line 2, field 'duration'" in capsys.readouterr().err


def _set(path, value):
    """An edit of a record: set the item at path to value, or to value(record)."""

    def edit(record):
        *parents, last = path
        target = record
        for key in parents:
            target = target[key]
        target[last] = value(record) if callable(value) else value
        return record

    return edit


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set(("events", 0, "t"), "1"), "events"),
        (_set(("events", 1, "t"), True), "events"),
        (_set(("events", 0, "w"), 5), "events"),
        (_set(("events", 2, "t"), 0.0), "events"),
        (_set(("g", 0), "x"), "g"),
        (_set(("g", 0), -0.5), "g"),
        (_set(("g", 1), 0.1), "g"),
        (_set(("g", -1), lambda r: r["duration"] + 5.0), "g"),
        (_set(("k",), 10**400), "k"),
        (_set(("step",), 1e308), "k"),
        (_set(("duration",), 10**400), "duration"),
        (_set(("events", -1, "t"), 10**400), "events"),
        (_set(("events", 0, "t"), -1), "events"),
        (_set(("events", 0, "w"), ""), "events"),
        (_set(("events", 0, "w"), "a b"), "events"),
        (_set(("events", 0, "w"), "<eos>"), "events"),
        (_set(("k",), 0), "k"),
        (_set(("step",), 0), "step"),
        (_set(("step",), math.inf), "step"),
        (_set(("duration",), math.inf), "duration"),
        (_set(("duration",), "2"), "duration"),
        (_set(("step",), None), "step"),
    ],
    ids=["t-string", "t-bool", "w-number", "t-decreasing", "g-string", "g-negative",
         "g-decreasing", "g-past-duration", "k-huge", "step-times-k-infinite",
         "duration-int-too-large", "t-int-too-large", "t-negative", "w-empty", "w-space",
         "eos-before-word", "k-zero", "step-zero", "step-1e400", "duration-1e400",
         "duration-string", "step-null"],
)
@pytest.mark.parametrize("command", ["evaluate", "export-srt"])
def test_mistyped_or_inconsistent_fields_exit_3(tmp_path, logs_file, capsys, command, edit, field):
    lines = logs_file.read_text(encoding="utf-8").splitlines(keepends=True)
    # json.dumps spells an infinite float Infinity, a constant the reader
    # rejects; 1e400 is a number that it reads as infinity.
    lines[4] = json.dumps(edit(json.loads(lines[4]))).replace("Infinity", "1e400") + "\n"
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert main([command, str(corpus), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"error: line 5, field {field!r}: ")


def test_replay_huge_k_exits_3(tmp_path, logs_file, capsys):
    lines = logs_file.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[4] = json.dumps(_set(("k",), 10**400)(json.loads(lines[4]))) + "\n"
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert main(["replay", str(corpus), "--segment", "seg00004", "--speed", "0"]) == 3
    assert capsys.readouterr().err.startswith("error: line 5, field 'k': ")


_ARGV = {
    "evaluate": ["--per-segment", "--out", "{out}/report.json"],
    "export-srt": ["--out", "{out}"],
    "replay": ["--segment", "seg00009", "--speed", "0"],
}


@pytest.mark.parametrize(
    "old, new, field",
    [
        (b'"seg00004"', b'"seg\xff00004"', "id"),
        (b'"w": "', b'"w": "\xff', "events"),
        (b', "k"', b',\xff "k"', None),
        (b', "k"', b', "note": "\xff", "k"', None),
        (b'"seg00004"', b'"seg00004\\ud800"', "id"),
        (b'"w": "', b'"w": "\\udc00', "events"),
    ],
    ids=["byte-in-id", "byte-in-w", "byte-between-fields", "byte-in-other-field",
         "escaped-surrogate-id",
         "escaped-surrogate-w"],
)
@pytest.mark.parametrize("command", list(_ARGV))
def test_text_that_is_not_utf8_exits_3(tmp_path, logs_file, capsys, command, old, new, field):
    lines = logs_file.read_bytes().splitlines(keepends=True)
    assert old in lines[4]
    lines[4] = lines[4].replace(old, new, 1)
    corpus = tmp_path / "bad.jsonl"
    corpus.write_bytes(b"".join(lines))
    argv = [arg.format(out=tmp_path / "out") for arg in _ARGV[command]]
    assert main([command, str(corpus), *argv]) == 3
    where = "line 5" if field is None else f"line 5, field {field!r}"
    assert capsys.readouterr().err.startswith(f"error: {where}: ")


@pytest.mark.parametrize(
    "line, field",
    [
        (b"s\xff1\t2.0\ta b <eob>\n", "id"),
        (b"s1\t2.0\ta \xffb <eob>\n", "tokens"),
        (b"s1\t2.\xff0\ta b <eob>\n", "duration"),
    ],
    ids=["byte-in-id", "byte-in-tokens", "byte-in-duration"],
)
def test_simulate_rejects_bytes_that_are_not_utf8(tmp_path, capsys, line, field):
    refs = tmp_path / "refs.tsv"
    refs.write_bytes(b"s0\t2.0\ta b <eob>\n" + line)
    assert main(["simulate", str(refs), "--out", str(tmp_path / "e.jsonl")]) == 3
    assert capsys.readouterr().err.startswith(f"error: line 2, field {field!r}: ")


_LONG_REF = " ".join(["w"] * 2000) + " <eos>"


@pytest.mark.parametrize(
    "tokens, argv, message",
    [
        ("hello <eos> world <eob> <eos>", [], "segment s1: <eos> is not the last event"),
        (_LONG_REF, ["--latency-ms", "1e308"], "emission time must be finite and >= 0, got inf"),
        (
            _LONG_REF,
            ["--no-flush", "--k", "1", "--step-ms", "1e308"],
            "emission time must be finite and >= 0, got inf",
        ),
    ],
    ids=["eos-before-words", "huge-latency", "huge-step-no-flush"],
)
def test_simulate_names_the_line_of_a_reference_the_simulator_rejects(
    tmp_path, capsys, tokens, argv, message
):
    refs = tmp_path / "refs.tsv"
    refs.write_text(f"s0\t2.0\ta b <eob>\n\ns1\t2.0\t{tokens}\n", encoding="utf-8")
    out = tmp_path / "e.jsonl"
    assert main(["simulate", str(refs), "--out", str(out), *argv]) == 3
    assert capsys.readouterr().err == f"error: line 3, field 'tokens': {message}\n"
    assert not out.exists()


def test_simulate_rejects_duplicate_ids(tmp_path, capsys):
    refs = tmp_path / "refs.tsv"
    refs.write_text("s0\t2.0\ta b <eob>\ns0\t1.0\tc <eob>\n", encoding="utf-8")
    out = tmp_path / "e.jsonl"
    assert main(["simulate", str(refs), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: line 2, field 'id': duplicate segment id 's0' (first on line 1)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "second",
    ["s1\t2.0\thello <eos> world <eos>", "s0\t1.0\tc <eob>"],
    ids=["eos-first", "same-id"],
)
def test_simulate_rejection_leaves_the_output_file_as_it_was(tmp_path, capsys, second):
    refs = tmp_path / "refs.tsv"
    refs.write_text(f"s0\t2.0\ta b <eob>\n{second}\n", encoding="utf-8")
    out = tmp_path / "e.jsonl"
    out.write_bytes(b'{"earlier": "corpus"}\n')
    assert main(["simulate", str(refs), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: line 2, field ")
    assert out.read_bytes() == b'{"earlier": "corpus"}\n'
