"""evaluate and export-srt over the ordered chunk pool: output, errors and
warnings do not depend on the worker count or the chunk size. The worker
count is the number of CPUs the process may run on, capped at the number of
runs, so the tests set it through the CPU set the process sees."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import livesubs
from livesubs import cli, evaluate_corpus, read_log_corpus, write_annotated_refs, write_report
from livesubs.cli import main

from conftest import make_refs

N_SEGMENTS = 700  # three chunks of CHUNK_LINES = 256


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("jobs")
    refs = tmp / "refs.tsv"
    with open(refs, "w", encoding="utf-8") as f:
        write_annotated_refs(make_refs(N_SEGMENTS, seed=3), f)
    logs = tmp / "emissions.jsonl"
    assert main(["simulate", str(refs), "--out", str(logs)]) == 0
    return logs


def _edited(corpus, tmp_path, edits):
    """A copy of the corpus with the records on the given lines replaced."""
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    for lineno, edit in edits.items():
        lines[lineno - 1] = edit(json.loads(lines[lineno - 1])) + "\n"
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _main_on_cpus(cpus, argv):
    """main(argv) in a process that may run on cpus CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return main(argv)


def _evaluate(logs, out, cpus, capsys):
    code = _main_on_cpus(cpus, ["evaluate", str(logs), "--per-segment", "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out.replace(str(out), "REPORT"), captured.err


def _export(logs, out, cpus, capsys):
    code = _main_on_cpus(cpus, ["export-srt", str(logs), "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out.replace(str(out), "OUT"), captured.err


def _srt_files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_corpus_spans_three_chunks(corpus):
    n_lines = len(corpus.read_text(encoding="utf-8").splitlines())
    assert n_lines == N_SEGMENTS
    assert -(-n_lines // cli.CHUNK_LINES) == 3


@pytest.mark.parametrize("chunk_lines", [cli.CHUNK_LINES, 16])
def test_evaluate_report_independent_of_jobs(corpus, tmp_path, capsys, monkeypatch, chunk_lines):
    # 16-line chunks keep more runs in flight than the pool holds at once
    monkeypatch.setattr(cli, "CHUNK_LINES", chunk_lines)
    runs = {cpus: _evaluate(corpus, tmp_path / f"r{cpus}.json", cpus, capsys) for cpus in (1, 2)}
    assert runs[1] == runs[2]
    assert runs[1][0] == 0
    one, two = ((tmp_path / f"r{cpus}.json").read_bytes() for cpus in (1, 2))
    assert one == two
    assert len(json.loads(one)["per_segment"]) == N_SEGMENTS


def test_srt_files_independent_of_jobs(corpus, tmp_path, capsys):
    runs = {cpus: _export(corpus, tmp_path / f"srt{cpus}", cpus, capsys) for cpus in (1, 2)}
    assert runs[1] == runs[2] == (0, f"wrote {N_SEGMENTS} SRT files to OUT\n", "")
    one, two = (_srt_files(tmp_path / f"srt{cpus}") for cpus in (1, 2))
    assert len(one) == N_SEGMENTS
    assert one == two


def test_one_cpu_never_starts_a_pool(corpus, tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert _evaluate(corpus, tmp_path / "r.json", 1, capsys)[0] == 0
    assert _export(corpus, tmp_path / "srt", 1, capsys)[0] == 0
    assert len(_srt_files(tmp_path / "srt")) == N_SEGMENTS


def test_pool_has_no_more_workers_than_runs(corpus, tmp_path, capsys, monkeypatch):
    two_runs = tmp_path / "two_runs.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    two_runs.write_text("".join(lines[:cli.CHUNK_LINES + 1]), encoding="utf-8")
    sizes = []
    real_pool = multiprocessing.Pool

    def spy(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _evaluate(two_runs, tmp_path / "r.json", 8, capsys)[0] == 0
    assert _export(two_runs, tmp_path / "srt", 8, capsys)[0] == 0
    assert sizes == [2, 2]
    assert len(_srt_files(tmp_path / "srt")) == cli.CHUNK_LINES + 1


@pytest.mark.parametrize("run", [_evaluate, _export])
def test_bad_record_in_third_chunk(corpus, tmp_path, capsys, run):
    bad = _edited(corpus, tmp_path, {600: lambda r: json.dumps({**r, "k": "3"})})
    results = {cpus: run(bad, tmp_path / f"out{cpus}", cpus, capsys) for cpus in (1, 2)}
    assert results[1] == results[2]
    code, _, err = results[1]
    assert code == 3
    assert err.splitlines()[-1] == "error: line 600, field 'k': expected int, got '3'"


def _record(**fields):
    """An edit that sets fields of a record and drops its 'g'."""
    return lambda r: json.dumps({**r, "g": None, **fields})


_HUGE_TIMES = [{"t": 1e308, "w": "a"}, {"t": 1.7e308, "w": "<eob>"}]
# two block lags of 1.7e308 s: their sum, not their mean, passes the largest float
_HUGE_LAGS = [{"t": 0.0, "w": "a"}, {"t": 0.0, "w": "b"}, {"t": 1.7e308, "w": "<eob>"}]
# 30 blocks shown for about 1e-307 s each: finite speeds near 1e308 cps
_TINY_INTERVALS = [{"t": i * 1e-307, "w": w} for i in range(30) for w in ("abcdefghij", "<eob>")]
# AL 1.5e308 ms: finite on its own, but two of them overflow the corpus sum
_HUGE_AL = _record(duration=1.5e305, events=[{"t": 1.5e305, "w": "a"}, {"t": 1.5e305, "w": "<eob>"}])
_AL_ERROR = "line 600, field 'duration': segment seg00599: AL is not a finite number of ms"
_DELAY_ERROR = ("line 600, field 'events': segment seg00599: "
                "block delay is not a finite number of ms")
_SRT_ERROR = "line 600, field {!r}: segment seg00599: the last cue ends past the largest SRT time"
# A block shown from 99:59:59,500 that the wait-k delay (0.84 s) closes at
# 100 h or later, or whose end rounds to 100:00:00,000; a break at 100 h.
_SRT_HOURS = [{"t": 0.0, "w": "a"}, {"t": 359999.5, "w": "<eob>"}]
_SRT_ROUNDS = [{"t": 0.0, "w": "a"}, {"t": 359999.1596, "w": "<eob>"}]
_SRT_BREAK = [{"t": 0.0, "w": "a"}, {"t": 360000.0, "w": "<eob>"}]


@pytest.mark.parametrize(
    "edits, errors",
    [
        ({600: lambda r: "[" * 100_000 + "]" * 100_000},
         ["line 600: JSON nested too deeply"] * 3),
        ({600: _record(duration=1e308)}, [_AL_ERROR, None, _AL_ERROR]),
        ({600: _record(duration=2, events=_HUGE_TIMES)},
         [_DELAY_ERROR, _SRT_ERROR.format("events"), _DELAY_ERROR]),
        ({600: _record(duration=2, events=_HUGE_LAGS)},
         [_DELAY_ERROR, _SRT_ERROR.format("events"), _DELAY_ERROR]),
        ({600: _record(step=1e306)}, [None, _SRT_ERROR.format("k"), None]),
        ({600: _record(duration=2, events=_TINY_INTERVALS)}, [None] * 3),
        ({600: _HUGE_AL, 601: _HUGE_AL}, [None, _SRT_ERROR.format("events"), None]),
        ({600: _record(duration=2, events=_SRT_HOURS)}, [None, _SRT_ERROR.format("k"), None]),
        ({600: _record(duration=2, events=_SRT_ROUNDS)}, [None, _SRT_ERROR.format("k"), None]),
        ({600: _record(duration=2, events=_SRT_BREAK)},
         [None, _SRT_ERROR.format("events"), None]),
    ],
    ids=["deep-nesting", "huge-duration", "huge-times", "huge-lags", "huge-step",
         "tiny-intervals", "huge-al-twice", "srt-100-hours", "srt-rounds-to-100-hours",
         "srt-break-at-100-hours"],
)
def test_numbers_near_the_float_limit(corpus, tmp_path, capsys, edits, errors):
    # Finite inputs near the float limit, and JSON nested past the recursion
    # limit: evaluate, export-srt and replay either succeed with finite
    # numbers or exit 3 naming the line, whatever the worker count.
    bad = _edited(corpus, tmp_path, edits)
    for run, error in zip((_evaluate, _export), errors):
        out = tmp_path / run.__name__
        results = {cpus: run(bad, out.with_suffix(f".{cpus}"), cpus, capsys) for cpus in (1, 2)}
        assert results[1] == results[2]
        if error is None:
            assert results[1][::2] == (0, "")
        else:
            assert results[1][::2] == (3, f"error: {error}\n")
    if errors[0] is None:
        report = (tmp_path / "_evaluate.1").read_text(encoding="utf-8")
        assert "Infinity" not in report and "NaN" not in report
    code = main(["replay", str(bad), "--segment", "seg00599", "--speed", "0"])
    out, err = capsys.readouterr()
    if errors[2] is None:
        assert (code, err) == (0, "")
        assert "inf" not in out and "nan" not in out
    else:
        assert (code, out, err) == (3, "", f"error: {errors[2]}\n")


def test_cli_report_equals_library_report(corpus, tmp_path, capsys, monkeypatch):
    # worker tallies merged over 16-line runs give the library's report
    monkeypatch.setattr(cli, "CHUNK_LINES", 16)
    out = tmp_path / "report.json"
    assert _evaluate(corpus, out, 2, capsys)[0] == 0
    with open(corpus, encoding="utf-8") as f:
        expected = write_report(evaluate_corpus(read_log_corpus(f), keep_segments=True), True)
    assert out.read_bytes() == expected.encode("utf-8")


def test_worker_sends_no_sample_or_segment_objects(corpus):
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)[:cli.CHUNK_LINES]
    tally = cli._evaluate_chunk(6, 42, 84, (1, lines))
    assert len(tally.al) == cli.CHUNK_LINES
    data = pickle.dumps(tally)
    assert b"ReadingSpeedSample" not in data
    assert b"SegmentMetrics" not in data


@pytest.mark.parametrize(
    "events", [[{"t": 0.5, "w": "<eos>"}], []], ids=["eos-only", "no-events"]
)
def test_segment_without_words_names_its_line(corpus, tmp_path, capsys, events):
    bad = _edited(corpus, tmp_path, {600: lambda r: json.dumps({**r, "events": events, "g": None})})
    results = {cpus: _evaluate(bad, tmp_path / f"r{cpus}.json", cpus, capsys) for cpus in (1, 2)}
    assert results[1] == results[2]
    expected = "error: line 600, field 'events': segment seg00599: no word events"
    assert results[1][0] == 3
    assert results[1][2].splitlines() == [expected]
    replay = ["replay", str(bad), "--segment", "seg00599", "--speed", "0"]
    assert main(replay) == 3
    assert capsys.readouterr().err.splitlines() == [expected]


def test_empty_segment_warnings_in_file_order(corpus, tmp_path, capsys):
    def only_eos(record):
        return json.dumps({**record, "events": [{"t": 0.5, "w": "<eos>"}], "g": None})

    empty_lines = (650, 3, 300, 257, 256)
    empty = _edited(corpus, tmp_path, {n: only_eos for n in empty_lines})
    results = {cpus: _export(empty, tmp_path / f"srt{cpus}", cpus, capsys) for cpus in (1, 2)}
    assert results[1] == results[2]
    assert results[2][2].splitlines() == [
        f"warning: segment seg{n - 1:05d} is empty" for n in sorted(empty_lines)
    ]


def test_help_does_not_import_multiprocessing():
    src = Path(livesubs.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "livesubs.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert "usage:" in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "argparse" in imported
    assert not [m for m in imported if m.startswith("multiprocessing")]
