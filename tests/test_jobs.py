"""evaluate and export-srt over the ordered chunk pool: output, errors and
warnings do not depend on the job count or the chunk size."""

import json
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


def _evaluate(logs, out, jobs, capsys):
    code = main(["evaluate", str(logs), "--per-segment", "--jobs", str(jobs), "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out.replace(str(out), "REPORT"), captured.err


def _export(logs, out, jobs, capsys):
    code = main(["export-srt", str(logs), "--jobs", str(jobs), "--out", str(out)])
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
    runs = {jobs: _evaluate(corpus, tmp_path / f"r{jobs}.json", jobs, capsys) for jobs in (1, 2)}
    assert runs[1] == runs[2]
    assert runs[1][0] == 0
    one, two = ((tmp_path / f"r{jobs}.json").read_bytes() for jobs in (1, 2))
    assert one == two
    assert len(json.loads(one)["per_segment"]) == N_SEGMENTS


def test_srt_files_independent_of_jobs(corpus, tmp_path, capsys):
    runs = {jobs: _export(corpus, tmp_path / f"srt{jobs}", jobs, capsys) for jobs in (1, 2)}
    assert runs[1] == runs[2] == (0, f"wrote {N_SEGMENTS} SRT files to OUT\n", "")
    one, two = (_srt_files(tmp_path / f"srt{jobs}") for jobs in (1, 2))
    assert len(one) == N_SEGMENTS
    assert one == two


@pytest.mark.parametrize("run", [_evaluate, _export])
def test_bad_record_in_third_chunk(corpus, tmp_path, capsys, run):
    bad = _edited(corpus, tmp_path, {600: lambda r: json.dumps({**r, "k": "3"})})
    results = {jobs: run(bad, tmp_path / f"out{jobs}", jobs, capsys) for jobs in (1, 2)}
    assert results[1] == results[2]
    code, _, err = results[1]
    assert code == 3
    assert err.splitlines()[-1] == "error: line 600, field 'k': expected int, got '3'"


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
    for keep_ids in (False, True):
        tally = cli._evaluate_chunk(6, 42, 84, keep_ids, (1, lines))
        assert len(tally.al) == cli.CHUNK_LINES
        data = pickle.dumps(tally)
        assert b"ReadingSpeedSample" not in data
        assert b"SegmentMetrics" not in data


@pytest.mark.parametrize(
    "events", [[{"t": 0.5, "w": "<eos>"}], []], ids=["eos-only", "no-events"]
)
def test_segment_without_words_names_its_line(corpus, tmp_path, capsys, events):
    bad = _edited(corpus, tmp_path, {600: lambda r: json.dumps({**r, "events": events, "g": None})})
    results = {jobs: _evaluate(bad, tmp_path / f"r{jobs}.json", jobs, capsys) for jobs in (1, 2)}
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
    results = {jobs: _export(empty, tmp_path / f"srt{jobs}", jobs, capsys) for jobs in (1, 2)}
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
