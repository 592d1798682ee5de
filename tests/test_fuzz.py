"""Mutations of valid inputs through the commands that read them.

Whatever the mutation of an emission-log corpus, evaluate, export-srt and
replay either finish with finite numbers and two-digit SRT hours, or exit 3
(data) or 4 (I/O) with an error message. Whatever the mutation of a
reference file, simulate either writes a corpus the reader accepts, or
exits 2 (arguments) or 3 (data) with an error message naming the line of a
bad reference. No exception escapes main.
"""

import copy
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from livesubs import AnnotatedReference, WaitKConfig, simulate_waitk
from livesubs.cli import main
from livesubs.formats import log_to_record, read_log_corpus

_REFS = [
    AnnotatedReference("s0", ("we", "meet", "<eol>", "at", "noon", "<eob>", "<eos>"), 2.5),
    # short source: the last tokens come in the end-of-source burst
    AnnotatedReference("s1", ("the", "talk", "starts", "<eob>", "then", "<eos>"), 1.2),
    AnnotatedReference("s2", ("bye", "<eos>"), 1.0),
]
_BASE = [log_to_record(simulate_waitk(ref, WaitKConfig(k=2, step_size=0.3))) for ref in _REFS]
_REPLAYED = "s1"

# Written as the JSON number 1e400, which the reader takes for infinity;
# json.dumps would write an infinite float as the constant Infinity.
_INF_TEXT = "__1e400__"
_NUMBERS = [0, 5e-324, 1e308, -1, 10**400, True, False, _INF_TEXT]
_RETYPED = ["x", "", "a b", None, [], {}, ["x"], {"t": 0.0}]
_BREAKS = ["<eol>", "<eob>", "<eos>"]
_OPS = ["number", "retype", "nest", "drop", "duplicate", "swap", "break"]
_TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


def _corpus(records) -> bytes:
    text = "".join(json.dumps(r) + "\n" for r in records)
    return text.replace(f'"{_INF_TEXT}"', "1e400").encode("utf-8")


def _paths(node, path=()):
    """The path of node and of everything inside it."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, path + (key,))


def _nested(depth: int):
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


def _mutate(draw, records) -> None:
    """One mutation at a drawn place in the list of records."""
    path = draw(st.sampled_from([p for p in _paths(records) if p]))
    parent = records
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = draw(st.sampled_from(_OPS))
    if op == "number":
        parent[key] = draw(st.sampled_from(_NUMBERS))
    elif op == "retype":
        parent[key] = copy.deepcopy(draw(st.sampled_from(_RETYPED)))
    elif op == "nest":
        parent[key] = _nested(draw(st.integers(1, 60)))
    elif op == "drop":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif op == "swap" and isinstance(parent, list):
        other = draw(st.integers(0, len(parent) - 1))
        parent[key], parent[other] = parent[other], parent[key]
    elif op == "break" and isinstance(parent, list):
        # A break before the item, at its time when it has one. In an event
        # list that has a 'g' of the same length, the break gets the item's
        # consumed source too, so the record can stay valid.
        item = parent[key]
        t = item.get("t", 0.0) if isinstance(item, dict) else 0.0
        parent.insert(key, {"t": t, "w": draw(st.sampled_from(_BREAKS))})
        record = records[path[0]] if len(path) == 3 else None
        if isinstance(record, dict) and path[1] == "events":
            g = record.get("g")
            if isinstance(g, list) and len(g) == len(parent) - 1 and key < len(g):
                g.insert(key, g[key])


@st.composite
def _corpora(draw) -> bytes:
    records = copy.deepcopy(_BASE)
    if draw(st.booleans()):
        for record in records:
            del record["g"]
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, records)
    lines = _corpus(records).splitlines(keepends=True)
    if lines and draw(st.integers(0, 9)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = _TOO_DEEP + b"\n"
    data = b"".join(lines)
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def _replayed_with(**fields) -> bytes:
    records = copy.deepcopy(_BASE)
    records[1].update(fields)
    return _corpus(records)


def _event_edited(j: int, **fields) -> bytes:
    events = copy.deepcopy(_BASE[1]["events"])
    events[j].update(fields)
    return _replayed_with(events=events)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_SRT_TIMES = re.compile(r"\d\d:[0-5]\d:[0-5]\d,\d{3} --> \d\d:[0-5]\d:[0-5]\d,\d{3}")
# Errors about the corpus as a whole rather than one of its records.
_CORPUS_ERRORS = ("error: empty corpus", f"error: unknown segment id {_REPLAYED!r}")


def _check_exit(code: int, err: str) -> None:
    assert code in (0, 3, 4), err
    if code == 3:
        last = err.splitlines()[-1]
        assert last in _CORPUS_ERRORS or re.match(r"error: line \d+[:,]", last), err
    elif code == 4:
        assert err.startswith("error: "), err


@settings(max_examples=300, deadline=None)
@given(_corpora())
@example(_replayed_with(duration=10**400))
@example(_event_edited(-1, t=10**400))
@example(_event_edited(0, t=-1))
@example(_event_edited(0, w=""))
@example(_event_edited(0, w="a b"))
@example(_event_edited(0, w="<eos>"))
@example(_replayed_with(k=0))
@example(_replayed_with(step=0))
@example(_replayed_with(duration=_INF_TEXT))
@example(_replayed_with(g=None, events=[{"t": 0.0, "w": "a"}, {"t": 359999.5, "w": "<eob>"}]))
def test_mutated_corpus_is_evaluated_or_rejected(data):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(data)
        report = Path(tmp) / "report.json"
        code, _, err = _run(["evaluate", str(corpus), "--per-segment", "--out", str(report)])
        _check_exit(code, err)
        if code == 0:
            text = report.read_text(encoding="utf-8")
            assert "NaN" not in text and "Infinity" not in text

        srt = Path(tmp) / "srt"
        code, _, err = _run(["export-srt", str(corpus), "--out", str(srt)])
        _check_exit(code, err)
        if code == 0:
            for path in srt.iterdir():
                for line in path.read_text(encoding="utf-8").splitlines():
                    if "-->" in line:
                        assert _SRT_TIMES.fullmatch(line), line

        code, out, err = _run(["replay", str(corpus), "--segment", _REPLAYED, "--speed", "0"])
        _check_exit(code, err)
        if code == 0:
            summary = out[out.rindex("\nsegment "):]
            assert "inf" not in summary and "nan" not in summary, summary


_REF_LINES = [
    "s0\t2.5\twe meet <eol> at noon <eob> <eos>",
    "s1\t1.2\tthe talk starts <eob> then <eos>",
    "s2\t1.0\tbye <eos>",
]
_DURATIONS = ["0", "-1", "1e400", "nan", str(10**400), "-inf", "", "0.5"]
_REF_OPS = ["drop-tab", "add-tab", "duration", "break", "long-run"]
# Policies whose times overflow on a long enough reference.
_POLICIES = [
    [],
    ["--latency-ms", "1e308"],
    ["--latency-ms", "1e305"],
    ["--no-flush", "--k", "1", "--step-ms", "1e308"],
    ["--k", "7", "--step-ms", "1e-3"],
]


def _mutate_ref(draw, lines: list[str]) -> None:
    """One mutation of one drawn line of a reference file."""
    n = draw(st.integers(0, len(lines) - 1))
    line = lines[n]
    op = draw(st.sampled_from(_REF_OPS))
    if op == "drop-tab" and "\t" in line:
        at = draw(st.sampled_from([i for i, c in enumerate(line) if c == "\t"]))
        lines[n] = line[:at] + line[at + 1:]
    elif op == "add-tab":
        at = draw(st.integers(0, len(line)))
        lines[n] = line[:at] + "\t" + line[at:]
    elif op == "duration" and line.count("\t") == 2:
        seg_id, _, tokens = line.split("\t")
        lines[n] = f"{seg_id}\t{draw(st.sampled_from(_DURATIONS))}\t{tokens}"
    elif op == "break":
        words = line.split(" ")
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(["<eos>", "<eob>"])))
        lines[n] = " ".join(words)
    elif op == "long-run":
        run = " ".join(["w"] * draw(st.sampled_from([100, 2000, 3000])))
        head, tab, tokens = line.rpartition("\t")
        lines[n] = f"{head}{tab}{run} {tokens}"


@st.composite
def _ref_files(draw) -> tuple[bytes, list[str]]:
    lines = list(_REF_LINES)
    for _ in range(draw(st.integers(0, 3))):
        _mutate_ref(draw, lines)
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        data = data[:at] + byte + data[at:]
    return data, draw(st.sampled_from(_POLICIES))


def _ref_file(tokens: str) -> bytes:
    return (f"{_REF_LINES[0]}\ns1\t2.0\t{tokens}\n").encode("utf-8")


_LONG_RUN = " ".join(["w"] * 2000) + " <eos>"


@settings(max_examples=200, deadline=None)
@given(_ref_files())
@example((_ref_file("hello <eos> world <eob> <eos>"), []))
@example((_ref_file(_LONG_RUN), ["--latency-ms", "1e308"]))
@example((_ref_file(_LONG_RUN), ["--no-flush", "--k", "1", "--step-ms", "1e308"]))
def test_mutated_references_are_simulated_or_rejected(case):
    data, policy = case
    with tempfile.TemporaryDirectory() as tmp:
        refs = Path(tmp) / "refs.tsv"
        refs.write_bytes(data)
        corpus = Path(tmp) / "corpus.jsonl"
        try:
            code, _, err = _run(["simulate", str(refs), "--out", str(corpus), *policy])
        except SystemExit as exc:  # an argument error
            code, err = exc.code, ""
        assert code in (0, 2, 3), err
        if code == 3:
            assert re.match(r"error: line \d+[:,]", err.splitlines()[-1]), err
            assert not corpus.exists()
        elif code == 0:
            with open(corpus, encoding="utf-8") as f:
                assert len(list(read_log_corpus(f))) == len(data.splitlines())
