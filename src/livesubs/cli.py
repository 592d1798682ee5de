"""Command-line interface.

Subcommands:
  simulate    references -> emission-log corpus under a wait-k policy
  evaluate    emission-log corpus -> readability/latency report
  replay      render one segment's screen states in the terminal
  export-srt  emission-log corpus -> one SubRip file per segment

Defaults mirror the evaluation setup: 280 ms step, 21 cps reading-speed
threshold, 6-42 characters per line, 84-character rows. The LIVESUBS_OUT
environment variable sets the default output directory.

Exit codes: 0 success, 2 argument errors, 3 schema/data errors, 4 I/O errors.

evaluate and export-srt read the corpus in fixed runs of lines. Worker
processes, one per CPU this process may run on but no more than there are
runs, parse each run and do the work (a single worker is this process).
Results come back, and are merged or written, in file order, so the output
does not depend on the worker count. An evaluate worker sends back one
CorpusTally per run (floats, counts and ids), an export-srt worker the
rendered SRT files.

The three corpus commands check each record they read by the same rules.
evaluate reads each record as an EmissionLog (read_log_corpus). export-srt
and replay read only its checked columns (id, parameters, surfaces, times):
export-srt renders the SRT text straight from them, and replay builds the
log of the one segment it shows.

Input files must be UTF-8 text: an undecodable byte, or a lone surrogate
escaped in a record's id or words, is a data error that names its line.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time
from collections import deque
from functools import partial
from itertools import chain, islice
from pathlib import Path
from threading import TIMEOUT_MAX

from .core import StreamError, _built_log, _check_columns, delay_k_seconds, finite_delay_k
from .display import MAX_ROW_CHARS, DisplayMode
from .formats import SRT_END_MS, SchemaError, _read_columns, _record_line, _srt_of_columns
from .formats import read_annotated_refs, read_log_corpus
from .reading_speed import MAX_CPL, MIN_CPL, RS_THRESHOLD_CPS, rs_stats
from .report import MODE_ORDER, CorpusTally, evaluate_log, render_table
from .report import screen_schedule, write_report
from .waitk import AnnotatedReference, WaitKConfig, _emission_columns

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_IO = 4

# Corpus lines per unit of work handed to a worker process.
CHUNK_LINES = 256


def _open_text(path: str):
    """A UTF-8 input file. An undecodable byte is read as a lone surrogate
    (surrogateescape), which the record checks reject with its line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("LIVESUBS_OUT", "."))


def _checked(convert, ok, what: str):
    """An argparse type: convert the text, then require ok(value)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, ">= 1")
_AT_LEAST_ZERO = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_NON_NEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (default: $LIVESUBS_OUT or cwd)")


def _add_policy(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_AT_LEAST_ONE, default=3, help="wait-k parameter")
    parser.add_argument("--step-ms", type=_POSITIVE, default=280.0, help="read step size in ms")
    parser.add_argument(
        "--latency-ms", type=_NON_NEGATIVE, default=0.0, help="per-token compute latency in ms"
    )


def _add_metric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rs-threshold", type=_POSITIVE, default=RS_THRESHOLD_CPS)
    parser.add_argument("--max-row-chars", type=_AT_LEAST_ONE, default=MAX_ROW_CHARS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="livesubs",
        description="Simulate and evaluate live-subtitle display modes over timed emission logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate wait-k emission logs from references")
    p.add_argument("refs", help="annotated-reference TSV file")
    _add_policy(p)
    p.add_argument("--no-flush", action="store_true", help="disable the end-of-source burst")
    _add_common(p)

    p = sub.add_parser("evaluate", help="compute readability and latency metrics")
    p.add_argument("logs", help="emission-log corpus file")
    p.add_argument("--mode", choices=[*(m.value for m in DisplayMode), "all"], default="all")
    _add_metric_flags(p)
    p.add_argument("--cpl-min", type=_AT_LEAST_ZERO, default=MIN_CPL)
    p.add_argument("--cpl-max", type=_AT_LEAST_ONE, default=MAX_CPL)
    p.add_argument("--per-segment", action="store_true", help="include per-segment breakdown")
    _add_common(p)

    p = sub.add_parser("replay", help="replay one segment's screen states")
    p.add_argument("logs", help="emission-log corpus file")
    p.add_argument("--segment", required=True, help="segment id to replay")
    p.add_argument("--mode", choices=[m.value for m in DisplayMode], default="line")
    p.add_argument(
        "--speed", type=_checked(float, lambda v: v >= 0, ">= 0"), default=1.0,
        help="playback speed factor; 0 dumps all frames immediately",
    )
    _add_metric_flags(p)

    p = sub.add_parser("export-srt", help="export blocks-mode SRT files")
    p.add_argument("logs", help="emission-log corpus file")
    _add_common(p)

    return parser


def _chunks(lines):
    """(first line number, lines) for consecutive runs of CHUNK_LINES lines."""
    start = 1
    while chunk := list(islice(lines, CHUNK_LINES)):
        yield start, chunk
        start += len(chunk)


def _map_chunks(fn, path: str):
    """fn((first line number, raw lines)) over the corpus at path, run by run;
    yields the results in file order.

    A pool of one worker per CPU this process may run on, but no more than
    the corpus has runs, runs fn, with at most two runs in flight per worker,
    so neither the corpus nor the results pile up in memory. When that count
    is one, fn runs in this process. An exception fn raises is raised here,
    in file order.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity call on this OS
        cpus = os.cpu_count() or 1
    with _open_text(path) as f:
        chunks = _chunks(f)
        head = list(islice(chunks, cpus))
        jobs = len(head)
        if jobs < 2:
            yield from map(fn, chain(head, chunks))
            return
        # Imported here: loading multiprocessing.pool adds about 20 ms to the
        # start-up of every command that does not use it, --help included.
        # The default start method (fork on Linux) starts a worker in a few
        # ms; spawn re-imports the package in each one, about 0.2 s.
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            pending: deque = deque()
            for chunk in chain(head, chunks):
                pending.append(pool.apply_async(fn, (chunk,)))
                if len(pending) >= 2 * jobs:
                    yield pending.popleft().get()
            while pending:
                yield pending.popleft().get()


def _simulate_line(cfg: WaitKConfig, ref: AnnotatedReference) -> tuple[str, str]:
    """(segment id, corpus line) of ref: the line write_log_corpus writes for
    simulate_waitk(ref, cfg), made from the columns once they are checked;
    a reference they fail raises the constructors' error."""
    times, consumed = _emission_columns(ref, cfg)
    _check_columns(ref.segment_id, ref.duration, cfg.k, cfg.step_size, ref.tokens, times, consumed)
    line = _record_line(
        ref.segment_id, ref.duration, cfg.k, cfg.step_size, ref.tokens, times, consumed
    )
    return ref.segment_id, line


def _first_use(first_line: dict[str, int], seg_id: str, lineno: int) -> None:
    """Note that seg_id is on line lineno; an id seen before is a SchemaError."""
    if seg_id in first_line:
        raise SchemaError(
            f"duplicate segment id {seg_id!r} (first on line {first_line[seg_id]})",
            lineno, "id",
        )
    first_line[seg_id] = lineno


def cmd_simulate(args) -> int:
    cfg = WaitKConfig(
        k=args.k,
        step_size=args.step_ms / 1000.0,
        compute_latency=args.latency_ms / 1000.0,
        flush_at_end=not args.no_flush,
    )
    first_line: dict[str, int] = {}
    lines: list[str] = []
    # Nothing is written until every reference has passed.
    with _open_text(args.refs) as f:
        simulated = _each_record(read_annotated_refs, 1, f, partial(_simulate_line, cfg), "tokens")
        for lineno, (seg_id, line) in simulated:
            _first_use(first_line, seg_id, lineno)
            lines.append(line)
    out = _out_dir(args)
    out_path = out if args.out and not out.is_dir() else out / "emissions.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        f.writelines(lines)
    print(f"wrote {len(lines)} emission logs to {out_path}")
    return EXIT_OK


def _each_record(read, start: int, lines, work, field: str | None = None):
    """(line number, work(record)) for each record that read (read_log_corpus
    or read_annotated_refs) finds in lines, the first of which is line start
    of its file. A StreamError from work is raised naming the line, and field
    when it names none."""
    for lineno, line in enumerate(lines, start):
        for record in read((line,), start=lineno):
            try:
                result = work(record)
            except StreamError as exc:
                raise type(exc)(exc.message, lineno, exc.field or field) from None
            yield lineno, result


def _evaluate_chunk(min_cpl: int, max_cpl: int, max_row_chars: int, chunk):
    """One run of corpus lines folded into a CorpusTally."""
    measure = partial(evaluate_log, min_cpl=min_cpl, max_cpl=max_cpl, max_row_chars=max_row_chars)
    tally = CorpusTally()
    for _, metrics in _each_record(read_log_corpus, *chunk, measure):
        tally.add(metrics)
    return tally


def cmd_evaluate(args) -> int:
    work = partial(_evaluate_chunk, args.cpl_min, args.cpl_max, args.max_row_chars)
    tally = CorpusTally()
    for run in _map_chunks(work, args.logs):
        tally.merge(run)
    report = tally.report(args.rs_threshold, args.cpl_min, args.cpl_max)
    if report.n_segments == 0:
        print("error: empty corpus", file=sys.stderr)
        return EXIT_SCHEMA
    modes = MODE_ORDER if args.mode == "all" else (DisplayMode(args.mode),)
    sys.stdout.write(render_table(report, modes))
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(write_report(report, args.per_segment), encoding="utf-8")
        print(f"wrote report to {out_path}")
    return EXIT_OK


def cmd_replay(args) -> int:
    def measure(columns):
        # Before any frame is shown: a segment whose latency no float holds shows none.
        if columns[0] == args.segment:
            log = _built_log(*columns)
            return log, evaluate_log(log, max_row_chars=args.max_row_chars)
        return None

    # Check the records up to the first match, build its log alone, and stop:
    # later records are not read.
    with _open_text(args.logs) as f:
        measured = (x for _, x in _each_record(_read_columns, 1, f, measure))
        found = next((x for x in measured if x is not None), None)
    if found is None:
        print(f"error: unknown segment id {args.segment!r}", file=sys.stderr)
        return EXIT_SCHEMA
    log, metrics = found
    mode = DisplayMode(args.mode)
    states = screen_schedule(log, mode, args.max_row_chars).states
    # time.sleep waits until the monotonic clock reads now + wait, and fails
    # when that is TIMEOUT_MAX s or more: check the whole replay before any frame.
    if args.speed > 0 and states:
        span = (states[-1].onset - states[0].onset) / args.speed
        if not time.monotonic() + span < TIMEOUT_MAX:
            print(
                f"error: --speed {args.speed:g} makes the replay {span:g} s long, "
                "more than time.sleep can wait",
                file=sys.stderr,
            )
            return EXIT_USAGE
    prev_onset = None
    for state in states:
        if args.speed > 0 and prev_onset is not None:
            time.sleep((state.onset - prev_onset) / args.speed)
        prev_onset = state.onset
        print(f"[{state.onset:8.3f}s]")
        for row in state.rows:
            print(f"  | {row}")
    # metric summary for the replayed segment
    stats = rs_stats(metrics.rs_samples[mode], args.rs_threshold)
    print()
    print(f"segment {log.segment_id} ({mode.value} mode)")
    print(f"  AL: {metrics.average_lagging:.0f} ms   delay: {metrics.delay_by_mode[mode]:.0f} ms")
    if stats is not None:
        print(
            f"  rs: {stats.mean:.1f} ± {stats.std_dev:.1f} cps   "
            f"<= {stats.threshold:g} cps: {stats.pct_conforming:.0f}%"
        )
    return EXIT_OK


def _render_srt(columns) -> tuple[str, bytes, bool]:
    """(segment id, SRT file contents, no cues) of one record's checked columns."""
    seg_id, _, k, step, surfaces, times, _ = columns
    # The last cue ends last, at end_time + delay_k, which may be infinite.
    end_time = times[-1] if times else 0.0
    last_end = end_time + delay_k_seconds(k, step)
    if not 1000.0 * last_end < SRT_END_MS:
        field = "k" if 1000.0 * end_time < SRT_END_MS else "events"
        raise SchemaError(
            f"segment {seg_id}: the last cue ends past the largest SRT time", None, field
        )
    text = _srt_of_columns(surfaces, times, last_end)
    return seg_id, text.encode("utf-8"), not text


def _render_srt_chunk(chunk) -> list[tuple[int, tuple[str, bytes, bool]]]:
    """(line number, (segment id, SRT file contents, no cues)) per record."""
    return list(_each_record(_read_columns, *chunk, _render_srt))


_UNSAFE_ID_CHARS = {c for c in ("/", os.sep, os.altsep, "\0") if c}


def _write_file(name: str, data: bytes, dir_fd: int) -> None:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC
    fd = os.open(name, flags, 0o666, dir_fd=dir_fd)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _unnamable(seg_id: str, out: Path, lineno: int) -> SchemaError:
    return SchemaError(f"segment id {seg_id!r} cannot name a file in {out}", lineno, "id")


def cmd_export_srt(args) -> int:
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    first_line: dict[str, int] = {}
    # This process alone creates the files, in file order; the workers only
    # parse and render. Creating files is kernel time that a second creator
    # in the same directory doubles rather than overlaps.
    dir_fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)
    try:
        for chunk in _map_chunks(_render_srt_chunk, args.logs):
            for lineno, (seg_id, data, empty) in chunk:
                if _UNSAFE_ID_CHARS.intersection(seg_id):
                    raise _unnamable(seg_id, out, lineno)
                _first_use(first_line, seg_id, lineno)
                if empty:
                    print(f"warning: segment {seg_id} is empty", file=sys.stderr)
                try:
                    _write_file(f"{seg_id}.srt", data, dir_fd)
                except OSError as exc:
                    if exc.errno != errno.ENAMETOOLONG:
                        raise
                    raise _unnamable(seg_id, out, lineno) from None
    finally:
        os.close(dir_fd)
    print(f"wrote {len(first_line)} SRT files to {out}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "replay": cmd_replay,
    "export-srt": cmd_export_srt,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "cpl_min") and args.cpl_min > args.cpl_max:
        parser.error(f"--cpl-min {args.cpl_min} is greater than --cpl-max {args.cpl_max}")
    if args.command == "simulate" and not finite_delay_k(args.k, args.step_ms / 1000.0):
        parser.error("--k times --step-ms must be a finite number of seconds")
    try:
        return _COMMANDS[args.command](args)
    except StreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
