"""Command-line interface.

Subcommands:
  simulate    references -> emission-log corpus under a wait-k policy
  evaluate    emission-log corpus -> readability/latency report
  replay      render one segment's screen states in the terminal
  export-srt  emission-log corpus -> one SubRip file per segment

Each subparser names its cmd_* function with set_defaults(run=...), and main
calls args.run(args).

Defaults mirror the evaluation setup: 280 ms step, 21 cps reading-speed
threshold, 6-42 characters per line, 84-character rows. The LIVESUBS_OUT
environment variable sets the default output directory of simulate and
export-srt; evaluate writes its JSON report only to --out.

Exit codes: 0 success, 2 argument errors, 3 schema/data errors, 4 I/O errors.

evaluate and export-srt read the corpus in fixed runs of lines. Worker
processes, one per CPU this process may run on but no more than there are
runs, each run a function of the layer that does the work (a single worker
is this process): report._tally_run folds a run into one CorpusTally
(floats, counts, and ids with their line numbers), formats._srt_run renders
its SRT files. Results come back, and are merged or written, in file order,
so the output does not depend on the worker count. This process keeps the
arguments, the processes, the ids and the files: it rejects a segment id
already used on an earlier line, and alone creates the files.

The three corpus commands check each record they read by the same rules.
evaluate reads each record as an EmissionLog (read_log_corpus). export-srt
and replay read only its checked columns (id, parameters, surfaces, times):
export-srt renders the SRT text straight from them, and replay builds the
log of the one segment it shows.

Input files must be UTF-8 text: an undecodable byte, or a lone surrogate
escaped in a record's id or words, is a data error that names its line. A
leading UTF-8 signature (byte-order mark) is skipped.

A command imports what it runs. At module level this file imports only what
the argument parser needs, so --help loads none of the measuring modules;
each cmd_* imports at its entry the function its workers run, which loads
their modules before any worker is forked, so the workers import none.
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

from .defaults import MAX_CPL, MAX_ROW_CHARS, MIN_CPL, RS_THRESHOLD_CPS, DisplayMode

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_IO = 4

# Corpus lines per unit of work handed to a worker process.
CHUNK_LINES = 256


def _open_text(path: str):
    """A UTF-8 input file, without the signature (byte-order mark) it may
    start with. An undecodable byte is read as a lone surrogate
    (surrogateescape), which the record checks reject with its line."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape")


def _names_dir(out: str) -> bool:
    """Whether an --out path ends in a path separator, so names a directory."""
    return out.endswith(("/", os.sep))


def _out_dir(args):
    from pathlib import Path

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
    p.set_defaults(run=cmd_simulate)
    p.add_argument("refs", help="annotated-reference TSV file")
    p.add_argument("--k", type=_AT_LEAST_ONE, default=3, help="wait-k parameter")
    p.add_argument("--step-ms", type=_POSITIVE, default=280.0, help="read step size in ms")
    p.add_argument(
        "--latency-ms", type=_NON_NEGATIVE, default=0.0, help="per-token compute latency in ms"
    )
    p.add_argument("--no-flush", action="store_true", help="disable the end-of-source burst")
    _add_common(p)

    p = sub.add_parser("evaluate", help="compute readability and latency metrics")
    p.set_defaults(run=cmd_evaluate)
    p.add_argument("logs", help="emission-log corpus file")
    p.add_argument("--mode", choices=[*(m.value for m in DisplayMode), "all"], default="all")
    _add_metric_flags(p)
    p.add_argument("--cpl-min", type=_AT_LEAST_ZERO, default=MIN_CPL)
    p.add_argument("--cpl-max", type=_AT_LEAST_ONE, default=MAX_CPL)
    p.add_argument("--per-segment", action="store_true", help="include per-segment breakdown")
    p.add_argument("--out", help="JSON report file (default: none; only the table is printed)")

    p = sub.add_parser("replay", help="replay one segment's screen states")
    p.set_defaults(run=cmd_replay)
    p.add_argument("logs", help="emission-log corpus file")
    p.add_argument("--segment", required=True, help="segment id to replay")
    p.add_argument("--mode", choices=[m.value for m in DisplayMode], default="line")
    p.add_argument(
        "--speed", type=_checked(float, lambda v: v >= 0, ">= 0"), default=1.0,
        help="playback speed factor; 0 dumps all frames immediately",
    )
    _add_metric_flags(p)

    p = sub.add_parser("export-srt", help="export blocks-mode SRT files")
    p.set_defaults(run=cmd_export_srt)
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


def _first_use(first_line: dict[str, int], seg_id: str, lineno: int) -> None:
    """Note that seg_id is on line lineno; an id seen before is a SchemaError."""
    if seg_id in first_line:
        from .formats import SchemaError

        raise SchemaError(
            f"duplicate segment id {seg_id!r} (first on line {first_line[seg_id]})",
            lineno, "id",
        )
    first_line[seg_id] = lineno


def cmd_simulate(args) -> int:
    from .formats import _each_record, _read_ref_fields, _record_line
    from .waitk import WaitKConfig, _emission_columns

    cfg = WaitKConfig(
        k=args.k,
        step_size=args.step_ms / 1000.0,
        compute_latency=args.latency_ms / 1000.0,
        flush_at_end=not args.no_flush,
    )

    def simulate_line(fields) -> tuple[str, str]:
        """(segment id, corpus line) of a reference's checked fields: the line
        write_log_corpus writes for simulate_waitk(ref, cfg), rendered from
        the columns that _check_columns's fast pass accepts, or the error
        the constructors raise when it falls back to them, which
        _each_record gives field 'tokens'."""
        return fields[0], _record_line(*_emission_columns(*fields, cfg))

    first_line: dict[str, int] = {}
    lines: list[str] = []
    # Nothing is written until every reference has passed.
    with _open_text(args.refs) as f:
        simulated = _each_record(1, f, simulate_line, _read_ref_fields, "tokens")
        for lineno, (seg_id, line) in simulated:
            _first_use(first_line, seg_id, lineno)
            lines.append(line)
    out = _out_dir(args)
    names_file = args.out and not _names_dir(args.out) and not out.is_dir()
    out_path = out if names_file else out / "emissions.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        f.writelines(lines)
    print(f"wrote {len(lines)} emission logs to {out_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    # An empty --out names the current directory, as Path('') does.
    if args.out is not None and (_names_dir(args.out) or os.path.isdir(args.out or os.curdir)):
        print(
            f"error: --out {args.out!r} names a directory; evaluate writes one report file",
            file=sys.stderr,
        )
        return EXIT_USAGE
    from pathlib import Path

    from .report import MODE_ORDER, CorpusTally, _tally_run, render_table, write_report

    work = partial(_tally_run, args.cpl_min, args.cpl_max, args.max_row_chars)
    tally = CorpusTally()
    first_line: dict[str, int] = {}
    for run in _map_chunks(work, args.logs):
        for seg_id, lineno in zip(run.ids, run.lines):
            _first_use(first_line, seg_id, lineno)
        tally.merge(run)
    report = tally.report(args.rs_threshold, args.cpl_min, args.cpl_max)
    if report.n_segments == 0:
        print("error: empty corpus", file=sys.stderr)
        return EXIT_SCHEMA
    if args.out is not None:  # written first: a report that cannot be written prints nothing
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(write_report(report, args.per_segment), encoding="utf-8")
    modes = MODE_ORDER if args.mode == "all" else (DisplayMode(args.mode),)
    sys.stdout.write(render_table(report, modes))
    if args.out is not None:
        print(f"wrote report to {out_path}")
    return EXIT_OK


def cmd_replay(args) -> int:
    from threading import TIMEOUT_MAX

    from .core import _built_log
    from .formats import _each_record
    from .reading_speed import rs_stats
    from .report import evaluate_log, screen_schedule

    def measure(columns):
        # Before any frame is shown: a segment whose latency no float holds shows none.
        if columns[0] == args.segment:
            log = _built_log(*columns)
            return columns[0], (log, evaluate_log(log, max_row_chars=args.max_row_chars))
        return columns[0], None

    # Check the records up to the first match, their ids included, build its
    # log alone, and stop: later records are not read.
    first_line: dict[str, int] = {}
    found = None
    with _open_text(args.logs) as f:
        for lineno, (seg_id, found) in _each_record(1, f, measure):
            _first_use(first_line, seg_id, lineno)
            if found is not None:
                break
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


_UNSAFE_ID_CHARS = {c for c in ("/", os.sep, os.altsep, "\0") if c}


def _write_file(name: str, data: bytes, dir_fd: int) -> None:
    # A name that is a symbolic link is refused (ELOOP): it may lead out of --out.
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC | os.O_NOFOLLOW
    fd = os.open(name, flags, 0o666, dir_fd=dir_fd)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def cmd_export_srt(args) -> int:
    from .formats import SchemaError, _srt_run

    def unnamable(seg_id: str, lineno: int) -> SchemaError:
        return SchemaError(f"segment id {seg_id!r} cannot name a file in {out}", lineno, "id")

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    first_line: dict[str, int] = {}
    # This process alone creates the files, in file order; the workers only
    # parse and render. Creating files is kernel time that a second creator
    # in the same directory doubles rather than overlaps.
    dir_fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)
    try:
        for chunk in _map_chunks(_srt_run, args.logs):
            for lineno, (seg_id, data) in chunk:
                if not seg_id or _UNSAFE_ID_CHARS.intersection(seg_id):
                    raise unnamable(seg_id, lineno)
                _first_use(first_line, seg_id, lineno)
                if not data:
                    print(f"warning: segment {seg_id} is empty", file=sys.stderr)
                try:
                    _write_file(f"{seg_id}.srt", data, dir_fd)
                except OSError as exc:
                    if exc.errno != errno.ENAMETOOLONG:
                        raise
                    raise unnamable(seg_id, lineno) from None
    finally:
        os.close(dir_fd)
    print(f"wrote {len(first_line)} SRT files to {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Imported once parsed: --help and argument errors exit without it.
    from .core import StreamError, finite_delay_k

    if hasattr(args, "cpl_min") and args.cpl_min > args.cpl_max:
        parser.error(f"--cpl-min {args.cpl_min} is greater than --cpl-max {args.cpl_max}")
    if args.command == "simulate" and not finite_delay_k(args.k, args.step_ms / 1000.0):
        parser.error("--k times --step-ms must be a finite number of seconds")
    try:
        return args.run(args)
    except StreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
