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
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .core import StreamError, extract_blocks, extract_lines
from .display import DisplayMode, close_schedule, schedule_block_mode
from .formats import export_srt, read_log_corpus, write_log_corpus
from .formats import read_annotated_refs
from .latency import average_lagging, display_delay
from .reading_speed import rs_stats
from .report import MODES, evaluate_corpus, render_table, write_report
from .waitk import WaitKConfig, simulate_waitk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_IO = 4

_MODES = {m.value: m for m in DisplayMode}


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("LIVESUBS_OUT", "."))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (default: $LIVESUBS_OUT or cwd)")


def _add_policy(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=3, help="wait-k parameter")
    parser.add_argument("--step-ms", type=float, default=280.0, help="read step size in ms")
    parser.add_argument(
        "--latency-ms", type=float, default=0.0, help="per-token compute latency in ms"
    )


def _add_metric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rs-threshold", type=float, default=21.0)
    parser.add_argument("--cpl-min", type=int, default=6)
    parser.add_argument("--cpl-max", type=int, default=42)
    parser.add_argument("--max-row-chars", type=int, default=84)


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
    p.add_argument("--mode", choices=[*_MODES, "all"], default="all")
    _add_metric_flags(p)
    p.add_argument("--per-segment", action="store_true", help="include per-segment breakdown")
    _add_common(p)

    p = sub.add_parser("replay", help="replay one segment's screen states")
    p.add_argument("logs", help="emission-log corpus file")
    p.add_argument("--segment", required=True, help="segment id to replay")
    p.add_argument("--mode", choices=list(_MODES), default="line")
    p.add_argument(
        "--speed", type=float, default=1.0,
        help="playback speed factor; 0 dumps all frames immediately",
    )
    _add_metric_flags(p)

    p = sub.add_parser("export-srt", help="export blocks-mode SRT files")
    p.add_argument("logs", help="emission-log corpus file")
    _add_common(p)

    return parser


def _read_logs(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        return list(read_log_corpus(f))


def cmd_simulate(args) -> int:
    cfg = WaitKConfig(
        k=args.k,
        step_size=args.step_ms / 1000.0,
        compute_latency=args.latency_ms / 1000.0,
        flush_at_end=not args.no_flush,
    )
    with open(args.refs, encoding="utf-8") as f:
        logs = [simulate_waitk(ref, cfg) for ref in read_annotated_refs(f)]
    out = _out_dir(args)
    out_path = out if args.out and not out.is_dir() else out / "emissions.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        write_log_corpus(logs, f)
    print(f"wrote {len(logs)} emission logs to {out_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    logs = _read_logs(args.logs)
    if not logs:
        print("error: empty corpus", file=sys.stderr)
        return EXIT_SCHEMA
    report = evaluate_corpus(
        logs,
        rs_threshold=args.rs_threshold,
        min_cpl=args.cpl_min,
        max_cpl=args.cpl_max,
        max_row_chars=args.max_row_chars,
        keep_segments=args.per_segment,
    )
    table = render_table(report)
    if args.mode != "all":
        wanted = _MODES[args.mode]
        table = "\n".join(
            row
            for row in table.splitlines()
            if not any(
                row.startswith(m.value) for m in DisplayMode if m is not wanted
            )
        ) + "\n"
    sys.stdout.write(table)
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(write_report(report, args.per_segment), encoding="utf-8")
        print(f"wrote report to {out_path}")
    return EXIT_OK


def cmd_replay(args) -> int:
    # Stream the corpus and stop at the first match: later records are not read.
    with open(args.logs, encoding="utf-8") as f:
        log = next((x for x in read_log_corpus(f) if x.segment_id == args.segment), None)
    if log is None:
        print(f"error: unknown segment id {args.segment!r}", file=sys.stderr)
        return EXIT_SCHEMA
    mode = _MODES[args.mode]
    spec = MODES[mode]
    units = spec.units(log, extract_lines(log.events), args.max_row_chars)
    schedule = close_schedule(spec.schedule(units), log.end_time + log.delay_k)
    prev_onset = None
    for state in schedule.states:
        if args.speed > 0 and prev_onset is not None:
            time.sleep((state.onset - prev_onset) / args.speed)
        prev_onset = state.onset
        print(f"[{state.onset:8.3f}s]")
        for row in state.rows:
            print(f"  | {row}")
    # metric summary for the replayed segment
    al = average_lagging(log)
    delay = display_delay(schedule, log, al)
    stats = rs_stats(spec.rs(units, log.delay_k, log.segment_id), args.rs_threshold)
    print()
    print(f"segment {log.segment_id} ({mode.value} mode)")
    print(f"  AL: {al:.0f} ms   delay: {delay:.0f} ms")
    if stats is not None:
        print(
            f"  rs: {stats.mean:.1f} ± {stats.std_dev:.1f} cps   "
            f"<= {stats.threshold:g} cps: {stats.pct_conforming:.0f}%"
        )
    return EXIT_OK


def cmd_export_srt(args) -> int:
    logs = _read_logs(args.logs)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    for log in logs:
        blocks = extract_blocks(log.events)
        if not blocks:
            print(f"warning: segment {log.segment_id} is empty", file=sys.stderr)
        schedule = close_schedule(
            schedule_block_mode(blocks), log.end_time + log.delay_k
        )
        path = out / f"{log.segment_id}.srt"
        path.write_text(export_srt(schedule), encoding="utf-8")
    print(f"wrote {len(logs)} SRT files to {out}")
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
