"""Independent brute-force oracles.

Naive, literal implementations of the metric definitions and of the rules on
an emission log's columns, kept deliberately separate from the package:
recursive elapsed-time evaluation, per-word screen accounting, a plain SRT
reader, a per-event rule walk, and corpus statistics pooled in exact
fractions. Tests compare the package against these.
"""

from __future__ import annotations

import math

# fractions is imported where it is used: perfbench loads this module for
# naive_al_ms, and what it imports adds to the resident set that the commands
# it starts report.

BREAKS = {"<eol>", "<eob>", "<eos>"}


_KINDS = {"<eol>": "eol", "<eob>": "eob", "<eos>": "eos"}


def naive_log_fault(segment_id, duration, k, step, surfaces, times, consumed, kinds=None):
    """What EmissionLog(segment_id, duration, k, step, events, consumed)
    raises, as (error class name, text, field), or None when it builds. The
    events are parse_token_stream(zip(surfaces, times)); or, given kinds
    (each "word", "eol", "eob" or "eos"), TokenEvent(surface, kind, time)
    built one by one.

    The rules, first broken first. For each event in turn (field 'events'):
    a time below the one before (parsed events only), an empty surface, a
    word (a surface of kind "word") holding whitespace, a time that is not
    a finite number >= 0, and a kind other than the one its surface reads
    as (any surface but a break symbol reads as a word). Then the id: a
    str, with no lone surrogate (no UTF-8 text holds one). Then the
    duration, k and the step, each in turn: a number out of its range (the
    duration and the step finite and > 0, k finite and >= 1; a duration <= 0
    raises NonPositiveDurationError), then of another type (a number, for k
    an int; a bool is neither), then, but for k, an integer too large for a
    float. Then step * k, a finite float. Then each
    event in turn: a time below the one before (built events only), a time
    that is not a float (an int must fit one; a bool is no number), a word
    with a lone surrogate, <eos> anywhere but last. Last the consumed-source
    list (field 'g'): of another length than the events, then an entry that
    is not a number in [0, duration] or is below the one before.
    """
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def too_large(x):
        try:
            float(x)
        except OverflowError:
            return True
        return False

    def surrogate(text):
        return any("\ud800" <= c <= "\udfff" for c in text)

    built = kinds is not None
    read = [_KINDS.get(s, "word") for s in surfaces]
    previous = None
    for surface, kind, t, read_kind in zip(surfaces, kinds or read, times, read):
        if not built and previous is not None and t < previous:
            return (
                "NonMonotonicTimeError", f"emission time decreases: {t} after {previous}", "events"
            )
        previous = t
        if surface == "":
            return "EmptySurfaceError", "token surface is empty", "events"
        if kind == "word" and any(c.isspace() for c in surface):
            return "StreamError", f"word surface contains whitespace: {surface!r}", "events"
        if not (t >= 0 and t != float("inf")):  # NaN is not >= 0
            return "StreamError", f"emission time must be finite and >= 0, got {t}", "events"
        if kind != read_kind:
            return (
                "StreamError", f"{surface!r} of kind {kind} is read back as kind {read_kind}",
                "events",
            )
    if not isinstance(segment_id, str):
        return "StreamError", f"expected str, got {segment_id!r}", "id"
    if surrogate(segment_id):
        return "StreamError", f"not UTF-8 text: {segment_id!r}", "id"
    for value, field, low, typename in [
        (duration, "duration", 0, "a number"),
        (k, "k", 1, "int"),
        (step, "step", 0, "a number"),
    ]:
        if number(value):
            in_range = value >= 1 if low else value > 0  # NaN is neither
            if not (in_range and value != float("inf")):
                above = ">= 1" if low else "> 0"
                error = "StreamError"
                if field == "duration" and value <= 0:
                    error = "NonPositiveDurationError"
                return error, f"{field} must be finite and {above}, got {value}", field
        if not number(value) or (field == "k" and not isinstance(value, int)):
            return "StreamError", f"expected {typename}, got {value!r}", field
        if field != "k" and too_large(value):  # k is checked as step * k
            return "StreamError", "integer too large for a float", field
    try:
        delay = float(step) * k
    except OverflowError:
        delay = float("inf")
    if not (delay == delay and abs(delay) != float("inf")):
        return "StreamError", "step * k must be a finite number of seconds", "k"
    for i, (surface, t) in enumerate(zip(surfaces, times)):
        if built and i and t < times[i - 1]:
            return (
                "NonMonotonicTimeError",
                f"emission time decreases: {t} after {times[i - 1]}", "events",
            )
        if not isinstance(t, float):
            if not number(t):
                event = {"t": t, "w": surface}
                return "StreamError", f"event {i} needs a number 't', got {event!r}", "events"
            if too_large(t):
                return "StreamError", "integer too large for a float", "events"
        if surrogate(surface):
            return "StreamError", f"event {i}: 'w' is not UTF-8 text: {surface!r}", "events"
        if surface == "<eos>" and i != len(surfaces) - 1:
            return "StreamError", f"segment {segment_id}: <eos> is not the last event", "events"
    if consumed is not None:
        if len(consumed) != len(surfaces):
            return "StreamError", "'g' must match events in length", "g"
        previous = 0
        for j, x in enumerate(consumed):
            if not number(x) or not previous <= x <= float(duration):
                return (
                    "StreamError",
                    f"entry {j} is {x!r}; entries must be numbers in "
                    f"[0, {float(duration)!r}] that never decrease", "g",
                )
            previous = x
    return None


def naive_elapsed_word(times: list[float], i: int, next_start: float | None, delay_k: float) -> float:
    """Recursive display-time of word i in a word group (0-based)."""
    if i == len(times) - 1:
        if next_start is None:
            return delay_k
        return next_start - times[i]
    return times[i + 1] - times[i] + naive_elapsed_word(times, i + 1, next_start, delay_k)


def naive_rs_word(
    words: list[tuple[str, float]], next_start: float | None, delay_k: float
) -> float:
    """Max over words of suffix-text length / recursive elapsed."""
    times = [t for _, t in words]
    best = 0.0
    for i in range(len(words)):
        text = " ".join(w for w, _ in words[i:])
        elapsed = naive_elapsed_word(times, i, next_start, delay_k)
        best = max(best, len(text) / elapsed if elapsed > 0 else float("inf"))
    return best


def naive_block_text(tokens: list[str]) -> str:
    """Literal text construction: breaks contribute the empty string, words
    are joined by single spaces."""
    out = ""
    words = [t for t in tokens if t not in BREAKS]
    for i, w in enumerate(words):
        out += w if i == len(words) - 1 else w + " "
    return out


def naive_rs_blocks(
    blocks: list[tuple[list[str], float]], delay_k: float
) -> list[float]:
    """Per-block rs. blocks: (tokens including inner <eol>, block end time)."""
    out = []
    for b, (tokens, t_b) in enumerate(blocks):
        text = naive_block_text(tokens)
        if not text:
            continue
        elapsed = delay_k if b == len(blocks) - 1 else blocks[b + 1][1] - t_b
        out.append(len(text) / elapsed if elapsed > 0 else float("inf"))
    return out


def naive_rs_lines(
    lines: list[tuple[list[str], float]], delay_k: float
) -> list[float]:
    """Per-line rs: a line's slot spans the next two line completions."""
    out = []
    last = len(lines) - 1
    for l, (tokens, t_l) in enumerate(lines):
        text = naive_block_text(tokens)
        if not text:
            continue
        if l == last:
            elapsed = delay_k
        elif l == last - 1:
            elapsed = (lines[l + 1][1] - t_l) + delay_k
        else:
            elapsed = lines[l + 2][1] - t_l
        out.append(len(text) / elapsed if elapsed > 0 else float("inf"))
    return out


def naive_blocks(tokens: list[tuple[str, float]]) -> list:
    """Literal block splitter over raw (surface, time) tokens.

    Walks the tokens once: words collect into the current line, <eol> closes
    the line, <eob> closes the line and the block, <eos> is skipped. Words
    left at the end close an implicit line at the last token's time, and
    lines left at the end an implicit block at the last such line's time.
    Returns [(lines, block_time, terminator)] with lines as
    [(words, break_time, terminator)], words as [(surface, time)] and
    terminators as "eol", "eob" or "implicit".
    """
    blocks: list = []
    lines: list = []
    words: list = []
    for surface, t in tokens:
        if surface == "<eos>":
            continue
        if surface in ("<eol>", "<eob>"):
            lines.append((words, t, surface[1:-1]))
            words = []
            if surface == "<eob>":
                blocks.append((lines, t, "eob"))
                lines = []
        else:
            words.append((surface, t))
    if words:
        lines.append((words, tokens[-1][1], "implicit"))
    if lines:
        blocks.append((lines, lines[-1][1], "implicit"))
    return blocks


def naive_rows(words: list[tuple[str, float]], max_chars: int) -> list:
    """Word-for-word rows over [(surface, time)] words: each word joins the
    row before it when the row's text, words joined by single spaces, still
    has at most max_chars characters, and starts a new row otherwise (a word
    longer than max_chars fills a row alone)."""
    rows: list = []
    for word in words:
        if rows and len(" ".join(w for w, _ in rows[-1] + [word])) <= max_chars:
            rows[-1].append(word)
        else:
            rows.append([word])
    return rows


def naive_segment_figures(
    tokens: list[tuple[str, float]], duration: float, delay_k: float,
    max_row_chars: int = 84, min_cpl: int = 6, max_cpl: int = 42,
) -> dict:
    """Every number evaluate_log gives for one segment of raw (surface,
    time) tokens with no recorded consumed source, from the oracles above:
    each mode's speeds (cps, keyed "word", "block", "line"), the block count,
    the count of blocks whose lines all hold min_cpl..max_cpl characters,
    AL and each mode's delay (ms)."""
    blocks = naive_blocks(tokens)
    lines = [line for block_lines, _, _ in blocks for line in block_lines]
    words = [(s, t) for s, t in tokens if s not in BREAKS]
    rows = naive_rows(words, max_row_chars)
    cps = {
        "word": [
            naive_rs_word(row, rows[i + 1][0][1] if i + 1 < len(rows) else None, delay_k)
            for i, row in enumerate(rows)
        ],
        "block": naive_rs_blocks(
            [([w for line in block_lines for w, _ in line[0]], t) for block_lines, t, _ in blocks],
            delay_k,
        ),
        "line": naive_rs_lines(
            [([w for w, _ in line_words], t) for line_words, t, _ in lines], delay_k
        ),
    }
    conforming = sum(
        1 for block_lines, _, _ in blocks
        if all(min_cpl <= len(" ".join(w for w, _ in line[0])) <= max_cpl for line in block_lines)
    )
    al = naive_al_ms([min(t, duration) for _, t in words], duration)
    emitted = [t for _, t in words]
    delays = {
        mode: naive_delay_ms(emitted, naive_display_times(tokens, mode), al)
        for mode in ("word", "block", "line")
    }
    return {
        "cps": cps, "n_blocks": len(blocks), "n_conforming": conforming,
        "al_ms": al, "delay_ms": delays,
    }


def _rounded_sqrt(q) -> float:
    """The square root of q >= 0, rounded once to the nearest float: the
    integer root of q scaled to 70 bits or more, with a sticky half bit when
    it is not exact, so that no rounding boundary falls in between."""
    from fractions import Fraction

    n, d = q.numerator, q.denominator
    e = max(0, 70 - (n.bit_length() - d.bit_length()) // 2)
    scaled = n << 2 * e
    r = math.isqrt(scaled // d)
    if scaled % d == 0 and r * r == scaled // d:
        return float(Fraction(r, 1 << e))
    return float(Fraction(2 * r + 1, 1 << e + 1))


def naive_corpus_report(segments: list[dict], threshold: float) -> dict:
    """The pooled figures of a corpus of naive_segment_figures results:
    each mode's speeds pooled over segments (mean and population std of the
    finite ones, % at most threshold of all, counts; None when none is
    finite), the means over segments of AL and of each mode's delay, and
    the % of blocks that conform. Sums are exact fractions, rounded once."""
    from fractions import Fraction

    modes = {}
    for mode in ("word", "block", "line"):
        values = [v for seg in segments for v in seg["cps"][mode]]
        finite = [Fraction(v) for v in values if v != float("inf")]
        if not finite:
            modes[mode] = None
            continue
        mean = sum(finite) / len(finite)
        conforming = sum(1 for v in values if v <= threshold)
        modes[mode] = {
            "mean": float(mean),
            "std": _rounded_sqrt(sum((v - mean) ** 2 for v in finite) / len(finite)),
            "pct_conforming": float(Fraction(100 * conforming, len(values))),
            "n_samples": len(values),
            "n_finite": len(finite),
        }
    n_blocks = sum(seg["n_blocks"] for seg in segments)
    n_conforming = sum(seg["n_conforming"] for seg in segments)
    length_pct = float(Fraction(100 * n_conforming, n_blocks)) if n_blocks else None
    return {
        "n_segments": len(segments),
        "al_ms": float(sum(Fraction(seg["al_ms"]) for seg in segments) / len(segments)),
        "delay_ms": {
            mode: float(sum(Fraction(seg["delay_ms"][mode]) for seg in segments) / len(segments))
            for mode in ("word", "block", "line")
        },
        "modes": modes,
        "length_conformity_pct": length_pct,
    }


def naive_al_ms(g: list[float], duration: float) -> float:
    """Average Lagging in ms over per-word consumed-source times."""
    n = len(g)
    tau = n
    for i in range(n):
        if g[i] >= duration:
            tau = i + 1
            break
    total = 0.0
    for i in range(tau):
        total += g[i] - i * duration / n
    return 1000.0 * total / tau


def naive_delay_ms(
    word_emit: list[float], word_display: list[float], al_ms: float
) -> float:
    """Display delay: AL plus the mean per-word display lag."""
    lags = [d - e for d, e in zip(word_display, word_emit)]
    return al_ms + 1000.0 * sum(lags) / len(lags)


def naive_display_times(tokens: list[tuple[str, float]], mode: str) -> list[float]:
    """First time each word, in order, is on screen. word: when emitted.
    line: at the next <eol> or <eob>. block: at the next <eob>. A word with
    no such break after it is in the trailing unit: a line closes at the
    last token; a block when its last line closes, which is the last <eol>
    unless a word follows it."""
    symbols = ("<eol>", "<eob>", "<eos>")
    closing = {"word": (), "line": ("<eol>", "<eob>"), "block": ("<eob>",)}[mode]
    last_break = max(
        (j for j, (s, _) in enumerate(tokens) if s in ("<eol>", "<eob>")), default=-1
    )
    words_after_last_break = any(s not in symbols for s, _ in tokens[last_break + 1:])
    times = []
    for i, (surface, t) in enumerate(tokens):
        if surface in symbols:
            continue
        later = [u for s, u in tokens[i + 1:] if s in closing]
        if mode == "word":
            times.append(t)
        elif later:
            times.append(later[0])
        elif mode == "line" or words_after_last_break:
            times.append(tokens[-1][1])
        else:
            times.append(tokens[last_break][1])
    return times


def parse_srt(text: str) -> list[tuple[float, float, tuple[str, ...]]]:
    """Plain SRT reader: (start, end, rows) per cue."""

    def to_seconds(stamp: str) -> float:
        hms, ms = stamp.split(",")
        h, m, s = hms.split(":")
        return int(h) * 3600 + int(m) * 60 + int(s) + int(ms) / 1000.0

    cues = []
    for chunk in text.strip().split("\n\n"):
        if not chunk.strip():
            continue
        lines = chunk.splitlines()
        start, end = (to_seconds(p.strip()) for p in lines[1].split("-->"))
        cues.append((start, end, tuple(lines[2:])))
    return cues
