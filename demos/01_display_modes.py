"""Walk one hand-built token stream through the three display modes.

Run: python3 demos/01_display_modes.py
"""

from livesubs import (
    close_schedule,
    extract_blocks,
    extract_lines,
    group_word_blocks,
    parse_token_stream,
    schedule_block_mode,
    schedule_line_mode,
    schedule_word_mode,
)

# A segment as a simultaneous decoder would emit it: words plus break
# symbols, each with its emission time in seconds.
raw = [
    ("The", 0.84), ("meeting", 1.12), ("starts", 1.40), ("<eol>", 1.68),
    ("in", 1.96), ("five", 2.24), ("minutes", 2.52), ("<eob>", 2.80),
    ("please", 3.08), ("take", 3.36), ("a", 3.64), ("seat", 3.92),
    ("<eob>", 4.20), ("<eos>", 4.48),
]
events = parse_token_stream(raw)

print("## Structure")
for block in extract_blocks(events):
    print(f"block @{block.block_time:.2f}s:")
    for line in block.lines:
        print(f"  line @{line.break_time:.2f}s: {line.text!r}")

for name, schedule in [
    ("word-for-word", close_schedule(schedule_word_mode(group_word_blocks(events)), 4.48)),
    ("blocks", schedule_block_mode(extract_blocks(events))),
    ("scrolling lines", schedule_line_mode(extract_lines(events))),
]:
    print(f"\n## {name}")
    for state in schedule.states:
        end = f"{state.offset:.2f}" if state.offset is not None else "open"
        print(f"[{state.onset:.2f} -> {end}]")
        for row in state.rows:
            print(f"  | {row}")
