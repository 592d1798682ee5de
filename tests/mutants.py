"""Mutation check of the column checker's fast pass and of the field checkers.

core._check_columns accepts a record's columns in one pass and builds the
log through the constructors, to raise their error, only when that pass
fails. A clause missing from the pass lets a bad record through with no
error at all, so each clause must be one that some test needs. The field
checkers (core._check_positive for the duration and the step, _check_k,
and the length test of _check_consumed) each open with a fast clause that
returns at once and then test the range before the type; every site that
keeps a field's rule calls them, so a slip in one is a slip everywhere.
Each mutant below deletes or shifts one clause of either. The runner
applies it to a temporary copy of src/, runs the named test file against
that copy under a fixed hypothesis seed, and requires the run to fail.

    python tests/mutants.py

It exits 1 if any mutant survives, if a snippet no longer occurs exactly
once in its file (the fast pass changed: update the list), or if a named
test file fails on the unmutated copy. It needs pytest and hypothesis, and
imports neither; its name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
CORE = "src/livesubs/core.py"
FORMATS = "tests/test_formats.py"
CLI = "tests/test_cli.py"

# (file, exact snippet, replacement, test file): one clause each.
MUTANTS = [
    (CORE, "type(segment_id) is str and (segment_id.isascii()", "(segment_id.isascii()", FORMATS),
    (CORE, "and (segment_id.isascii() or _utf8(segment_id))", "", FORMATS),
    (CORE, "type(source_duration) is float and 0 < source_duration", "0 < source_duration",
     FORMATS),
    (CORE, "and 0 < source_duration < math.inf", "", FORMATS),
    (CORE, "type(wait_k) is int and wait_k >= 1", "wait_k >= 1", FORMATS),
    (CORE, "and wait_k >= 1", "", FORMATS),
    (CORE, "type(step_size) is float and 0 < step_size", "0 < step_size", FORMATS),
    (CORE, "type(step_size) is float and 0 < step_size < math.inf",
     "type(step_size) is float", FORMATS),
    (CORE, "and finite_delay_k(wait_k, step_size)", "", FORMATS),
    (CORE, "and _rising(times, _FLOAT_MAX)", "", FORMATS),
    (CORE, "or len(consumed_source) == len(times) and _rising(",
     "or _rising(", FORMATS),
    (CORE, "and _rising(consumed_source, source_duration)", "", FORMATS),
    (CORE, '("" not in surfaces and _unbroken(text)', "(_unbroken(text)", FORMATS),
    (CORE, "and _unbroken(text) and", "and", FORMATS),
    (CORE, "and (text.isascii() or _utf8(text))", "", FORMATS),
    (CORE, "and EOS_SURFACE not in surfaces[:-1]", "", FORMATS),
    # core._check_positive, the duration's and the step's rule: fast clause, range, class.
    (CORE, "if type(value) is float and 0 < value", "if 0 < value", FORMATS),
    (CORE, "is float and 0 < value < math.inf:", "is float and 0 <= value < math.inf:", FORMATS),
    (CORE, "is float and 0 < value < math.inf:", "is float and 0 < value:", FORMATS),
    (CORE, "if _is_number(value) and not 0 < value", "if not 0 < value", FORMATS),
    (CORE, "and not 0 < value < math.inf:", "and not 0 <= value < math.inf:", FORMATS),
    (CORE, "and not 0 < value < math.inf:", "and not 0 < value:", FORMATS),
    (CORE, "if value <= 0 and field", "if value < 0 and field", FORMATS),
    (CORE, ' and field == "duration" else', " else", FORMATS),
    # core._check_k: fast clause and range.
    (CORE, "if type(value) is int and value >= 1", "if value >= 1", FORMATS),
    (CORE, "is int and value >= 1:", "is int and value >= 0:", FORMATS),
    (CORE, "if _is_number(value) and not 1 <= value", "if not 1 <= value", FORMATS),
    (CORE, "and not 1 <= value < math.inf:", "and not 0 <= value < math.inf:", FORMATS),
    (CORE, "and not 1 <= value < math.inf:", "and not 1 <= value:", FORMATS),
    # core._check_consumed: the length of g.
    (CORE, "if n < 0 or len(consumed) != n:", "if len(consumed) != n:", CLI),
    (CORE, "len(consumed) != n:", "len(consumed) < n:", FORMATS),
]


def passes(src: Path, test_file: str, home: Path) -> bool:
    """Whether test_file passes against the package in src. home is the
    working directory, where hypothesis keeps its example database."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        f"--hypothesis-seed={SEED}", str(ROOT / test_file),
    ]
    done = subprocess.run(cmd, cwd=home, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for test_file in sorted({test for *_, test in MUTANTS}):
            if not passes(work / "src", test_file, work):
                print(f"FAILS UNMUTATED  {test_file}")
                return 1
        for path, snippet, replacement, test_file in MUTANTS:
            target = work / path
            original = target.read_text(encoding="utf-8")
            where = f"{path}: {snippet!r} -> {replacement!r} ({test_file})"
            if original.count(snippet) != 1:
                print(f"NO SINGLE MATCH  {where}")
                failures += 1
                continue
            target.write_text(original.replace(snippet, replacement), encoding="utf-8")
            start = time.perf_counter()
            try:
                survived = passes(work / "src", test_file, work)
            finally:
                target.write_text(original, encoding="utf-8")
            seconds = time.perf_counter() - start
            print(f"{'SURVIVED' if survived else 'killed'}  {seconds:4.1f} s  {where}")
            failures += survived
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
