"""Output checks: digests of every pipeline output and the AL oracle.

The report digest covers only the keys the report has today (REPORT_KEYS),
so keys added later do not change it while a changed value does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import K, STEP

_MODE_KEYS = {"delay_ms": None, "rs_mean": None, "rs_std": None, "pct_conforming": None, "n_samples": None}
REPORT_KEYS = {
    "segments": None,
    "al_ms": None,
    "rs_threshold_cps": None,
    "cpl_bounds": None,
    "length_conformity_pct": None,
    "modes": {"word": _MODE_KEYS, "block": _MODE_KEYS, "line": _MODE_KEYS},
    "per_segment": [{"id": None, "al_ms": None, "delay_ms": {"word": None, "block": None, "line": None}}],
}
AL_TOLERANCE_MS = 1e-6


def project(doc, keys):
    """doc restricted to the key tree `keys` (None: keep the value whole).
    A missing key raises KeyError."""
    if keys is None:
        return doc
    if isinstance(keys, list):
        return [project(item, keys[0]) for item in doc]
    return {k: project(doc[k], sub) for k, sub in keys.items()}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def report_digest(path: Path) -> str:
    doc = json.loads(path.read_text(encoding="utf-8"))
    canonical = json.dumps(project(doc, REPORT_KEYS), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def srt_digest(srt_dir: Path, segment_ids: list[str]) -> str:
    """sha256 of the SRT files concatenated in id order; every segment must
    have exactly one file and there must be no other file."""
    names = sorted(p.name for p in srt_dir.iterdir())
    expected = sorted(f"{seg}.srt" for seg in segment_ids)
    if names != expected:
        raise ValueError(f"{len(names)} files in {srt_dir.name}, expected {len(expected)}")
    h = hashlib.sha256()
    for name in expected:
        h.update((srt_dir / name).read_bytes())
    return h.hexdigest()


def al_oracle_errors(report_path: Path, refs, naive_al_ms) -> list[str]:
    """Compare every per-segment AL in the report with the brute-force oracle,
    fed the consumed-source times the wait-k policy implies for each word."""
    per_segment = json.loads(report_path.read_text(encoding="utf-8"))["per_segment"]
    if len(per_segment) != len(refs):
        return [f"{len(per_segment)} per-segment entries for {len(refs)} segments"]
    errors = []
    breaks = ("<eol>", "<eob>", "<eos>")
    for entry, ref in zip(per_segment, refs):
        d = ref.duration
        g = [
            min(d, (K + i - 1) * STEP)
            for i, tok in enumerate(ref.tokens, start=1)
            if tok not in breaks
        ]
        expected = naive_al_ms(g, d)
        if entry["id"] != ref.segment_id or abs(entry["al_ms"] - expected) > AL_TOLERANCE_MS:
            errors.append(f"{entry['id']}: al_ms {entry['al_ms']!r}, oracle {expected!r}")
    return errors
