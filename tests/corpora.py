"""Deterministic synthetic reference corpora, importable without pytest.

conftest.py re-exports these names for the tests; perfbench builds its
paper-1250 workload with make_refs.
"""

from __future__ import annotations

import random
import string

from livesubs import AnnotatedReference, WaitKConfig, simulate_waitk

STEP = 0.280


def make_refs(n: int, seed: int = 0, flush_fraction: float = 0.2):
    """Random break-annotated references with plausible subtitle shape.

    Most segments are long enough that a wait-5 decoder never exhausts the
    source; flush_fraction of them are short, forcing the end-of-source burst.
    """
    rng = random.Random(seed)
    refs = []
    for i in range(n):
        tokens: list[str] = []
        for _ in range(rng.randint(2, 6)):
            n_lines = rng.randint(1, 2)
            for line in range(n_lines):
                for _ in range(rng.randint(2, 6)):
                    length = rng.randint(2, 9)
                    tokens.append(
                        "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
                    )
                if line < n_lines - 1:
                    tokens.append("<eol>")
            tokens.append("<eob>")
        tokens.append("<eos>")
        if rng.random() < flush_fraction:
            duration = max(1.0, STEP * len(tokens) * rng.uniform(0.3, 0.8))
        else:
            duration = STEP * (len(tokens) + 8) * rng.uniform(1.0, 1.3)
        refs.append(AnnotatedReference(f"seg{i:05d}", tuple(tokens), round(duration, 3)))
    return refs


def simulate_corpus(refs, k: int, **cfg_kwargs):
    cfg = WaitKConfig(k=k, step_size=STEP, **cfg_kwargs)
    return [simulate_waitk(ref, cfg) for ref in refs]
