"""Benchmark corpora: two reference-corpus shapes of similar token volume.

Both workloads hold roughly 32k-40k tokens, so what changes between them is
the shape of the corpus (segment count and length, share of tokens flushed
at the end of the source), not its volume. livesubs only ever sees the TSV
written from these references.

The volume is an eighth of the 10k-segment acceptance corpus: on a small
shared machine one pipeline pass over the full corpus varies by 20-40% from
pass to pass, so a run needs many short passes for a steady median. The
paper-1250 corpus is exactly the first 1,250 segments of the acceptance
corpus make_refs(10_000, seed=11).
"""

from __future__ import annotations

import importlib.util
import random
import statistics
import string
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

STEP = 0.280  # the CLI's default --step-ms, in seconds
K = 3
DEFAULT_SEED = 11


def load_module(name: str, path: Path):
    """Import a file by path under a private module name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 9)))


def bursts_refs(seed: int, n: int = 5_000):
    """Tiny segments of 1-2 blocks with at most 4 words each and audio too
    short for the wait-k pace, so most tokens are flushed in one burst."""
    from livesubs import AnnotatedReference

    rng = random.Random(f"bursts:{seed}")
    refs = []
    for i in range(n):
        tokens: list[str] = []
        for _ in range(rng.randint(1, 2)):
            words = [_word(rng) for _ in range(rng.randint(1, 4))]
            if len(words) >= 2 and rng.random() < 0.2:
                cut = rng.randint(1, len(words) - 1)
                words[cut:cut] = ["<eol>"]
            tokens.extend(words)
            tokens.append("<eob>")
        tokens.append("<eos>")
        duration = STEP * len(tokens) * rng.uniform(0.1, 0.6)
        refs.append(AnnotatedReference(f"burst{i:05d}", tuple(tokens), round(duration, 3)))
    return refs


@dataclass(frozen=True)
class Shape:
    segments: int
    tokens: int
    median_tokens: float
    flushed_tokens: int


def flushed(ref) -> int:
    """Tokens the wait-k simulator emits with g = D (its end-of-source flush)."""
    d = ref.duration
    return sum(1 for i in range(1, len(ref.tokens) + 1) if min(d, (K + i - 1) * STEP) >= d)


def shape_of(refs) -> Shape:
    lengths = [len(r.tokens) for r in refs]
    return Shape(
        segments=len(refs),
        tokens=sum(lengths),
        median_tokens=statistics.median(lengths),
        flushed_tokens=sum(flushed(r) for r in refs),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # (seed, tests_dir) -> list[AnnotatedReference]
    segments: int
    tokens: tuple[int, int]  # accepted token-count range for any seed
    median_tokens: tuple[float, float]
    flushed_share: tuple[float, float]
    default_tokens: int  # exact token count at DEFAULT_SEED

    def check_shape(self, shape: Shape, seed: int) -> list[str]:
        """Why the generated corpus is not this workload's shape (empty if it is)."""
        problems = []
        if shape.segments != self.segments:
            problems.append(f"{shape.segments} segments, expected {self.segments}")
        if seed == DEFAULT_SEED and shape.tokens != self.default_tokens:
            problems.append(f"{shape.tokens} tokens, expected {self.default_tokens}")
        if not self.tokens[0] <= shape.tokens <= self.tokens[1]:
            problems.append(f"{shape.tokens} tokens, outside {self.tokens}")
        if not self.median_tokens[0] <= shape.median_tokens <= self.median_tokens[1]:
            problems.append(
                f"median {shape.median_tokens} tokens/segment, outside {self.median_tokens}"
            )
        share = shape.flushed_tokens / shape.tokens
        if not self.flushed_share[0] <= share <= self.flushed_share[1]:
            problems.append(f"flushed share {share:.3f}, outside {self.flushed_share}")
        return problems


def _paper(seed: int, tests_dir: Path):
    conftest = load_module("perfbench_conftest", tests_dir / "conftest.py")
    return conftest.make_refs(1_250, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-1250", _paper, 1_250, (36_000, 41_000), (28, 33), (0.07, 0.15), 38_898
        ),
        Workload(
            "bursts-5k", lambda s, _: bursts_refs(s), 5_000, (31_000, 34_000), (5, 7),
            (0.90, 0.96), 32_332,
        ),
    )
}
