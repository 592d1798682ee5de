"""Synthetic wait-k emission simulator.

Turns break-annotated reference text plus an audio duration into a timed
emission log under the fixed wait-k policy: the decoder reads k fixed-size
audio steps, then alternates one READ with one WRITE. Once the source is
exhausted it flushes all remaining tokens greedily. This makes the whole
evaluation pipeline runnable without a trained translation model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EmissionLog, StreamError, parse_token_stream

__all__ = ["WaitKConfig", "AnnotatedReference", "simulate_waitk"]


@dataclass(frozen=True)
class WaitKConfig:
    """Wait-k policy parameters.

    compute_latency models the per-token generation cost of a real system
    (the default 0 gives the theoretical lower bound). With flush_at_end the
    remaining tokens are emitted in a burst once the source is consumed;
    without it the decoder keeps its read/write pace past the segment end.
    """

    k: int
    step_size: float = 0.280
    compute_latency: float = 0.0
    flush_at_end: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.k < math.inf:
            raise ValueError(f"k must be finite and >= 1, got {self.k}")
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if not 0 <= self.compute_latency < math.inf:
            raise ValueError(
                f"compute_latency must be finite and >= 0, got {self.compute_latency}"
            )


@dataclass(frozen=True)
class AnnotatedReference:
    """Reference token sequence (with inline break symbols) and its audio
    duration in seconds."""

    segment_id: str
    tokens: tuple[str, ...]
    duration: float

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise StreamError(
                f"segment {self.segment_id}: duration must be finite and > 0"
            )
        if not self.tokens:
            raise StreamError(f"segment {self.segment_id}: no tokens")


def simulate_waitk(ref: AnnotatedReference, cfg: WaitKConfig) -> EmissionLog:
    """Emit ref's tokens under the wait-k policy.

    Token i (1-based) consumes g(i) = min(D, (k + i - 1) * step) seconds of
    source and is emitted at g(i) + i * compute_latency. After the source is
    exhausted, tokens keep g = D and are spaced by compute_latency alone
    (the greedy flush). Break tokens consume a policy step like words: the
    decoder generates them as ordinary vocabulary items.
    """
    d = ref.duration
    raw: list[tuple[str, float]] = []
    consumed: list[float] = []
    for i, surface in enumerate(ref.tokens, start=1):
        pace = (cfg.k + i - 1) * cfg.step_size
        g = min(d, pace)
        t = (g if cfg.flush_at_end else pace) + i * cfg.compute_latency
        raw.append((surface, t))
        consumed.append(g)
    return EmissionLog(
        segment_id=ref.segment_id,
        source_duration=d,
        wait_k=cfg.k,
        step_size=cfg.step_size,
        events=parse_token_stream(raw),
        consumed_source=tuple(consumed),
    )
