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

from .core import (
    EmissionLog,
    _as_float,
    _built_log,
    _check_columns,
    _check_delay_k,
    _check_ref,
    _is_number,
    _typed,
)

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
        """Refuse a policy whose log no corpus holds (k an int, step a number,
        neither a bool, step * k finite) or whose times overflow a float
        (the compute latency a number a float holds)."""
        k, step = self.k, self.step_size
        if _is_number(k) and not 1 <= k < math.inf:
            raise ValueError(f"k must be finite and >= 1, got {k}")
        _typed(k, (int,), "k")
        if _is_number(step) and not 0 < step < math.inf:
            raise ValueError(f"step_size must be finite and > 0, got {step}")
        _as_float(step, "step")
        if not 0 <= self.compute_latency < math.inf:
            raise ValueError(
                f"compute_latency must be finite and >= 0, got {self.compute_latency}"
            )
        _as_float(self.compute_latency, "compute_latency")
        _check_delay_k(k, step)


@dataclass(frozen=True)
class AnnotatedReference:
    """Reference token sequence (with inline break symbols) and its audio
    duration in seconds.

    A reference holds only what a reference line holds, so
    write_annotated_refs writes every reference as a line that
    read_annotated_refs reads back as it (an int duration as a float). A
    refused value raises StreamError naming its field (``id``,
    ``duration``, ``tokens``).
    """

    segment_id: str
    tokens: tuple[str, ...]
    duration: float

    def __post_init__(self) -> None:
        _check_ref(self.segment_id, self.tokens, self.duration)


def simulate_waitk(ref: AnnotatedReference, cfg: WaitKConfig) -> EmissionLog:
    """Emit ref's tokens under the wait-k policy.

    Token i (1-based) consumes g(i) = min(D, (k + i - 1) * step) seconds of
    source and is emitted at g(i) + i * compute_latency. After the source is
    exhausted, tokens keep g = D and are spaced by compute_latency alone
    (the greedy flush). Break tokens consume a policy step like words: the
    decoder generates them as ordinary vocabulary items. A reference's id,
    duration and tokens are always a log's, so it raises the constructors'
    StreamError for two references alone: one with <eos> before its last
    token, and one whose emission times overflow a float under cfg.
    """
    *columns, consumed = _emission_columns(ref.segment_id, ref.tokens, ref.duration, cfg)
    return _built_log(*columns, tuple(consumed))


def _emission_columns(segment_id: str, tokens: tuple, d: float, cfg: WaitKConfig) -> tuple:
    """(id, duration, k, step, tokens, emission times, consumed source) of
    simulate_waitk's log of the reference (segment_id, tokens, d), once
    _check_columns has passed them: what the constructors would raise is
    raised. With no compute latency t + i * 0.0 is t, so the times are the
    paces, or with the flush the consumed-source list itself. k and the
    latency are taken as floats, which they fit (WaitKConfig), so that no
    sum or product of them overflows an int's conversion."""
    k, step, latency = float(cfg.k), cfg.step_size, float(cfg.compute_latency)
    paces = [(k + i) * step for i in range(len(tokens))]
    consumed = [pace if pace < d else d for pace in paces]  # min(d, pace)
    times = consumed if cfg.flush_at_end else paces
    if latency:
        times = [t + i * latency for i, t in enumerate(times, start=1)]
    columns = (segment_id, d, cfg.k, step, tokens, times, consumed)
    _check_columns(*columns)
    return columns
