"""Shared fixtures: deterministic synthetic reference corpora."""

from __future__ import annotations

import random
import string
import warnings

import pytest

from livesubs import AnnotatedReference, WaitKConfig, simulate_waitk

STEP = 0.280


def pytest_configure(config):
    """When a property fails, hypothesis's pytest plugin imports
    hypothesis.extra._patching to write an @example patch. With libcst
    installed, that import can raise a DeprecationWarning from a dependency
    (mypy_extensions.TypedDict), which filterwarnings = error turns into an
    INTERNALERROR that hides the falsifying example and stops the run. So
    import it once here, with that warning ignored. (A hook, not a
    module-level import: perfbench loads this module for make_refs, and the
    import would add to the RSS of every command it starts.)"""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # no libcst: the plugin writes no patch
            pass


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid:
                name = nodeid.split("::")[-1]
                terminalreporter.write_line(
                    f"acceptance {outcome.upper():<6} {name}"
                )


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


@pytest.fixture(scope="session")
def refs_500():
    return make_refs(500, seed=7)


@pytest.fixture(scope="session")
def logs_wait3(refs_500):
    return simulate_corpus(refs_500, k=3)


@pytest.fixture(scope="session")
def logs_wait5(refs_500):
    return simulate_corpus(refs_500, k=5)


@pytest.fixture(scope="session")
def refs_10k():
    return make_refs(10_000, seed=11)


@pytest.fixture(scope="session")
def logs_10k(refs_10k):
    return simulate_corpus(refs_10k, k=3)
