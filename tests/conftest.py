"""Shared fixtures: deterministic synthetic reference corpora (see corpora.py)."""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import pytest

_TESTS = str(Path(__file__).resolve().parent)
if _TESTS not in sys.path:  # loaded by file path, as perfbench loads it
    sys.path.insert(0, _TESTS)

from corpora import STEP, make_refs, simulate_corpus  # noqa: E402,F401  (re-exported)


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
