"""Every reported number against the independent oracles.

Per segment: each mode's reading-speed samples and the conforming-block
count of evaluate_log equal the literal definitions in oracles.py. Per
corpus: CorpusTally's pooled figures equal naive_corpus_report, which pools
the oracles' per-segment values in exact fractions and rounds once. Counts
and percentages are compared exactly; the rest within the tolerances below.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from livesubs import DisplayMode, EmissionLog, evaluate_log, parse_token_stream
from livesubs.report import CorpusTally

from oracles import BREAKS, naive_corpus_report, naive_segment_figures
from test_modes import streams

# A speed is a float quotient of the same operands on both sides, so 1e-9
# leaves room for a different order of additions in an interval.
SPEED_REL = 1e-9
# The pooled mean and std of speeds: fmean rounds its sum and its quotient,
# the oracle once, and the std of both is the exact one rounded once.
POOLED_REL = 1e-12
# AL and delays (ms): the oracles sum left to right, the package with fsum;
# abs 1e-6 ms as the per-segment delay check of test_modes.
MS_REL, MS_ABS = 1e-9, 1e-6


def assert_speeds_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if e == math.inf:
            assert g == math.inf
        else:
            assert math.isclose(g, e, rel_tol=SPEED_REL), (g, e)


def has_words(raw):
    return any(s not in BREAKS for s, _ in raw)


@given(
    streams(), st.sampled_from([10, 84]), st.integers(1, 5), st.floats(0.5, 20.0),
    st.integers(0, 8), st.sampled_from([10, 42]),
)
def test_segment_numbers_equal_the_oracles(raw, max_row_chars, k, duration, min_cpl, max_cpl):
    assume(has_words(raw))
    log = EmissionLog("seg", duration, k, events=parse_token_stream(raw))
    metrics = evaluate_log(log, min_cpl, max_cpl, max_row_chars)
    expected = naive_segment_figures(raw, duration, log.delay_k, max_row_chars, min_cpl, max_cpl)
    for mode in DisplayMode:
        got = [s.cps for s in metrics.rs_samples[mode]]
        assert_speeds_equal(got, expected["cps"][mode.value])
    assert metrics.n_blocks == expected["n_blocks"]
    assert metrics.n_conforming_blocks == expected["n_conforming"]


@st.composite
def corpora(draw):
    """1-6 segments, each a stream with a word, its wait-k and duration."""
    segments = draw(st.lists(
        st.tuples(streams().filter(has_words), st.integers(1, 5), st.floats(0.5, 20.0)),
        min_size=1, max_size=6,
    ))
    return [(f"s{i}", raw, k, duration) for i, (raw, k, duration) in enumerate(segments)]


@settings(deadline=None)
@given(
    corpora(), st.sampled_from([10, 84]), st.sampled_from([5.0, 21.0, 60.0]),
    st.integers(0, 8), st.sampled_from([10, 42]),
)
def test_pooled_figures_equal_the_exact_oracle(corpus, max_row_chars, threshold, min_cpl, max_cpl):
    tally = CorpusTally()
    figures = []
    for seg_id, raw, k, duration in corpus:
        log = EmissionLog(seg_id, duration, k, events=parse_token_stream(raw))
        tally.add(evaluate_log(log, min_cpl, max_cpl, max_row_chars))
        figures.append(
            naive_segment_figures(raw, duration, log.delay_k, max_row_chars, min_cpl, max_cpl)
        )
    report = tally.report(threshold, min_cpl, max_cpl)
    expected = naive_corpus_report(figures, threshold)

    assert report.n_segments == expected["n_segments"]
    assert report.length_conformity_pct == expected["length_conformity_pct"]
    assert math.isclose(report.average_lagging, expected["al_ms"], rel_tol=MS_REL, abs_tol=MS_ABS)
    for mode in DisplayMode:
        assert math.isclose(
            report.delay_by_mode[mode], expected["delay_ms"][mode.value],
            rel_tol=MS_REL, abs_tol=MS_ABS,
        )
        stats, oracle = report.rs_by_mode[mode], expected["modes"][mode.value]
        if oracle is None:
            assert stats is None
            continue
        assert (stats.n_samples, stats.n_finite) == (oracle["n_samples"], oracle["n_finite"])
        assert stats.pct_conforming == oracle["pct_conforming"]
        assert math.isclose(stats.mean, oracle["mean"], rel_tol=POOLED_REL)
        assert math.isclose(stats.std_dev, oracle["std"], rel_tol=POOLED_REL)
