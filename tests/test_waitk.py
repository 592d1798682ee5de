import pytest
from hypothesis import given
from hypothesis import strategies as st

from livesubs import (
    AnnotatedReference,
    StreamError,
    WaitKConfig,
    average_lagging,
    simulate_waitk,
)

from conftest import make_refs, simulate_corpus
from oracles import naive_al_ms


def ref(tokens, duration=10.0, seg="s1"):
    return AnnotatedReference(seg, tuple(tokens), duration)


def test_reference_without_tokens_rejected():
    with pytest.raises(StreamError, match=r"^segment s: no tokens$"):
        AnnotatedReference("s", (), 1.0)


def test_first_emissions():
    log = simulate_waitk(ref(["a", "b", "c"]), WaitKConfig(k=3))
    assert [e.emit_time for e in log.events] == pytest.approx([0.84, 1.12, 1.40])
    assert log.consumed_source == pytest.approx((0.84, 1.12, 1.40))


def test_flush_on_source_exhaustion():
    tokens = [f"w{i}" for i in range(10)]
    log = simulate_waitk(ref(tokens, duration=1.0), WaitKConfig(k=3))
    assert log.events[0].emit_time == pytest.approx(0.84)
    assert all(e.emit_time == 1.0 for e in log.events[1:])
    assert all(g == 1.0 for g in log.consumed_source[1:])


def test_smallest_case():
    log = simulate_waitk(ref(["hi"], duration=0.5), WaitKConfig(k=1))
    assert log.events[0].emit_time == pytest.approx(0.28)


def test_t1_exact_when_source_long_enough():
    for k in (1, 3, 5):
        log = simulate_waitk(ref(["a", "b"], duration=10.0), WaitKConfig(k=k))
        assert log.events[0].emit_time == k * 0.280  # exact


def test_compute_latency_shifts_times():
    log = simulate_waitk(ref(["a", "b"]), WaitKConfig(k=3, compute_latency=0.1))
    assert log.events[0].emit_time == pytest.approx(0.84 + 0.1)
    assert log.events[1].emit_time == pytest.approx(1.12 + 0.2)


def test_flush_spacing_is_compute_latency():
    tokens = [f"w{i}" for i in range(5)]
    log = simulate_waitk(ref(tokens, duration=1.0), WaitKConfig(k=3, compute_latency=0.05))
    late = [e.emit_time for e in log.events if e.emit_time > 1.0]
    gaps = [b - a for a, b in zip(late, late[1:])]
    assert gaps == pytest.approx([0.05] * len(gaps))


def test_no_flush_keeps_pace():
    tokens = [f"w{i}" for i in range(5)]
    log = simulate_waitk(ref(tokens, duration=1.0), WaitKConfig(k=3, flush_at_end=False))
    gaps = [
        b.emit_time - a.emit_time for a, b in zip(log.events, log.events[1:])
    ]
    assert gaps == pytest.approx([0.28] * 4)
    assert all(g <= 1.0 for g in log.consumed_source)


def test_breaks_consume_steps():
    log = simulate_waitk(ref(["a", "<eob>", "b"]), WaitKConfig(k=3))
    assert log.events[2].emit_time == pytest.approx(0.28 * 5)


def test_emission_times_non_decreasing():
    for k in (1, 2, 5):
        for d in (0.5, 2.0, 20.0):
            log = simulate_waitk(
                ref([f"w{i}" for i in range(12)], duration=d),
                WaitKConfig(k=k, compute_latency=0.02),
            )
            times = [e.emit_time for e in log.events]
            assert times == sorted(times)


def test_al_matches_closed_form():
    # latency 0, no flush hit: AL over words from g(i) = (k+i-1)*step
    tokens = ["w1", "w2", "<eol>", "w3", "<eob>"]
    log = simulate_waitk(ref(tokens, duration=50.0), WaitKConfig(k=3))
    word_g = [g for g, e in zip(log.consumed_source, log.events) if e.is_word]
    assert average_lagging(log) == pytest.approx(
        naive_al_ms(word_g, 50.0), abs=1e-9
    )


def test_al_monotone_in_k():
    refs = make_refs(50, seed=3)
    for k_lo, k_hi in [(1, 3), (3, 5)]:
        lo = simulate_corpus(refs, k=k_lo)
        hi = simulate_corpus(refs, k=k_hi)
        for a, b in zip(lo, hi):
            assert average_lagging(b) >= average_lagging(a) - 1e-9
            for ea, eb in zip(a.events, b.events):
                assert eb.emit_time >= ea.emit_time


@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.3, max_value=30))
def test_t1_lower_bound(k, duration):
    log = simulate_waitk(ref(["tok", "tok2"], duration=duration), WaitKConfig(k=k))
    assert log.events[0].emit_time == pytest.approx(min(duration, k * 0.28))


def test_config_validation():
    with pytest.raises(ValueError):
        WaitKConfig(k=0)
    with pytest.raises(ValueError):
        WaitKConfig(k=1, step_size=0)
    with pytest.raises(ValueError):
        WaitKConfig(k=1, compute_latency=-1)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_config_and_reference_reject_non_finite_values(x):
    for kwargs in [{"k": x}, {"k": 3, "step_size": x}, {"k": 3, "compute_latency": x}]:
        with pytest.raises(ValueError, match="finite"):
            WaitKConfig(**kwargs)
    with pytest.raises(ValueError, match="finite"):
        AnnotatedReference("a", ("x",), x)


@pytest.mark.parametrize(
    "kwargs, field, message",
    [
        ({"k": True}, "k", "expected int, got True"),
        ({"k": 3.0}, "k", "expected int, got 3.0"),
        ({"k": 3, "step_size": True}, "step", "expected a number, got True"),
        ({"k": 3, "step_size": 10**400}, "step", "integer too large for a float"),
        ({"k": 10**400}, "k", "step * k must be a finite number of seconds"),
        ({"k": 10**308, "step_size": 10.0}, "k", "step * k must be a finite number of seconds"),
        ({"k": 3, "compute_latency": 10**400}, "compute_latency", "integer too large for a float"),
    ],
)
def test_config_refuses_a_policy_whose_log_no_corpus_holds(kwargs, field, message):
    with pytest.raises(StreamError) as info:
        WaitKConfig(**kwargs)
    assert (info.value.field, info.value.message) == (field, message)
    assert isinstance(info.value, ValueError)
