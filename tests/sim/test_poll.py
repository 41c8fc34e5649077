"""Simulator-free tests of the shared completion-wait loop.

A scripted ``read`` returns values without yielding, so the only objects
:func:`repro.sim.poll.poll` yields are its backoff timeouts; a fake
simulator records their delays and a fake tracer records span traffic.
"""

from __future__ import annotations

import pytest

from repro.errors import GpuError, RmaError
from repro.sim.poll import GPU_POLL, HOST_POLL, PollPolicy, poll


class FakeSpan:
    def __init__(self, category, name, attrs):
        self.category = category
        self.name = name
        self.attrs = dict(attrs)
        self.open = True

    def end(self, **attrs):
        self.attrs.update(attrs)
        self.open = False


class FakeHistogram:
    def __init__(self):
        self.samples = []

    def observe(self, value):
        self.samples.append(value)


class FakeMetrics:
    def __init__(self):
        self.histograms = {}

    def histogram(self, name):
        return self.histograms.setdefault(name, FakeHistogram())


class FakeTracer:
    def __init__(self, categories=None):
        self.categories = categories
        self.spans = []
        self.metrics = FakeMetrics()

    def wants(self, category):
        return self.categories is None or category in self.categories

    def begin(self, category, name, track="main", **attrs):
        span = FakeSpan(category, name, {"track": track, **attrs})
        self.spans.append(span)
        return span


class FakeSim:
    def __init__(self, tracer=None):
        self.tracer = tracer or FakeTracer(categories=())

    def timeout(self, delay):
        return delay


def scripted(values):
    """A ``read`` that returns ``values`` in order, counting its calls."""
    it = iter(values)
    reads = []

    def read():
        reads.append(1)
        return next(it)
        yield  # pragma: no cover - makes read a generator function

    return read, reads


def drive(gen):
    """Run a poll generator to completion; return (result, yielded delays)."""
    delays = []
    try:
        while True:
            delays.append(gen.send(None))
    except StopIteration as stop:
        return stop.value, delays


def closed_form(policy: PollPolicy, polls: int) -> float:
    return min(policy.backoff_base
               * 2 ** ((polls - policy.backoff_after) // policy.backoff_every),
               policy.backoff_max)


def never_reached():  # pragma: no cover - only called on budget exhaustion
    raise AssertionError("no budget error expected")


@pytest.mark.parametrize("policy", [HOST_POLL, GPU_POLL], ids=["host", "gpu"])
def test_backoff_delays_match_the_closed_form(policy):
    misses = 2000
    read, reads = scripted([0] * misses + [1])
    (value, polls), delays = drive(poll(
        FakeSim(), read, lambda v: v == 1, policy, None, never_reached))
    assert (value, polls) == (1, misses + 1)
    assert len(reads) == misses + 1
    # A miss after the knee idles once before the next read; the hit never does.
    expected = [closed_form(policy, n) for n in range(1, misses + 1)
                if n > policy.backoff_after]
    assert delays == expected


def test_policies_hold_the_documented_ladders():
    assert HOST_POLL == PollPolicy(256, 0.2e-6, 64, 20e-6)
    assert GPU_POLL == PollPolicy(64, 1e-6, 32, 50e-6)
    with pytest.raises(AttributeError):
        HOST_POLL.backoff_after = 1  # frozen


@pytest.mark.parametrize("budget", [1, 2, 64, 300])
def test_budget_raises_the_site_error_after_exactly_n_reads(budget):
    read, reads = scripted([0] * (budget + 5))
    gen = poll(FakeSim(), read, lambda v: v == 1, HOST_POLL, budget,
               lambda: RmaError(f"exceeded {budget} polls"))
    with pytest.raises(RmaError, match=f"exceeded {budget} polls"):
        drive(gen)
    assert len(reads) == budget


def test_budget_of_one_returns_an_immediate_hit():
    read, reads = scripted([7])
    (value, polls), delays = drive(poll(
        FakeSim(), read, lambda v: v == 7, HOST_POLL, 1, never_reached))
    assert (value, polls, len(reads), delays) == (7, 1, 1, [])


def test_error_is_built_only_when_raising():
    built = []

    def error():
        built.append(1)
        return GpuError("budget")

    read, _ = scripted([0, 0, 1])
    drive(poll(FakeSim(), read, lambda v: v == 1, GPU_POLL, 3, error))
    assert built == []


def test_then_runs_inside_the_span_and_replaces_the_value():
    tracer = FakeTracer()
    seen = []

    def then():
        (span,) = tracer.spans
        seen.append(span.open)
        return "consumed"
        yield  # pragma: no cover - makes then a generator function

    read, _ = scripted([0, 0, 5])
    (value, polls), _ = drive(poll(
        FakeSim(tracer), read, lambda v: v == 5, GPU_POLL, None, never_reached,
        category="rma.poll", name="wait-notification", track="t0",
        histogram="rma.notification_polls", then=then))
    assert (value, polls) == ("consumed", 3)
    assert seen == [True]
    (span,) = tracer.spans
    assert not span.open
    assert (span.category, span.name) == ("rma.poll", "wait-notification")
    assert span.attrs == {"track": "t0", "polls": 3}
    assert tracer.metrics.histograms["rma.notification_polls"].samples == [3]


def test_traced_span_carries_addr_and_ends_on_budget_exhaustion():
    tracer = FakeTracer()
    read, _ = scripted([0] * 4)
    with pytest.raises(GpuError):
        drive(poll(FakeSim(tracer), read, lambda v: v == 1, GPU_POLL, 4,
                   lambda: GpuError("budget"), category="gpu.spin",
                   name="spin", addr=0x1000, histogram="gpu.spin_polls"))
    (span,) = tracer.spans
    assert not span.open
    assert span.attrs == {"track": "main", "addr": "0x1000", "polls": 4,
                          "error": "poll budget exhausted"}
    # A failed wait observes no poll count.
    assert tracer.metrics.histograms == {}


def test_unwanted_category_opens_no_span_and_observes_nothing():
    tracer = FakeTracer(categories={"phase"})
    read, _ = scripted([0, 1])
    (value, polls), _ = drive(poll(
        FakeSim(tracer), read, lambda v: v == 1, HOST_POLL, None,
        never_reached, category="ib.poll", name="ibv_wait_cq",
        histogram="ib.cq_polls"))
    assert (value, polls) == (1, 2)
    assert tracer.spans == [] and tracer.metrics.histograms == {}
