"""The all-reduce schedules as pure op scripts, with no simulator.

A test-only interpreter runs every rank's script over unbounded FIFO
queues, one per ordered pair, round-robin until each rank finishes.
Every transport delivers a pair's messages in order, so a result here is
what every stack must compute, and the per-rank send counts are the
schedules' exact step counts.
"""

from __future__ import annotations

from collections import deque
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.schedules import (F8, REDUCE_OPS, SCHEDULES,
                                         check_allreduce, expected_steps)
from repro.errors import BenchmarkError, MpiError, NetworkError


def run_in_memory(algorithm, inputs, combine):
    """Every rank's final array and send count; fails on a deadlock or a
    compute charge that is not ``2 * len(incoming)``."""
    n = len(inputs)
    scripts = [SCHEDULES[algorithm](r, n, inputs[r], combine)
               for r in range(n)]
    queues = {}
    pending = [None] * n        # the peer a blocked rank waits on
    incoming = [0] * n          # elements in each rank's last recv
    results, sends = [None] * n, [0] * n
    live = set(range(n))
    while live:
        progressed = False
        for rank in sorted(live):
            value = None
            if pending[rank] is not None:
                queue = queues.get((pending[rank], rank))
                if not queue:
                    continue
                value = queue.popleft()
                incoming[rank] = len(value) // 8
                pending[rank] = None
            progressed = True
            while True:
                try:
                    op = scripts[rank].send(value)
                except StopIteration as stop:
                    results[rank] = stop.value
                    live.discard(rank)
                    break
                value = None
                if op[0] == "send":
                    queues.setdefault((rank, op[1]), deque()).append(op[2])
                    sends[rank] += 1
                elif op[0] == "compute":
                    assert op[1] == 2 * incoming[rank]
                else:
                    assert op[0] == "recv"
                    pending[rank] = op[1]
                    break
        assert progressed, f"{algorithm} deadlocked at N={n}"
    assert not any(queues.values()), "messages left unreceived"
    return results, sends


@st.composite
def cases(draw):
    algorithm = draw(st.sampled_from(sorted(SCHEDULES)))
    if algorithm == "rh":
        n = 2 ** draw(st.integers(1, 6))
    else:
        n = draw(st.integers(2, 64))
    if algorithm == "tree":
        length = draw(st.integers(1, 3 * n))
    else:
        length = n * draw(st.integers(1, 3))
    op = draw(st.sampled_from(sorted(REDUCE_OPS)))
    # Values in [-2, 2]: every sum is exact and every product a signed
    # power of two, so the fold is exact under any association order.
    seed = draw(st.integers(0, 2 ** 32 - 1))
    values = np.random.default_rng(seed).integers(-2, 3, size=(n, length))
    return algorithm, op, [row.astype(F8) for row in values]


@settings(max_examples=60, deadline=None)
@given(cases())
def test_every_rank_gets_the_fold_in_the_closed_form_step_count(case):
    algorithm, op, inputs = case
    n = len(inputs)
    combine = REDUCE_OPS[op]
    results, sends = run_in_memory(algorithm, inputs, combine)
    expected = reduce(combine, inputs)
    for result in results:
        assert np.array_equal(result, expected)
    assert max(sends) == expected_steps(algorithm, n)


@pytest.mark.parametrize("algorithm", sorted(SCHEDULES))
def test_every_n_up_to_64(algorithm):
    """The sweep Hypothesis samples from, exhaustively, for one op."""
    for n in range(2, 65):
        if algorithm == "rh" and n & (n - 1):
            continue
        inputs = [np.arange(n, dtype=F8) * (r % 3 + 1) for r in range(n)]
        results, sends = run_in_memory(algorithm, inputs, np.add)
        expected = reduce(np.add, inputs)
        assert all(np.array_equal(result, expected) for result in results)
        assert max(sends) == expected_steps(algorithm, n)


@pytest.mark.parametrize("error", [BenchmarkError, MpiError, NetworkError])
def test_check_allreduce_rejects_with_the_callers_error(error):
    for algorithm in SCHEDULES:
        with pytest.raises(error, match="non-empty"):
            check_allreduce(algorithm, 4, 0, error)
    for algorithm in ("ring", "rh"):
        with pytest.raises(error, match="multiple of the 4 ranks"):
            check_allreduce(algorithm, 4, 6, error)
    with pytest.raises(error, match="power-of-two"):
        check_allreduce("rh", 6, 12, error)
    with pytest.raises(error, match="unknown all-reduce algorithm"):
        check_allreduce("bogus", 4, 4, error)


def test_check_allreduce_accepts_what_each_schedule_can_run():
    assert check_allreduce("tree", 4, 6) is SCHEDULES["tree"]
    assert check_allreduce("tree", 6, 1) is SCHEDULES["tree"]
    assert check_allreduce("ring", 6, 12) is SCHEDULES["ring"]
    assert check_allreduce("rh", 8, 8) is SCHEDULES["rh"]
