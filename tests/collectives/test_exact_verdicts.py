"""All-reduce verdicts are exact and length-checked.

The inputs are small integers, exact in float64 under any association
order, so a correct result equals the reference exactly.  A truncated,
empty or one-ulp-off result must fail every all-reduce verdict: the
shared ``exact_match`` helper (also behind the MPI all-reduce bench), the
collectives bench ``_verify`` and the workloads' all-reduce verifiers.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest

from repro.collectives.schedules import exact_match
from repro.collectives.bench import _verify, vector
from repro.workloads import WORKLOADS
from repro.workloads.apps import grad_vector

NODES, SIZE = 4, 64


def _bad_results(good):
    """Wrong answers derived from a correct list of floats."""
    ulp = list(good)
    ulp[len(ulp) // 2] = float(np.nextafter(ulp[len(ulp) // 2], np.inf))
    return {"truncated": good[:-1], "empty": [], "one-ulp": ulp}


def test_exact_match_accepts_only_the_exact_full_result():
    expected = reduce(np.add, [vector(r, NODES, SIZE) for r in range(NODES)])
    good = expected.tolist()
    assert exact_match(good, expected)
    assert exact_match(expected, good)
    for name, bad in _bad_results(good).items():
        assert not exact_match(bad, expected), name
    assert not exact_match([], [])          # no evidence is no pass


@pytest.mark.parametrize("op", ["all-reduce", "all-reduce-rh",
                                "all-reduce-tree"])
def test_collectives_bench_verdict_is_exact(op):
    good = reduce(np.add, [vector(r, NODES, SIZE)
                           for r in range(NODES)]).tolist()
    assert _verify(op, NODES, SIZE, {r: good for r in range(NODES)})
    for name, bad in _bad_results(good).items():
        finals = {r: good for r in range(NODES)}
        finals[NODES - 1] = bad
        assert not _verify(op, NODES, SIZE, finals), name


@pytest.mark.parametrize("name", ["trainstep", "allreduce"])
def test_workload_allreduce_verdicts_are_exact(name):
    verify = WORKLOADS[name].verify
    req, rank = 3, 1
    good = reduce(np.add, [grad_vector(req, r, NODES * (SIZE // 8))
                           for r in range(NODES)]).tolist()
    assert verify(req, rank, NODES, SIZE, good)
    for bad_name, bad in _bad_results(good).items():
        assert not verify(req, rank, NODES, SIZE, bad), bad_name
    assert not verify(req, rank, NODES, SIZE, tuple(good))
