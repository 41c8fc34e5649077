"""End-to-end acceptance: real runs, exact reconciliation, non-perturbation.

The issue's gates, as tests: every control mode's ping-pong paths must
reconcile at exactly 0% against the workload's own service times, the
disarmed (NullTracer) replay must be bit-identical, a forced compute
skew must flip the straggler call, and the CLI must turn gate failures
into exit status 2.
"""

from __future__ import annotations

import json

import pytest

from repro.causal.cli import main as critpath_main
from repro.causal.critpath import analyze_run
from repro.obs import SpanTracer
from repro.sim import Simulator
from repro.workloads.apps import get_workload
from repro.workloads.generator import WorkloadRun
from repro.workloads.transport import MODES


def _run(mode, workload="pingpong", nodes=2, traced=True, **knobs):
    sim = Simulator(seed=0)
    tracer = None
    if traced:
        tracer = SpanTracer(sim, categories=("causal", "workload"))
        sim.set_tracer(tracer)
    run = WorkloadRun(get_workload(workload, **knobs), mode, nodes=nodes,
                      size=64, requests=2, loop="closed", seed=0, sim=sim)
    return run.execute(), tracer


@pytest.mark.parametrize("mode", MODES)
def test_pingpong_reconciles_exactly_in_every_mode(mode):
    result, tracer = _run(mode)
    assert result.verified
    analysis = analyze_run(tracer)
    recon = analysis.reconcile(result.service_times)
    assert recon["ok"], recon
    assert recon["max_error"] == 0.0
    assert recon["max_residual"] <= 1e-9
    # Something real crossed the wire on every path.
    for path in analysis.paths:
        assert len(path.segments) > 4
        assert path.total > 0


@pytest.mark.parametrize("mode", ("hostControlled", "mpi"))
def test_null_tracer_replay_is_bit_identical(mode):
    traced, _ = _run(mode)
    bare, _ = _run(mode, traced=False)
    assert bare.latencies == traced.latencies
    assert bare.service_times == traced.service_times
    assert bare.waits == traced.waits


def test_forced_skew_flips_the_straggler_call():
    _, fair = _run("hostControlled", "allreduce", nodes=4)
    result, skewed = _run("hostControlled", "allreduce", nodes=4,
                          skew_rank=2, skew_instr=20000)
    assert result.verified
    analysis = analyze_run(skewed)
    assert set(analysis.stragglers().values()) == {2}
    # The skewed run still reconciles exactly — blame, not breakage.
    assert analysis.reconcile(result.service_times)["max_error"] == 0.0
    # And the fair run does NOT already blame rank 2 everywhere.
    fair_calls = set(analyze_run(fair).stragglers().values())
    assert fair_calls != {2}


def test_cli_gates_and_json_report(capsys, tmp_path):
    out = tmp_path / "artifacts"
    rc = critpath_main(["pingpong", "--modes", "hostControlled",
                        "--requests", "1", "--verify", "--reconcile",
                        "--out", str(out), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    cell = report["modes"]["hostControlled"]
    assert cell["reconcile"]["ok"]
    assert cell["verify_bit_identical"]
    assert (out / "critpath-pingpong-hostControlled.json").stat().st_size
    assert (out / "critpath-pingpong-hostControlled.txt").stat().st_size


def test_cli_wrong_straggler_expectation_exits_2(capsys):
    rc = critpath_main(["pingpong", "--modes", "hostControlled",
                        "--requests", "1", "--expect-straggler", "7"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "FAIL" in captured.out


@pytest.mark.parametrize("argv", [
    # moe has no skew knobs: the skew must not be dropped silently.
    ["workloads", "--workload", "moe", "--skew", "1:5000"],
    ["workloads", "--workload", "nosuch"],
    ["allreduce", "--skew", "bad"],
    # N=4: rank 4 does not exist, so the skew would be a no-op.
    ["allreduce", "--skew", "4:5000"],
], ids=["knobless-workload", "unknown-workload", "malformed-skew",
        "rank-out-of-range"])
def test_cli_bad_inputs_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        critpath_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
