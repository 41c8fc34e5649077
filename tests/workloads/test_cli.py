"""``python -m repro workloads`` — verdicts, artifacts, and exit codes."""

from __future__ import annotations

import json
import os

import pytest

from repro.workloads.cli import main

QUICK = ["--quick", "--workload", "psfanin", "--mode", "hostControlled"]


def test_quick_cell_passes(capsys):
    assert main(QUICK) == 0
    out = capsys.readouterr().out
    assert "[PASS] zero-cost when disarmed" in out
    assert "[PASS] deterministic replay" in out
    assert "[PASS] all results exact" in out
    assert "[PASS] open-loop p99 >= closed-loop p99" in out
    assert "[PASS] trace<->histogram reconciliation <= 1%" in out
    assert "[FAIL]" not in out


def test_json_document(capsys):
    assert main(QUICK + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and not doc["breached"]
    (cell,) = doc["cells"]
    assert cell["workload"] == "psfanin"
    assert cell["open_ge_closed"]
    assert cell["reconcile"]["ok"]
    assert cell["open"]["p99"] >= cell["closed"]["p99"]
    assert all(v["ok"] for v in doc["verdicts"])


def test_force_breach_dumps_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(QUICK + ["--force-breach", "--out", str(out)]) == 1
    assert (out / "slo-report.json").stat().st_size > 0
    assert (out / "flight-record-0.json").stat().st_size > 0
    report = json.loads((out / "slo-report.json").read_text())
    assert report["breached"]
    assert report["ok"]     # forced breach is an SLO event, not a bug
    capsys.readouterr()


def test_no_telemetry_skips_planes(capsys):
    assert main(QUICK + ["--no-telemetry"]) == 0
    out = capsys.readouterr().out
    assert "reconciliation" not in out
    assert "zero-cost" not in out
    assert "[PASS] deterministic replay" in out


def test_knee_report(capsys):
    assert main(QUICK + ["--knee", "--requests", "8"]) == 0
    out = capsys.readouterr().out
    assert "saturation knee" in out
    assert "eff" in out


def test_custom_slo_breaches(capsys):
    # An impossible tail bound must breach and exit 1.
    rc = main(QUICK + ["--no-presets", "--slo",
                       "p99:span.workload.request<1e-12"])
    capsys.readouterr()
    assert rc == 1


def test_faulted_cell_still_verifies(capsys):
    assert main(QUICK + ["--loss", "0.03"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_bad_selection_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--workload", "btree"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_zero_requests_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(QUICK + ["--requests", "0"])
    assert exc.value.code == 2
    assert "--requests must be >= 1" in capsys.readouterr().err
