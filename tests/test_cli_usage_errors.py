"""Bad command-line input is a usage error: exit 2, one message, no
traceback, and nothing measured first."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

INVOCATIONS = {
    "critpath-one-node": ["critpath", "allreduce", "--nodes", "1"],
    "critpath-zero-requests": ["critpath", "allreduce", "--requests", "0"],
    "critpath-unaligned-size": ["critpath", "allreduce", "--size", "7"],
    "critpath-unknown-mode": ["critpath", "pingpong", "--modes", "bogus"],
    "monitor-zero-interval": ["monitor", "--interval", "0"],
    "triggered-zero-nodes": ["triggered", "--nodes", "0"],
    "profile-zero-size": ["profile", "--size", "0"],
    "trace-zero-iterations": ["trace", "--iterations", "0"],
    "engine-zero-iterations": ["engine", "--iterations", "0"],
    "bench-record-missing-dir": ["bench", "--record", "--scenario",
                                 "extoll-poll-ratio", "--dir", "{missing}"],
}


@pytest.mark.parametrize("argv", list(INVOCATIONS.values()),
                         ids=list(INVOCATIONS))
def test_bad_input_is_a_usage_error(argv, tmp_path):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith(
        f"python -m repro {argv[0]}: error: ")
    # Rejected before any measurement: nothing was printed or recorded.
    assert proc.stdout == ""
