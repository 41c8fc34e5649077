"""Tests of the wall-clock benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import cProfile
import inspect
import json
import pstats
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import units  # noqa: E402
from repro.perf import scenarios  # noqa: E402
from layers import LAYERS, layer_of, layer_self_times  # noqa: E402
from units import ARRIVAL_VARIANTS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())["units"]


def _run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_names_follow_the_grammar():
    emitted = {**run.END_TO_END_UNITS, **run.per_layer_units()}
    names = [w["name"] for w in BENCHMARK["workloads"]] + list(emitted)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in emitted.values():
        assert UNIT.match(unit), unit
    assert not NAME.match("_leading") and not NAME.match("a b")


def test_declared_metrics_are_the_emitted_ones():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layer == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_reference_covers_every_unit_of_every_seed():
    for factory in WORKLOADS.values():
        for seed in range(2 * ARRIVAL_VARIANTS):
            for unit in factory(seed):
                assert unit.uid in REFERENCE, unit.uid


def test_pingpong_reference_matches_bench_baselines():
    checked = 0
    for fabric, name in (("extoll", "EXTOLL"), ("ib", "IB")):
        baseline = json.loads(
            (ROOT / f"BENCH_{name}_LATENCY.json").read_text())["metrics"]
        for uid, out in REFERENCE.items():
            kind, mode, size = (uid.split("/") + ["", ""])[:3]
            if kind == fabric:
                assert out["latency"] * 1e6 == \
                    baseline[f"{mode}/{size}/latency_us"]["value"], uid
                checked += 1
    assert checked == 20


def test_pingpong_iterations_match_the_latency_scenarios():
    for point in (scenarios._extoll_point, scenarios._ib_point):
        params = inspect.signature(point).parameters
        assert params["iterations"].default == units.PINGPONG_ITERATIONS
        assert params["warmup"].default == units.PINGPONG_WARMUP


def test_zero_units_is_a_failure():
    runner = run.Runner(lambda seed: [], 1, REFERENCE)
    assert runner.run_pass() == 0.0
    assert runner.attempted == 0 and not runner.correct


class _Unit:
    """A unit whose drive raises or returns outputs of the caller's choice."""

    uid = "fake/unit"
    connect = None

    def __init__(self, outputs) -> None:
        self._outputs = outputs

    def build(self) -> None:
        pass

    def drive(self) -> None:
        if isinstance(self._outputs, Exception):
            raise self._outputs

    def outputs(self) -> dict:
        return self._outputs

    def counts(self) -> dict:
        return {"sim.events": 1}


def test_a_failed_unit_adds_no_timing():
    for outputs in (RuntimeError("boom"), {"x": 2}):
        runner = run.Runner(lambda seed: [_Unit(outputs)], 1,
                            {"fake/unit": {"x": 1}})
        runner.run_pass()
        assert runner.failed == runner.attempted == 1
        assert runner.passes == [] and not runner.correct
    runner = run.Runner(lambda seed: [_Unit({"x": 1})], 1,
                        {"fake/unit": {"x": 1}})
    runner.run_pass()
    assert runner.correct and len(runner.passes) == 1
    assert runner.counts == {"sim.events": 1}


def test_scaled_times_use_each_pass_calibration():
    runner = run.Runner(lambda seed: [_Unit({"x": 1})] * 2, 1,
                        {"fake/unit": {"x": 1}})
    runner.run_pass()
    runner._calibrate = lambda uid, seconds=0.0: run.REFERENCE_S / 2
    runner._last_calibration = None
    runner.run_pass()
    first, second = runner.passes
    assert second["drive.scaled"] == pytest.approx(2 * second["drive"])
    assert runner.scaled("drive") == pytest.approx(
        (first["drive.scaled"] + second["drive.scaled"]) / 2)
    assert runner.median("drive") == pytest.approx(
        (first["drive"] + second["drive"]) / 2)


def test_mismatch_names_the_differing_outputs():
    assert run.mismatch({"a": 1.0}, {"a": 1.0}) == ""
    assert "['a']" in run.mismatch({"a": 1.0}, {"a": 1.0 + 1e-15})
    assert run.mismatch({"a": 1.0}, None) == "no recorded reference"


def test_layer_of_groups_by_subpackage():
    assert layer_of("/x/src/repro/sim/engine.py") == "sim"
    assert layer_of("/x/src/repro/telemetry/sampler.py") == "obs"
    assert layer_of("/x/src/repro/causal/dag.py") == "obs"
    assert layer_of("/x/src/repro/faults/plan.py") == "other"
    assert layer_of("/x/src/repro/cluster.py") == "other"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "other"


def test_self_times_add_up_to_the_traced_wall_time():
    from repro.cluster import build_extoll_cluster
    from repro.core import ExtollMode, run_extoll_pingpong
    from repro.core import setup_extoll_connection

    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4096)
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 64,
                        iterations=2, warmup=1)
    profile.disable()
    wall = time.perf_counter() - t0
    shares = layer_self_times(pstats.Stats(profile), wall)
    assert set(shares) == {*LAYERS, "other"}
    assert sum(shares.values()) == pytest.approx(wall, rel=1e-9)
    assert all(v >= 0.0 for v in shares.values())
    for layer in ("sim", "memory", "pcie", "gpu", "extoll", "core"):
        assert shares[layer] > 0.0, layer
    for layer in ("fabrics", "engine", "mpi", "workloads", "ib"):
        assert shares[layer] == 0.0, layer


def _checkout(tmp_path, with_source: bool) -> Path:
    """A copy of the benchmark in ``tmp_path``, optionally next to a link
    to the simulator's source; returns the copy's ``run.py``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_source:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path / "perfbench" / "run.py"


def test_perturbed_reference_fails_every_unit(tmp_path):
    script = _checkout(tmp_path, with_source=True)
    perturbed = {uid: {k: (v * (1 + 1e-9) if isinstance(v, float) else v)
                       for k, v in out.items()}
                 for uid, out in REFERENCE.items()}
    (script.parent / "reference.json").write_text(
        json.dumps({"units": perturbed}))
    done = _run(["--workload", "fabric-bulk", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path, script=script)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "differs from reference" in done.stderr
    assert re.search(r"^fail_frac +1\.000000 ", done.stdout, re.M)


def test_checkout_without_source_fails_without_a_result(tmp_path):
    script = _checkout(tmp_path, with_source=False)
    done = _run(["--workload", "fabric-ring", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path, script=script)
    assert done.returncode == 2
    assert done.stdout == ""


def test_usage_errors_exit_2():
    assert _run(["--workload", "nope"]).returncode == 2
    assert _run(["--workload", "fabric-ring", "--seconds", "0"]) \
        .returncode == 2
