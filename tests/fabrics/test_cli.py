"""``python -m repro fabrics`` — inputs it cannot honour are usage errors."""

from __future__ import annotations

import json

import pytest

from repro.fabrics import cli
from repro.fabrics.cli import main
from repro.fabrics.sweep import SweepReport
from repro.fabrics.topology import TOPOLOGY_KINDS


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_zero_elements_is_a_usage_error(capsys):
    err = _usage_error(["--elems", "0"], capsys)
    assert "--elems must be >= 1" in err


def test_non_power_of_two_nodes_is_a_usage_error(capsys):
    err = _usage_error(["--nodes", "48", "--topologies", "fat-tree"], capsys)
    assert "power-of-two" in err and "48" in err


def test_nodes_below_a_topology_minimum_is_a_usage_error(capsys):
    err = _usage_error(["--nodes", "8", "--topologies", "dragonfly"], capsys)
    assert "dragonfly needs a power-of-two N >= 16" in err


def test_unknown_topology_is_a_usage_error(capsys):
    err = _usage_error(["--topologies", "hypercube"], capsys)
    assert "unknown topology 'hypercube'" in err


def test_quick_keeps_explicit_topologies_and_elems(tmp_path, capsys):
    out = tmp_path / "quick.json"
    assert main(["--quick", "--topologies", "torus", "--elems", "8",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["topologies"] == ["torus"]
    assert report["config"]["elems_per_rank"] == 8
    assert report["config"]["nodes"] == [16, 32]       # --quick preset
    assert report["config"]["iterations"] == 2         # --quick preset
    assert {r["topology"] for r in report["results"]} == {"torus"}
    assert len(report["results"]) == 2 * 3             # N=16,32 x 3 schedules
    assert "elems/rank=8" in capsys.readouterr().out


@pytest.mark.parametrize("argv, expected", [
    (["--quick"], dict(topologies=TOPOLOGY_KINDS, algorithms=("ring", "rh", "tree"),
                       nodes=(16, 32), elems_per_rank=4, iterations=2)),
    (["--quick", "--algorithms", "rh", "--nodes", "64", "--iterations", "5"],
     dict(topologies=TOPOLOGY_KINDS, algorithms=("rh",), nodes=(64,),
          elems_per_rank=4, iterations=5)),
    ([], dict(topologies=TOPOLOGY_KINDS, algorithms=("ring", "rh", "tree"),
              nodes=(64, 128), elems_per_rank=4, iterations=3)),
])
def test_explicit_flags_win_over_presets(monkeypatch, argv, expected):
    seen = []

    def fake_run_sweep(cfg, progress=None):
        seen.append(cfg)
        return SweepReport(config=cfg)

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    monkeypatch.setattr(cli, "render_report", lambda report: "")
    cli.main(argv)
    (cfg,) = seen
    for name, value in expected.items():
        assert getattr(cfg, name) == value, name


def test_quick_still_rejects_zero_elements(capsys):
    err = _usage_error(["--quick", "--elems", "0"], capsys)
    assert "--elems must be >= 1" in err
