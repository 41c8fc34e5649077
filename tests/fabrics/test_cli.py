"""``python -m repro fabrics`` — inputs it cannot honour are usage errors."""

from __future__ import annotations

import pytest

from repro.fabrics.cli import main


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
