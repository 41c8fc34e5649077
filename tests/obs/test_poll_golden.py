"""Golden poll traces: every completion wait of the eight ping-pong modes,
pinned bit for bit.

Six wait loops drive the paper's ping-pongs: the GPU and host
``spin_until_u64``, the host and GPU EXTOLL notification waits, and the
host and GPU CQ waits.  This test runs all four EXTOLL and all four IB
modes traced, at a latency-path size and at a size whose waits run deep
into both backoff ladders, and pins:

* every ``gpu.spin`` / ``rma.poll`` / ``ib.poll`` span (category, name,
  track, begin, end, attributes including ``polls``), as a digest of
  their exact ``repr`` plus per-(category, name) count, poll sum and max;
* the five poll histograms (count, sum, max);
* every host ``spin_until_u64`` wait (it emits no span), recorded by a
  pass-through wrapper;
* ``sim.events`` and each GPU's Table I/II counter set.

Any change to a poll loop's timing, counting, backoff or span placement
shows up here.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.obs.cli as obs_cli
from repro.cpu import HostThread

POLL_CATEGORIES = ("gpu.spin", "rma.poll", "ib.poll")
POLL_HISTOGRAMS = ("gpu.spin_polls", "rma.host_notification_polls",
                   "rma.notification_polls", "ib.cq_polls", "ib.gpu_cq_polls")
EXTOLL_MODES = ("dev2dev-direct", "dev2dev-pollOnGPU", "dev2dev-assisted",
                "dev2dev-hostControlled")
IB_MODES = ("dev2dev-bufOnGPU", "dev2dev-bufOnHost", "dev2dev-assisted",
            "dev2dev-hostControlled")
CASES = [(fabric, mode, size)
         for fabric, modes in (("extoll", EXTOLL_MODES), ("ib", IB_MODES))
         for mode in modes
         for size in (64, 262144)]
ITERATIONS, WARMUP = 2, 1


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _fingerprint(monkeypatch, fabric: str, mode: str, size: int) -> dict:
    clusters = []
    host_spins = []
    builder = "build_extoll_cluster" if fabric == "extoll" else "build_ib_cluster"
    build = getattr(obs_cli, builder)

    def recording_build(*args, **kwargs):
        cluster = build(*args, **kwargs)
        clusters.append(cluster)
        return cluster

    spin = HostThread.spin_until_u64

    def recording_spin(self, *args, **kwargs):
        value, polls = yield from spin(self, *args, **kwargs)
        host_spins.append((self.track, self.sim.now, polls))
        return value, polls

    monkeypatch.setattr(obs_cli, builder, recording_build)
    monkeypatch.setattr(HostThread, "spin_until_u64", recording_spin)
    tracer, _point = obs_cli.run_traced_pingpong(fabric, mode, size,
                                                 ITERATIONS, WARMUP)
    spans = [(s.category, s.name, s.track, s.begin, s.end,
              sorted(s.attrs.items()))
             for s in tracer.spans if s.category in POLL_CATEGORIES]
    per_site: dict = {}
    for category, name, _track, _begin, _end, attrs in spans:
        polls = dict(attrs)["polls"]
        count, total, peak = per_site.get(f"{category}/{name}", (0, 0, 0))
        per_site[f"{category}/{name}"] = (count + 1, total + polls,
                                          max(peak, polls))
    histograms = tracer.metrics.histograms()
    return {
        "events": tracer.sim.events_processed,
        "spans": _digest(spans),
        "per_site": per_site,
        "histograms": {name: (h.count, h.total, h.max)
                       for name, h in sorted(histograms.items())
                       if name in POLL_HISTOGRAMS},
        "host_spins": (_digest(host_spins), len(host_spins),
                       max((p for _, _, p in host_spins), default=0)),
        "counters": _digest([node.gpu.counters.as_dict()
                             for node in clusters[0].nodes]),
    }


EXPECTED = {
    ("extoll", "dev2dev-direct", 64): {
        "events": 1527,
        "spans": "ea5605e915c01b5e",
        "per_site": {
            "rma.poll/wait-notification": (12, 64, 8),
        },
        "histograms": {
            "rma.notification_polls": (12, 64.0, 8),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "c4dcd031256e17b4",
    },
    ("extoll", "dev2dev-direct", 262144): {
        "events": 25964,
        "spans": "9ab3738c6ddecff0",
        "per_site": {
            "rma.poll/wait-notification": (12, 2187, 204),
        },
        "histograms": {
            "rma.notification_polls": (12, 2187.0, 204),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "d20dd362bc3361db",
    },
    ("extoll", "dev2dev-pollOnGPU", 64): {
        "events": 753,
        "spans": "4c89a753bda490da",
        "per_site": {
            "gpu.spin/spin": (6, 156, 28),
        },
        "histograms": {
            "gpu.spin_polls": (6, 156.0, 28),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "5de1e2e42ae62b5e",
    },
    ("extoll", "dev2dev-pollOnGPU", 262144): {
        "events": 5949,
        "spans": "50374449cbff158e",
        "per_site": {
            "gpu.spin/spin": (6, 1366, 233),
        },
        "histograms": {
            "gpu.spin_polls": (6, 1366.0, 233),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "d13ea8105a25db25",
    },
    ("extoll", "dev2dev-assisted", 64): {
        "events": 4054,
        "spans": "1a95c5b352594530",
        "per_site": {
            "rma.poll/wait-notification": (12, 963, 176),
            "gpu.spin/spin": (12, 74, 9),
        },
        "histograms": {
            "gpu.spin_polls": (12, 74.0, 9),
            "rma.host_notification_polls": (12, 963.0, 176),
        },
        "host_spins": ("5e56d807000317c7", 6, 294),
        "counters": "eb0112dbc6654f2c",
    },
    ("extoll", "dev2dev-assisted", 262144): {
        "events": 43377,
        "spans": "cae05354f193a030",
        "per_site": {
            "rma.poll/wait-notification": (12, 7503, 680),
            "gpu.spin/spin": (12, 2230, 207),
        },
        "histograms": {
            "gpu.spin_polls": (12, 2230.0, 207),
            "rma.host_notification_polls": (12, 7503.0, 680),
        },
        "host_spins": ("2ad58b9d3e435881", 6, 646),
        "counters": "9aa94d849627af02",
    },
    ("extoll", "dev2dev-hostControlled", 64): {
        "events": 937,
        "spans": "e697044e9ad98a47",
        "per_site": {
            "rma.poll/wait-notification": (12, 527, 65),
        },
        "histograms": {
            "rma.host_notification_polls": (12, 527.0, 65),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "e9435e18954dd8df",
    },
    ("extoll", "dev2dev-hostControlled", 262144): {
        "events": 13732,
        "spans": "f6fba8758dfc5c33",
        "per_site": {
            "rma.poll/wait-notification": (12, 7303, 640),
        },
        "histograms": {
            "rma.host_notification_polls": (12, 7303.0, 640),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "e9435e18954dd8df",
    },
    ("ib", "dev2dev-bufOnGPU", 64): {
        "events": 937,
        "spans": "5465e0a04ebbe9f6",
        "per_site": {
            "gpu.spin/spin": (6, 86, 26),
            "ib.poll/gpu_wait_cq": (6, 90, 15),
        },
        "histograms": {
            "gpu.spin_polls": (6, 86.0, 26),
            "ib.gpu_cq_polls": (6, 90.0, 15),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "9caa9b0dd6a7f481",
    },
    ("ib", "dev2dev-bufOnGPU", 262144): {
        "events": 8088,
        "spans": "45b2bf796d985d5f",
        "per_site": {
            "gpu.spin/spin": (6, 1081, 181),
            "ib.poll/gpu_wait_cq": (6, 1080, 180),
        },
        "histograms": {
            "gpu.spin_polls": (6, 1081.0, 181),
            "ib.gpu_cq_polls": (6, 1080.0, 180),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "8270f6a3e38063a1",
    },
    ("ib", "dev2dev-bufOnHost", 64): {
        "events": 1503,
        "spans": "e9e0c64b8afe869b",
        "per_site": {
            "gpu.spin/spin": (6, 119, 34),
            "ib.poll/gpu_wait_cq": (6, 36, 6),
        },
        "histograms": {
            "gpu.spin_polls": (6, 119.0, 34),
            "ib.gpu_cq_polls": (6, 36.0, 6),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "9fb9b12790207a3e",
    },
    ("ib", "dev2dev-bufOnHost", 262144): {
        "events": 15809,
        "spans": "21ccc3c1cae820d8",
        "per_site": {
            "gpu.spin/spin": (6, 1086, 181),
            "ib.poll/gpu_wait_cq": (6, 966, 161),
        },
        "histograms": {
            "gpu.spin_polls": (6, 1086.0, 181),
            "ib.gpu_cq_polls": (6, 966.0, 161),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "824ba26806d3dd22",
    },
    ("ib", "dev2dev-assisted", 64): {
        "events": 3693,
        "spans": "b5fe21d5715d36d8",
        "per_site": {
            "ib.poll/ibv_wait_cq": (12, 106, 16),
            "gpu.spin/spin": (12, 100, 10),
        },
        "histograms": {
            "gpu.spin_polls": (12, 100.0, 10),
            "ib.cq_polls": (12, 106.0, 16),
        },
        "host_spins": ("4d20fa711bd20022", 6, 270),
        "counters": "193341d470ce659a",
    },
    ("ib", "dev2dev-assisted", 262144): {
        "events": 71071,
        "spans": "686ee33dd7d61e1a",
        "per_site": {
            "ib.poll/ibv_wait_cq": (12, 5406, 455),
            "gpu.spin/spin": (12, 1974, 167),
        },
        "histograms": {
            "gpu.spin_polls": (12, 1974.0, 167),
            "ib.cq_polls": (12, 5406.0, 455),
        },
        "host_spins": ("9284e5e76bf780ae", 6, 276),
        "counters": "b56fdc7ad596baab",
    },
    ("ib", "dev2dev-hostControlled", 64): {
        "events": 1663,
        "spans": "bfb6f14a71aa67a9",
        "per_site": {
            "ib.poll/ibv_wait_cq": (12, 92, 9),
        },
        "histograms": {
            "ib.cq_polls": (12, 92.0, 9),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "e9435e18954dd8df",
    },
    ("ib", "dev2dev-hostControlled", 262144): {
        "events": 48135,
        "spans": "296d49148208552c",
        "per_site": {
            "ib.poll/ibv_wait_cq": (12, 5388, 452),
        },
        "histograms": {
            "ib.cq_polls": (12, 5388.0, 452),
        },
        "host_spins": ("4f53cda18c2baa0c", 0, 0),
        "counters": "e9435e18954dd8df",
    },
}


@pytest.mark.parametrize("fabric,mode,size", CASES,
                         ids=[f"{f}-{m}-{s}" for f, m, s in CASES])
def test_poll_trace_is_pinned(monkeypatch, fabric, mode, size):
    got = _fingerprint(monkeypatch, fabric, mode, size)
    assert got == EXPECTED[(fabric, mode, size)]


def test_golden_cases_reach_both_backoff_ladders():
    """The pinned runs include waits past the host ladder's 256-poll knee
    and the GPU ladder's 64-poll knee, at every wait site."""
    peaks: dict = {}
    host_spin_peak = 0
    for expected in EXPECTED.values():
        for name, (_count, _total, peak) in expected["histograms"].items():
            peaks[name] = max(peaks.get(name, 0), peak)
        host_spin_peak = max(host_spin_peak, expected["host_spins"][2])
    assert peaks["rma.host_notification_polls"] > 256
    assert peaks["ib.cq_polls"] > 256
    assert host_spin_peak > 256
    assert peaks["gpu.spin_polls"] > 64
    assert peaks["rma.notification_polls"] > 64
    assert peaks["ib.gpu_cq_polls"] > 64
