"""GPU-initiated collective operations over put/get (§VIII future work).

The paper measures point-to-point put/get between two thread-collaborative
processors; this package grows that into N-node collectives built ON TOP of
the measured primitives: ring channels from :mod:`repro.core.msglib`, the
device-side RMA API of :mod:`repro.core.gpu_rma`, and the host-side API of
:mod:`repro.extoll.api`, over any :mod:`repro.cluster` topology.

* :mod:`~repro.collectives.comm` — :class:`Communicator` /
  :class:`RankComm`: ring channels, mode-dispatched send/recv.
* :mod:`~repro.collectives.schedules` — the ring, recursive-halving and
  binomial-tree all-reduce schedules as op scripts, their closed forms,
  argument check and float64 data plane: the one copy every stack
  (msglib, fabrics, MPI, workloads) interprets.
* :mod:`~repro.collectives.algorithms` — barrier, broadcast, all-gather,
  halo exchange, and the all-reduce schedules over :class:`RankComm`.
* :mod:`~repro.collectives.bench` — the measured driver behind
  ``python -m repro collectives``.
"""

from .algorithms import all_gather, barrier, broadcast, halo_exchange, ring_all_reduce
from .bench import (
    OPS,
    CollectiveResult,
    build_communicator,
    render_results,
    run_collective,
    sweep,
)
from .comm import CollectiveMode, Communicator, RankComm, collective_mode

__all__ = [
    "CollectiveMode", "Communicator", "RankComm", "collective_mode",
    "barrier", "broadcast", "all_gather", "ring_all_reduce", "halo_exchange",
    "OPS", "CollectiveResult", "build_communicator", "run_collective",
    "sweep", "render_results",
]
