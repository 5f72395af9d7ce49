"""Deterministic discrete-event cluster simulator.

This package stands in for the paper's EC2 testbed (see DESIGN.md section
3): it provides a seeded event kernel, an asynchronous unordered network
with configurable latency/loss/duplication, execution traces, and fault
injection.  All higher substrates (:mod:`repro.coord`, :mod:`repro.storm`,
:mod:`repro.bloom`) run on top of it.

One kernel ships: :mod:`repro.sim.events`, which
:func:`make_simulator` builds (or, inside a socket-backend scope, its
wall-clock-paced subclass :class:`repro.net.services.NetSimulator`).  The
seed scheduler survives as the executable test reference
(:mod:`repro.sim.events_ref`); the differential suite in
``tests/sim/test_kernel_equivalence.py`` installs it in place of the
kernel and holds the two to identical traces.
"""

from repro.sim.events import EventHandle, Simulator, Waker, make_simulator
from repro.sim.failure import FailureInjector
from repro.sim.network import LatencyModel, Message, Network, Process
from repro.sim.profile import SimProfiler
from repro.sim.trace import Trace, TraceRecord, merge_traces

__all__ = [
    "EventHandle",
    "Simulator",
    "Waker",
    "make_simulator",
    "SimProfiler",
    "FailureInjector",
    "LatencyModel",
    "Message",
    "Network",
    "Process",
    "Trace",
    "TraceRecord",
    "merge_traces",
]
