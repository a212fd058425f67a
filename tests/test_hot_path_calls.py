"""A deterministic guard on the router hot path's Python call count.

Host timings are noisy, but the number of Python frames a run opens
is not.  The network steps its routers in one loop: routing, the sole
switch bidder and switch traversal run inline, and arrivals, injected
flits and credits land through one loop body each, so a flit-hop needs
no call of its own.  Only contended allocation calls out, to
``noc/allocator.py`` (plus the router's VA stage wrapper).

This runs saturated 2DB (uniform random at 0.35) under
``sys.setprofile`` and counts ``call`` events whose code lives in
``noc/router.py`` or ``noc/allocator.py``, per flit-hop.  A per-hop or
per-arrival method call brings the count back above two.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.arch import make_2db
from repro.noc import allocator, router
from repro.noc.simulator import Simulator
from repro.traffic.synthetic import UniformRandomTraffic

#: Router and allocator frames allowed per flit-hop.
MAX_CALLS_PER_HOP = 2.0


def test_router_calls_per_flit_hop():
    files = {
        str(Path(module.__file__).resolve())
        for module in (router, allocator)
    }
    network = make_2db().build_network()
    # Count the simulator's frames only: an audit attached to every
    # test network (REPRO_SANITIZE=1) calls into the allocators.
    network.sanitizer = None
    sim = Simulator(
        network,
        UniformRandomTraffic(
            num_nodes=network.topology.num_nodes, flit_rate=0.35, seed=1
        ),
        warmup_cycles=100,
        measure_cycles=300,
    )
    calls = 0
    is_hot = {}

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            hot = is_hot.get(code)
            if hot is None:
                hot = is_hot[code] = (
                    str(Path(code.co_filename).resolve()) in files
                )
            calls += hot

    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    hops = network.events.flit_hops
    assert hops > 10_000
    assert calls / hops <= MAX_CALLS_PER_HOP, (
        f"{calls} router/allocator calls for {hops} flit-hops "
        f"({calls / hops:.2f} per hop)"
    )
