"""A deterministic guard on the router hot path's Python call count.

Host timings are noisy, but the number of Python frames a run opens
is not.  The network runs the whole router pipeline in one loop over
its flat per-unit lists: injection, routing, the sole switch bidder and
switch traversal run inline, and arrivals, injected flits and credits
land through one loop body each, so a flit-hop needs no call of its
own.  Only the allocators' ``allocate`` calls out, to
``noc/allocator.py``, for VA and for contended SA; nothing calls into
``noc/router.py``, whose routers hold only three shims into the
network's loops.

This runs saturated 2DB (uniform random at 0.35) under
``sys.setprofile`` and counts ``call`` events whose code lives in
``noc/router.py`` or ``noc/allocator.py``, per flit-hop.  About 0.72
remain, none of them in ``noc/router.py``; a per-hop or per-arrival
method call brings the count above one.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.arch import make_2db
from repro.noc import allocator, router
from repro.noc.simulator import Simulator
from repro.traffic.synthetic import UniformRandomTraffic

#: Router and allocator frames allowed per flit-hop.
MAX_CALLS_PER_HOP = 1.0


def test_router_calls_per_flit_hop():
    router_file = str(Path(router.__file__).resolve())
    files = {router_file, str(Path(allocator.__file__).resolve())}
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
    calls = router_calls = 0
    where = {}

    def profile(frame, event, arg):
        nonlocal calls, router_calls
        if event == "call":
            code = frame.f_code
            path = where.get(code)
            if path is None:
                path = where[code] = str(Path(code.co_filename).resolve())
            calls += path in files
            router_calls += path == router_file

    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    hops = network.events.flit_hops
    assert hops > 10_000
    assert router_calls == 0
    assert calls / hops <= MAX_CALLS_PER_HOP, (
        f"{calls} router/allocator calls for {hops} flit-hops "
        f"({calls / hops:.2f} per hop)"
    )
