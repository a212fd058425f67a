"""A deterministic guard on the router hot path's Python call count.

Host timings are noisy, but the number of Python frames a run opens
is not.  The network runs the whole router pipeline in one loop over
its flat per-unit lists: injection, routing, a lone VA requester, a
lone switch bidder and switch traversal run inline, and arrivals,
injected flits and credits land through one loop body each, so a
flit-hop needs no call of its own.  Only contended or VC-restricted
allocation calls ``allocate`` in ``noc/allocator.py``, and a packet
opens frames in ``noc/packet.py`` only to be built and to report its
latency (``make_flits`` builds its flits without the dataclass
constructor); nothing calls into ``noc/router.py``, whose routers hold
only three shims into the network's loops.

This runs saturated 2DB (uniform random at 0.35) under
``sys.setprofile`` and counts ``call`` events per flit-hop, by the file
their code lives in.  About 0.50 allocator frames and 0.25 packet
frames remain per hop, and none in ``noc/router.py``; a VA call per
grant brings the first above 0.7, and a constructor call per flit the
second above 0.4.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.arch import make_2db
from repro.noc import allocator, packet, router
from repro.noc.simulator import Simulator
from repro.traffic.synthetic import UniformRandomTraffic

#: Frames allowed per flit-hop, by file.
MAX_CALLS_PER_HOP = {"allocator": 0.6, "packet": 0.35, "router": 0.0}


def test_router_calls_per_flit_hop():
    modules = {"allocator": allocator, "packet": packet, "router": router}
    files = {
        str(Path(module.__file__).resolve()): name
        for name, module in modules.items()
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
    calls = dict.fromkeys(modules, 0)
    where = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = where.get(code, "")
            if name == "":
                name = where[code] = files.get(
                    str(Path(code.co_filename).resolve())
                )
            if name is not None:
                calls[name] += 1

    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    hops = network.events.flit_hops
    assert hops > 10_000
    per_hop = {name: count / hops for name, count in calls.items()}
    for name, bound in MAX_CALLS_PER_HOP.items():
        assert per_hop[name] <= bound, (
            f"{calls[name]} {name} calls for {hops} flit-hops "
            f"({per_hop[name]:.2f} per hop, bound {bound})"
        )
