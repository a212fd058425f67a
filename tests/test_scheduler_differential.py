"""Differential tests: active-set scheduling vs full router iteration.

The active-set scheduler is a pure performance optimisation — stepping
only woken routers must produce bit-identical results to stepping every
router every cycle.  The full iteration lives here as the reference
(:func:`_step_every_router`, patched over ``network._step_routers``);
these tests run each architecture both ways and assert every
``SimulationResult`` field (including the full ``EventCounts``) matches
exactly, for open-loop uniform traffic and for the closed-loop NUCA
request/response source (whose RNG draw order is sensitive to ejection
ordering).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.arch import standard_configs
from repro.noc.simulator import Simulator
from repro.traffic.nuca import NucaUniformTraffic
from repro.traffic.synthetic import UniformRandomTraffic

CONFIGS = {config.name: config for config in standard_configs()}


def _traffic(config, kind: str, seed: int = 11):
    if kind == "uniform":
        return UniformRandomTraffic(
            num_nodes=config.num_nodes, flit_rate=0.1, seed=seed
        )
    return NucaUniformTraffic(
        cpu_nodes=config.cpu_nodes,
        cache_nodes=config.cache_nodes,
        request_rate=0.1,
        seed=seed,
    )


def _step_every_router(network):
    """The full-iteration reference for ``network._step_routers``: step
    every router in node order, each through its own ``Router.step``."""

    def step_routers(cycle: int) -> int:
        for router in network.routers:
            router.step(cycle)
        return len(network.routers)

    return step_routers


def _run(config, kind: str, active_scheduling: bool):
    network = config.build_network()
    if not active_scheduling:
        network._step_routers = _step_every_router(network)
    sim = Simulator(
        network,
        _traffic(config, kind),
        warmup_cycles=30,
        measure_cycles=200,
        drain_cycles=2500,
    )
    result = dataclasses.asdict(sim.run())
    # The profile (wall times) is the one legitimately non-deterministic
    # field; everything else must match bit for bit.
    result.pop("profile")
    return result, network


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("kind", ["uniform", "nuca"])
def test_scheduler_is_bit_identical(name, kind):
    config = CONFIGS[name]
    on, _ = _run(config, kind, active_scheduling=True)
    off, _ = _run(config, kind, active_scheduling=False)
    assert on == off


def test_scheduler_toggle_mid_run(cfg_2db):
    """The active set holds every busy unit at all times, so the
    scheduler and the full iteration can swap mid-run without losing
    work."""
    reference, _ = _run(cfg_2db, "uniform", active_scheduling=False)

    network = cfg_2db.build_network()
    full_iteration = _step_every_router(network)
    traffic = _traffic(cfg_2db, "uniform")
    sim = Simulator(
        network, traffic, warmup_cycles=30, measure_cycles=200,
        drain_cycles=2500,
    )
    original_tick = sim._tick

    def toggling_tick(generate):
        # Swap the mode every 17 cycles while the simulation runs.
        if network.cycle % 17 == 0:
            if "_step_routers" in vars(network):
                del network._step_routers
            else:
                network._step_routers = full_iteration
        original_tick(generate)

    sim._tick = toggling_tick
    result = dataclasses.asdict(sim.run())
    result.pop("profile")
    assert result == reference


def test_active_set_empties_after_drain(cfg_2db):
    _, network = _run(cfg_2db, "uniform", active_scheduling=True)
    # The drain stops once measured packets are delivered; unmeasured
    # background traffic may still be in flight, so run to quiescence.
    for _ in range(5000):
        if network.idle():
            break
        network.step()
    assert network.idle()
    # A unit leaves the active set as its buffer drains.
    assert network._active == set()


def test_quiescence_protocol(cfg_2db):
    """A fresh router is quiescent (no active unit); receiving a flit
    wakes its unit; draining makes it quiescent again."""
    from repro.noc.packet import data_packet

    network = cfg_2db.build_network()
    # This test hand-feeds a lone head flit straight into receive_flit,
    # outside the injection protocol whose bookkeeping the conservation
    # audit (REPRO_SANITIZE=1 runs) reconciles against.
    network.sanitizer = None
    router = network.routers[0]
    assert network._active == set()

    packet = data_packet(src=0, dst=1)
    flits = packet.make_flits(network.layer_groups)
    # Port 0 is the local port.
    router.receive_flit(0, 0, flits[0], cycle=0)
    assert network._active == {network.unit_index(0, 0, 0)}

    for _ in range(60):
        network.step()
    assert network._active == set()


def test_full_iteration_steps_every_router(cfg_2db):
    network = cfg_2db.build_network()
    network._step_routers = _step_every_router(network)
    assert network._step_routers(0) == network.topology.num_nodes
    assert network._active == set()


def test_active_scheduling_steps_only_woken_routers(cfg_2db):
    network = cfg_2db.build_network()
    assert network._step_routers(0) == 0
    network._active.add(network.unit_index(5, 0, 0))
    # Node 5's unit holds no work, so it is stepped once and then pruned.
    assert network._step_routers(1) == 1
    assert network._step_routers(2) == 0
