"""Simulator performance benchmark (cycles/second of host time).

The only benchmark here measured over multiple rounds: how fast the
cycle-accurate model runs.  Useful for tracking performance regressions
in the hot loop (router step / allocation) across changes.

Low-load points are where the active-set scheduler pays: at 0.05
flits/node/cycle most routers are quiescent most cycles and only the
woken subset is stepped.

The ring point routes from escape-VC tables, so its VA stage runs the
VC-disciplined path the meshes never reach.
"""

from repro.core.arch import make_2db, make_3dme, make_ring
from repro.noc.simulator import Simulator
from repro.traffic.synthetic import UniformRandomTraffic

CYCLES = 1500
RATE = 0.2
LOW_RATE = 0.05


def _run_once(config, rate=RATE):
    network = config.build_network()
    sim = Simulator(
        network,
        UniformRandomTraffic(num_nodes=config.num_nodes, flit_rate=rate, seed=3),
        warmup_cycles=0,
        measure_cycles=CYCLES,
        drain_cycles=0,
    )
    return sim.run()


def test_simulation_speed_2db(benchmark):
    result = benchmark.pedantic(
        lambda: _run_once(make_2db()), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.cycles >= CYCLES


def test_simulation_speed_3dme(benchmark):
    """The 9-port express router is the most expensive to simulate."""
    result = benchmark.pedantic(
        lambda: _run_once(make_3dme()), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.cycles >= CYCLES


def test_simulation_speed_ring(benchmark):
    config = make_ring()
    assert config.build_network().routing.has_vc_discipline
    result = benchmark.pedantic(
        lambda: _run_once(config), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.cycles >= CYCLES


def test_simulation_speed_2db_low_load(benchmark):
    result = benchmark.pedantic(
        lambda: _run_once(make_2db(), rate=LOW_RATE),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert result.cycles >= CYCLES


def test_simulation_speed_3dme_low_load(benchmark):
    result = benchmark.pedantic(
        lambda: _run_once(make_3dme(), rate=LOW_RATE),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert result.cycles >= CYCLES
