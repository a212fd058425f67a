"""Event-driven NUCA CMP memory hierarchy (Sec. 4.1.2, Table 4).

The paper generates its "MP trace" network workloads by running
applications on Simics through a two-level directory-coherent memory
hierarchy: private write-back L1s, a shared SNUCA L2 split into 28 banks
on the NoC, MESI with distributed directories, and a 400-cycle DRAM
backing store.  This package rebuilds that machinery:

* :mod:`repro.cache.messages` — coherence message vocabulary and its
  mapping onto network packets (control vs data, Fig. 2).
* :mod:`repro.cache.cachesim` — set-associative cache arrays with LRU and
  MESI line states.
* :mod:`repro.cache.cpu` — workload-parameterised synthetic address
  streams (the Simics substitute; see DESIGN.md).
* :mod:`repro.cache.directory` — per-bank MESI directory controllers.
* :mod:`repro.cache.hierarchy` — the event engine binding CPUs, L1s and
  banks through a transport that is either a fixed-latency model (fast
  trace generation) or the real NoC simulator (closed-loop mode).
"""

from repro import _lazy_exports

_EXPORTS = {
    "MessageType": ".messages",
    "CoherenceMessage": ".messages",
    "CacheArray": ".cachesim",
    "LineState": ".cachesim",
    "AddressStream": ".cpu",
    "DirectoryBank": ".directory",
    "CmpSystem": ".hierarchy",
    "HierarchyStats": ".hierarchy",
    "generate_trace": ".hierarchy",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
