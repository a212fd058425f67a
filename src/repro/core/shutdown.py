"""Short-flit detection and dynamic layer shutdown (Secs. 3.2.1, 4.2.2).

A *short flit* carries valid data only in its top word group; the zero
detector (one per layer) recognises redundant all-0/all-1 groups and clock
gates the corresponding buffer/crossbar/link slices in the lower layers.
The detector itself costs a small energy overhead per flit, which the
paper argues is negligible against the avoided bit-line switching.

The zero detector's classification of raw flit words is
:func:`~repro.traffic.patterns.flit_active_groups`; the simulated pipeline
carries its result on every flit (``Flit.active_groups``), and the
network's per-layer event histograms price exactly the layers each flit
switched.  :func:`shutdown_power_factor` is the closed-form model behind
Fig. 13b: the expected dynamic-power multiplier on the separable datapath
for a given short-flit fraction, kept as the reference the simulated
savings are checked against.
"""

from __future__ import annotations

#: Fractional energy overhead of the per-layer zero detectors, relative to
#: the separable-datapath energy of a full flit.  The paper calls it
#: negligible; we keep it explicit and small.
DETECTOR_OVERHEAD = 0.01


def shutdown_power_factor(
    short_fraction: float,
    layers: int = 4,
    detector_overhead: float = DETECTOR_OVERHEAD,
) -> float:
    """Expected dynamic-power multiplier on the *separable* datapath.

    A short flit switches only ``1/layers`` of the sliced datapath; a long
    flit switches all of it.  Every flit pays the detector overhead:

    ``factor = (1 - s) + s / L + overhead``

    With ``s = 0.5`` and ``L = 4`` this gives ~0.635 — i.e. ~36% separable
    power saved, the paper's headline shutdown number (Sec. 4.2.2).
    """
    if not 0.0 <= short_fraction <= 1.0:
        raise ValueError(f"short_fraction must be in [0, 1], got {short_fraction}")
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    if detector_overhead < 0:
        raise ValueError("detector_overhead must be non-negative")
    return (1.0 - short_fraction) + short_fraction / layers + detector_overhead
