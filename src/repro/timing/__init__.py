"""Wire/crossbar delay models and pipeline-merge validation (Tables 2, 3).

The structural argument at the heart of MIRA (Sec. 3.4.1): splitting the
router over four layers quarters the crossbar wire length and halves the
inter-router link length, so switch traversal plus link traversal fit in a
single 500 ps stage at 2 GHz — one pipeline stage less per hop.
"""

from repro import _lazy_exports

_EXPORTS = {
    "CROSSBAR_WIRE_PITCH_UM": ".wires",
    "repeated_wire_delay_ps": ".wires",
    "unbuffered_crossbar_delay_ps": ".wires",
    "crossbar_delay_ps": ".delay",
    "link_delay_ps": ".delay",
    "can_combine_st_lt": ".delay",
    "stage_delay_report": ".delay",
    "DelayReport": ".delay",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
