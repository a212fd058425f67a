"""Network topologies for the MIRA evaluation.

Three topologies appear in the paper (Sec. 4.1.1, Figs. 3, 7, 10):

* a 6x6 2D mesh used by the 2DB, 3DM and 3DM-E architectures,
* a 3x3x4 3D mesh used by the 3DB architecture, and
* a 6x6 express mesh (2D mesh plus multi-hop express channels, Fig. 7)
  used by 3DM-E.

The library additionally ships fabrics beyond the paper — a
bidirectional :class:`~repro.topology.ring.Ring`, a
:class:`~repro.topology.chiplet.ChipletMesh` with centered IO hubs, and
JSON-defined :class:`~repro.topology.irregular.IrregularTopology` graphs
— routed by the generic table substrate rather than coordinate rules.

All topologies expose the :class:`~repro.topology.base.Topology` interface:
a set of nodes with geometric coordinates and a set of directed links with
named ports, physical lengths and link kinds.
"""

from repro import _lazy_exports

_EXPORTS = {
    "LinkKind": ".base",
    "LinkSpec": ".base",
    "Topology": ".base",
    "Mesh2D": ".mesh2d",
    "Mesh3D": ".mesh3d",
    "ExpressMesh": ".express_mesh",
    "Torus2D": ".torus",
    "Ring": ".ring",
    "ChipletMesh": ".chiplet",
    "IrregularTopology": ".irregular",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
