"""Logic-network representations (AIG, XAG, MIG, XMG, mixed)."""

from .base import GateType, LogicNetwork, lit, lit_node, lit_not, lit_phase, rep_view
from .aig import Aig
from .xag import Xag
from .mig import Mig
from .xmg import Xmg
from .mixed import MixedNetwork
from .convert import convert
from .lut_network import LutNetwork
from .netlist import CellNetlist

__all__ = [
    "GateType",
    "LogicNetwork",
    "lit",
    "lit_node",
    "lit_not",
    "lit_phase",
    "rep_view",
    "Aig",
    "Xag",
    "Mig",
    "Xmg",
    "MixedNetwork",
    "convert",
    "LutNetwork",
    "CellNetlist",
]
