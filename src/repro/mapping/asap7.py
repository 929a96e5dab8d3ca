"""A synthetic ASAP7-flavoured standard-cell library.

The paper maps onto the Arizona State Predictive PDK 7 nm (ASAP7) library.
That liberty file is not redistributable here, so this module defines a
compact genlib-style library whose *cell set* mirrors the combinational
subset of ASAP7 RVT (inverter/buffer, NAND/NOR/AND/OR 2-4, AOI/OAI 21/22/211,
AO/OA 21/22, XOR/XNOR, MAJ/MAJI, O21BAI — the cell the paper's Fig. 2 netlist
uses) and whose area (µm²) and delay (ps) values follow the relative cost
structure of published ASAP7 numbers (7.5-track cells, ~0.0541 µm² per
NAND2-equivalent; XOR ≈ 2.5x NAND2 area and ~2x its delay; 3-input MAJ built
on the transmission-gate variant).

Absolute PPA is therefore *modeled*, not measured — the experiments compare
mapping strategies against each other on the same library, so only the
relative cost structure matters (see DESIGN.md §2).

The 3-input XOR3/XNOR3 cells are modeled as XOR2 cascades, not as
supergates: they are ordinary cells with twice XOR2x1's area and delay.
"""

from __future__ import annotations

from functools import lru_cache

from ..truth.truth_table import TruthTable
from .library import Cell, Library

__all__ = ["asap7_library"]


def _tt(num_vars: int, fn) -> TruthTable:
    return TruthTable.from_function(num_vars, fn)


# name, num_vars, function, area (µm²), per-pin delay (ps)
_CELLS = [
    ("INVx1",    1, lambda a: not a,                         0.054, (8.0,)),
    ("BUFx2",    1, lambda a: a,                             0.081, (12.0,)),
    ("NAND2x1",  2, lambda a, b: not (a and b),              0.081, (10.0, 10.0)),
    ("NOR2x1",   2, lambda a, b: not (a or b),               0.081, (12.0, 12.0)),
    ("AND2x2",   2, lambda a, b: a and b,                    0.108, (16.0, 16.0)),
    ("OR2x2",    2, lambda a, b: a or b,                     0.108, (18.0, 18.0)),
    ("NAND3x1",  3, lambda a, b, c: not (a and b and c),     0.108, (14.0, 14.0, 14.0)),
    ("NOR3x1",   3, lambda a, b, c: not (a or b or c),       0.108, (17.0, 17.0, 17.0)),
    ("AND3x1",   3, lambda a, b, c: a and b and c,           0.135, (19.0, 19.0, 19.0)),
    ("OR3x1",    3, lambda a, b, c: a or b or c,             0.135, (21.0, 21.0, 21.0)),
    ("NAND4x1",  4, lambda a, b, c, d: not (a and b and c and d), 0.135, (17.0, 17.0, 17.0, 17.0)),
    ("NOR4x1",   4, lambda a, b, c, d: not (a or b or c or d),    0.135, (21.0, 21.0, 21.0, 21.0)),
    ("AOI21x1",  3, lambda a, b, c: not ((a and b) or c),    0.108, (14.0, 14.0, 11.0)),
    ("OAI21x1",  3, lambda a, b, c: not ((a or b) and c),    0.108, (14.0, 14.0, 11.0)),
    ("AOI22x1",  4, lambda a, b, c, d: not ((a and b) or (c and d)), 0.135, (16.0, 16.0, 16.0, 16.0)),
    ("OAI22x1",  4, lambda a, b, c, d: not ((a or b) and (c or d)),  0.135, (16.0, 16.0, 16.0, 16.0)),
    ("AO21x1",   3, lambda a, b, c: (a and b) or c,          0.135, (18.0, 18.0, 15.0)),
    ("OA21x1",   3, lambda a, b, c: (a or b) and c,          0.135, (18.0, 18.0, 15.0)),
    ("AOI211x1", 4, lambda a, b, c, d: not ((a and b) or c or d), 0.135, (17.0, 17.0, 14.0, 14.0)),
    ("OAI211x1", 4, lambda a, b, c, d: not (((a or b) and c) or d), 0.135, (17.0, 17.0, 14.0, 14.0)),
    # the cell featured in the paper's Fig. 2 mapped netlist
    ("O21BAIx1", 3, lambda a, b, c: not ((a or b) and (not c)), 0.122, (15.0, 15.0, 12.0)),
    ("XOR2x1",   2, lambda a, b: a != b,                     0.189, (22.0, 22.0)),
    ("XNOR2x1",  2, lambda a, b: a == b,                     0.189, (22.0, 22.0)),
    ("MAJx2",    3, lambda a, b, c: (a + b + c) >= 2,        0.216, (24.0, 24.0, 24.0)),
    ("MAJIx2",   3, lambda a, b, c: (a + b + c) < 2,         0.203, (22.0, 22.0, 22.0)),
    # XOR3 family, modeled as an XOR2 cascade (twice XOR2x1's area and delay)
    ("XOR3xp5",  3, lambda a, b, c: (a + b + c) % 2 == 1,    0.378, (44.0, 44.0, 44.0)),
    ("XNOR3xp5", 3, lambda a, b, c: (a + b + c) % 2 == 0,    0.378, (44.0, 44.0, 44.0)),
]


@lru_cache(maxsize=1)
def asap7_library() -> Library:
    """The synthetic ASAP7-like library used by all ASIC experiments.

    Memoized: every ``asic_map`` call shares one library object, which also
    lets the engine's :func:`~repro.mapping.engine.library_cost_model` reuse
    one pre-expanded match table across calls.
    """
    cells = []
    for name, nv, fn, area, delays in _CELLS:
        cells.append(
            Cell(
                name=name,
                function=_tt(nv, fn),
                area=area,
                pin_delays=delays,
                pin_names=tuple("ABCD"[:nv]),
            )
        )
    return Library("asap7-like", cells)
