"""Mapped standard-cell netlists (the result of ASIC technology mapping)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..truth.truth_table import TruthTable, var_mask
from .base import LogicNetwork

__all__ = ["CellNetlist"]


class CellNetlist:
    """A gate-level netlist of single-output library cells.

    Each net is an integer; net 0 / net 1 are the constant-0 / constant-1
    nets (zero-cost tie nets, reported separately from cell area).  Every
    other net is driven either by a PI or by exactly one cell instance.
    """

    def __init__(self, library_name: str = ""):
        self.library_name = library_name
        self._drivers: List[Optional[Tuple]] = [None, None]  # net -> (cell, fanin nets)
        self._is_pi: List[bool] = [False, False]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[int] = []
        self._po_names: List[str] = []

    @property
    def const0(self) -> int:
        return 0

    @property
    def const1(self) -> int:
        return 1

    def create_pi(self, name: Optional[str] = None) -> int:
        net = len(self._drivers)
        self._drivers.append(None)
        self._is_pi.append(True)
        self._pis.append(net)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return net

    def add_cell(self, cell, fanin_nets: Sequence[int]) -> int:
        if len(fanin_nets) != cell.num_pins:
            raise ValueError(f"{cell.name} needs {cell.num_pins} fanins")
        if any(f >= len(self._drivers) for f in fanin_nets):
            raise ValueError("fanin net does not exist")
        net = len(self._drivers)
        self._drivers.append((cell, tuple(fanin_nets)))
        self._is_pi.append(False)
        return net

    def create_po(self, net: int, name: Optional[str] = None) -> None:
        self._pos.append(net)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")

    # -- metrics -----------------------------------------------------------

    @property
    def pis(self) -> List[int]:
        return list(self._pis)

    @property
    def pos(self) -> List[int]:
        return list(self._pos)

    def num_cells(self) -> int:
        return sum(1 for d in self._drivers if d is not None)

    def cell_histogram(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for d in self._drivers:
            if d is not None:
                out[d[0].name] = out.get(d[0].name, 0) + 1
        return out

    def area(self) -> float:
        """Total cell area (µm² with the bundled library)."""
        return sum(d[0].area for d in self._drivers if d is not None)

    def arrival_times(self) -> List[float]:
        arr = [0.0] * len(self._drivers)
        for net, d in enumerate(self._drivers):
            if d is None:
                continue
            cell, fis = d
            arr[net] = max(
                (arr[f] + cell.pin_delays[i] for i, f in enumerate(fis)), default=0.0
            )
        return arr

    def delay(self) -> float:
        """Critical-path delay (ps with the bundled library)."""
        arr = self.arrival_times()
        return max((arr[n] for n in self._pos), default=0.0)

    def levels(self) -> List[int]:
        lev = [0] * len(self._drivers)
        for net, d in enumerate(self._drivers):
            if d is not None:
                lev[net] = 1 + max((lev[f] for f in d[1]), default=0)
        return lev

    def switching_power(self, patterns: int = 256, seed: int = 5) -> float:
        """Dynamic-power proxy: Σ toggle-rate(net) · area(driver).

        Simulates random input vectors and weighs each net's toggle
        probability by its driving cell's area (a standard capacitance
        proxy).  Arbitrary units; useful for *relative* comparisons between
        mappings of the same function.
        """
        import random

        rng = random.Random(seed)
        width = patterns
        mask = (1 << width) - 1
        stim = [rng.getrandbits(width) for _ in self._pis]
        vals = self.simulate_patterns(stim, mask)
        power = 0.0
        for net, d in enumerate(self._drivers):
            if d is None:
                continue
            v = vals[net]
            toggles = bin((v ^ (v >> 1)) & (mask >> 1)).count("1")
            rate = toggles / max(width - 1, 1)
            power += rate * d[0].area
        return power

    # -- simulation / verification -------------------------------------------

    def simulate_patterns(self, pi_patterns: Sequence[int], mask: int) -> List[int]:
        vals = [0, mask] + [0] * (len(self._drivers) - 2)
        for i, n in enumerate(self._pis):
            vals[n] = pi_patterns[i] & mask
        for net, d in enumerate(self._drivers):
            if d is None:
                continue
            cell, fis = d
            tt = cell.function
            out = 0
            for m in range(1 << len(fis)):
                if tt.get_bit(m):
                    term = mask
                    for i, f in enumerate(fis):
                        term &= vals[f] if (m >> i) & 1 else (vals[f] ^ mask)
                    out |= term
            vals[net] = out
        return vals

    def simulate(self, assignment: Sequence[bool]) -> List[bool]:
        vals = self.simulate_patterns([1 if b else 0 for b in assignment], 1)
        return [bool(vals[n] & 1) for n in self._pos]

    def simulate_truth_tables(self) -> List[TruthTable]:
        n = len(self._pis)
        if n > 20:
            raise ValueError("too many PIs for exhaustive simulation")
        mask = (1 << (1 << n)) - 1 if n else 1
        patterns = [var_mask(n, i) for i in range(n)]
        vals = self.simulate_patterns(patterns, mask)
        return [TruthTable(n, vals[net]) for net in self._pos]

    def to_logic_network(self, cls: Type[LogicNetwork]) -> LogicNetwork:
        """Resynthesize into a logic network (for CEC against the source)."""
        from ..synthesis.factoring import synthesize_tt

        ntk = cls()
        mapping: Dict[int, int] = {0: ntk.const0, 1: ntk.const1}
        for name, net in zip(self._pi_names, self._pis):
            mapping[net] = ntk.create_pi(name)
        for net, d in enumerate(self._drivers):
            if d is None:
                continue
            cell, fis = d
            mapping[net] = synthesize_tt(
                ntk, cell.function, [mapping[f] for f in fis], method="sop"
            )
        for net, name in zip(self._pos, self._po_names):
            ntk.create_po(mapping[net], name)
        return ntk

    def __repr__(self) -> str:
        return (
            f"<CellNetlist cells={self.num_cells()} area={self.area():.2f} "
            f"delay={self.delay():.2f}>"
        )
