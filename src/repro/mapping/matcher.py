"""Boolean matching of cut functions against library cells.

The matcher pre-expands every library cell over all input permutations and
input polarities and indexes the resulting functions in a hash table, so
matching a cut during mapping is a single dictionary lookup on the cut
function (Boolean matching by total enumeration, practical for cells with up
to 4-5 pins).  Output polarity is *not* free in a standard-cell netlist, so a
cut is looked up separately in both polarities by the phase-aware mapper.

Complemented pins do not instantiate inverters here: pin polarity is simply
the *phase* of the leaf signal the mapper requests, and the mapper decides
whether that phase comes for free (e.g. a NAND output) or costs an inverter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..truth.truth_table import TruthTable
from .library import Cell, Library

__all__ = ["Match", "MatchTable"]


@dataclass(frozen=True)
class Match:
    """One way to realize a function with a cell.

    ``leaf_of_pin[i]`` is the function-variable index driving pin ``i``;
    ``pin_phases[i]`` is True when pin ``i`` consumes the complemented
    leaf signal.  ``pins`` zips both with the cell's pin delays into one
    ``(variable, leaf phase, pin delay)`` row per pin, the form the mapper's
    inner loops read.
    """

    cell: Cell
    leaf_of_pin: Tuple[int, ...]
    pin_phases: Tuple[bool, ...]
    pins: Tuple[Tuple[int, int, float], ...] = field(init=False, repr=False,
                                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pins", tuple(zip(
            self.leaf_of_pin, map(int, self.pin_phases), self.cell.pin_delays)))


class MatchTable:
    """Hash-based exact Boolean matcher for a cell library."""

    def __init__(self, library: Library, max_pins: int = 4):
        self.library = library
        self.max_pins = min(max_pins, library.max_pins)
        self._table: Dict[Tuple[int, int], List[Match]] = {}
        for cell in library:
            if 1 <= cell.num_pins <= self.max_pins:
                self._expand(cell)

    def _expand(self, cell: Cell) -> None:
        m = cell.num_pins
        seen_profiles = {}
        for perm in itertools.permutations(range(m)):
            for ph in range(1 << m):
                phases = tuple(bool((ph >> i) & 1) for i in range(m))
                # variable i drives pin perm[i] with polarity phases[i]
                tt = cell.function
                variant_bits = 0
                for x in range(1 << m):
                    y = 0
                    for i in range(m):
                        bit = ((x >> i) & 1) ^ int(phases[i])
                        if bit:
                            y |= 1 << perm[i]
                    if (tt.bits >> y) & 1:
                        variant_bits |= 1 << x
                key = (m, variant_bits)
                leaf_of_pin = [0] * m
                pin_phases = [False] * m
                for i in range(m):
                    leaf_of_pin[perm[i]] = i
                    pin_phases[perm[i]] = phases[i]
                # deduplicate matches that are indistinguishable in cost
                profile = (
                    cell.name,
                    tuple(sorted(
                        (leaf_of_pin[p], pin_phases[p], cell.pin_delays[p])
                        for p in range(m)
                    )),
                )
                bucket = seen_profiles.setdefault(key, set())
                if profile in bucket:
                    continue
                bucket.add(profile)
                self._table.setdefault(key, []).append(
                    Match(cell, tuple(leaf_of_pin), tuple(pin_phases))
                )

    def lookup(self, tt: TruthTable) -> List[Match]:
        """Matches realizing exactly ``tt`` (same polarity)."""
        return self._table.get((tt.num_vars, tt.bits), [])

    def num_entries(self) -> int:
        return sum(len(v) for v in self._table.values())
