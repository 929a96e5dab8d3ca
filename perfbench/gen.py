"""Seeded random AIG generator for the large input of the ``lut_mch`` workload.

Each new AND gate draws both fanins, with random complements, from a window
of the most recently created nodes (PIs included at the start).  A narrow
window keeps the network deep and local, the shape of a long datapath; the
window width sets the depth.  Every gate nobody reads becomes a PO, so the
whole network is live.

The program under test never sees the generator: the benchmark builds the
network here and passes only the finished :class:`repro.Aig`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class GenParams:
    """Shape of the generated network (all the generator reads besides the seed)."""

    n_pis: int = 64
    n_gates: int = 20000
    window: int = 64


def generate(aig_cls, seed: int, params: GenParams = GenParams()):
    """Build a random AIG of exactly ``params.n_gates`` AND gates.

    ``aig_cls`` is the network class to fill (``repro.Aig``); it is passed
    in so this module imports nothing from the program.  Structural hashing
    may fold a drawn pair into an existing gate or a constant; such draws
    are simply retried, so the gate count is exact.
    """
    rng = random.Random(seed)
    aig = aig_cls()
    recent = [aig.create_pi() for _ in range(params.n_pis)]
    last_node = recent[-1] >> 1
    n_gates = 0
    while n_gates < params.n_gates:
        lo = max(0, len(recent) - params.window)
        a = recent[rng.randrange(lo, len(recent))] ^ rng.getrandbits(1)
        b = recent[rng.randrange(lo, len(recent))] ^ rng.getrandbits(1)
        g = aig.create_and(a, b)
        if g >> 1 > last_node:           # a new node, not a strash hit
            last_node = g >> 1
            recent.append(g & ~1)
            n_gates += 1
    read = set()
    for node in aig.gates():
        for f in aig.fanins(node):
            read.add(f >> 1)
    for node in aig.gates():
        if node not in read:
            aig.create_po(node << 1)
    return aig


def describe(aig, seed: int, params: GenParams) -> dict:
    """The run-record entry of a generated network."""
    return {"seed": seed, **asdict(params), "gates": aig.num_gates(),
            "depth": aig.depth(), "pos": aig.num_pos()}
