"""Independent output check: the benchmark's own evaluator of the input AIG.

The reference values come from this module alone.  It reads the input
network only through its public structure (``pis``, ``pos``, ``num_nodes``,
``node_type`` and ``fanins``) and never calls ``repro.sim`` or ``repro.sat``,
so a bug in the program's simulator or SAT solver cannot hide a wrong
result.  The mapped output is evaluated through its own
``simulate_patterns``, and the two are compared PO by PO.

Networks with at most :data:`EXHAUSTIVE_PIS` PIs are checked on every input
pattern; wider ones on :data:`RANDOM_PATTERNS` patterns drawn from the
caller's seed.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

EXHAUSTIVE_PIS = 16
RANDOM_PATTERNS = 1024


def patterns(n_pis: int, seed: int) -> Tuple[List[int], int]:
    """Bit-parallel PI stimulus ``(words, mask)``: bit ``j`` of every word is
    pattern ``j``.  Exhaustive up to :data:`EXHAUSTIVE_PIS` PIs, else seeded."""
    if n_pis > EXHAUSTIVE_PIS:
        rng = random.Random(seed)
        return ([rng.getrandbits(RANDOM_PATTERNS) for _ in range(n_pis)],
                (1 << RANDOM_PATTERNS) - 1)
    width = 1 << n_pis
    words = []
    for i in range(n_pis):
        half = 1 << i
        word, period = ((1 << half) - 1) << half, 2 * half
        while period < width:            # replicate the period up to width
            word |= word << period
            period *= 2
        words.append(word)
    return words, (1 << width) - 1


def eval_network(ntk, words: Sequence[int], mask: int) -> List[int]:
    """PO values of a logic network under ``words``, by a plain gate walk."""
    kinds = {}
    vals = [0] * ntk.num_nodes()
    for word, node in zip(words, ntk.pis):
        vals[node] = word & mask

    def value(literal: int) -> int:
        v = vals[literal >> 1]
        return v ^ mask if literal & 1 else v

    for node in range(ntk.num_nodes()):
        t = ntk.node_type(node)
        kind = kinds.get(t)
        if kind is None:
            kind = kinds[t] = t.name
        if kind in ("CONST", "PI"):
            continue
        ins = [value(f) for f in ntk.fanins(node)]
        if kind == "AND":
            vals[node] = ins[0] & ins[1]
        elif kind == "XOR":
            vals[node] = ins[0] ^ ins[1]
        elif kind == "MAJ":
            a, b, c = ins
            vals[node] = (a & b) | (a & c) | (b & c)
        elif kind == "XOR3":
            vals[node] = ins[0] ^ ins[1] ^ ins[2]
        else:
            raise ValueError(f"unknown gate kind {kind} at node {node}")
    return [value(po) for po in ntk.pos]


def output_values(state, words: Sequence[int], mask: int) -> List[int]:
    """PO values of a flow's final state through its own ``simulate_patterns``.

    LUT networks list POs as ``(node, phase)``, cell netlists as nets and
    logic networks as literals.
    """
    vals = state.simulate_patterns(list(words), mask)
    out = []
    for po in state.pos:
        if isinstance(po, tuple):
            node, phase = po
            out.append(vals[node] ^ (mask if phase else 0))
        elif hasattr(state, "num_cells"):
            out.append(vals[po])
        else:
            out.append(vals[po >> 1] ^ (mask if po & 1 else 0))
    return out


def check(source, state, seed: int) -> str:
    """Compare ``state`` with ``source``; returns "" when they agree, else
    a one-line reason naming the first differing PO."""
    n_pis = len(source.pis)
    if len(state.pis) != n_pis or len(state.pos) != len(source.pos):
        return (f"interface {len(state.pis)}/{len(state.pos)} PIs/POs, "
                f"expected {n_pis}/{len(source.pos)}")
    words, mask = patterns(n_pis, seed)
    want = eval_network(source, words, mask)
    got = output_values(state, words, mask)
    for i, (w, g) in enumerate(zip(want, got)):
        if w != g:
            bit = ((w ^ g) & -(w ^ g)).bit_length() - 1
            return f"PO {i} differs on pattern {bit}"
    return ""
