"""Micro-benchmark: the flat struct-of-arrays core vs the object-walking paths.

Measures, on the largest bundled circuit at the selected scale:

* flat snapshot construction (``FlatNetwork.from_network``) and the exact
  ``to_network`` round-trip (fingerprint-checked);
* bit-parallel simulation through the flat-compiled program vs the
  re-frozen seed simulator of ``_baseline_flat.py`` — outputs must be
  **bit-identical**, speedup must be >= 1;
* Tseitin encoding straight from the flat arrays vs the re-frozen
  dict-based builder — identical variable numbering, clause list and PO
  literals, speedup >= 1.

Results are written to ``benchmarks/results/BENCH_flat.json``.  Run
standalone (``python benchmarks/bench_flat.py``) or under pytest.
"""

import json
import random
import time

import pytest

from conftest import RESULTS_DIR, SCALE

from _baseline_flat import BaselineCnfBuilder, baseline_simulate_words
from repro.batch import state_fingerprint
from repro.circuits import ALL_BENCHMARKS, build
from repro.networks.flat import FlatNetwork
from repro.sat.cnf import CnfBuilder
from repro.sim import simulate_words

#: simulation width in bits (64-bit words per PI)
SIM_BITS = 1024
#: timed repetitions of each simulation path
SIM_ROUNDS = 5


def largest_circuit(scale: str):
    """(name, network) of the bundled circuit with the most gates."""
    best_name, best_ntk = None, None
    for name in ALL_BENCHMARKS:
        ntk = build(name, scale)
        if best_ntk is None or ntk.num_gates() > best_ntk.num_gates():
            best_name, best_ntk = name, ntk
    return best_name, best_ntk


def _stimulus(n_pis: int, bits: int, seed: int = 7):
    rng = random.Random(seed)
    mask = (1 << bits) - 1
    return [rng.getrandbits(bits) for _ in range(n_pis)], mask


def measure(scale: str = SCALE) -> dict:
    name, ntk = largest_circuit(scale)

    # -- snapshot + round trip -------------------------------------------
    t0 = time.perf_counter()
    snap = FlatNetwork.from_network(ntk)
    t_snap = time.perf_counter() - t0
    t0 = time.perf_counter()
    back = snap.to_network()
    t_back = time.perf_counter() - t0
    round_trip_exact = state_fingerprint(back) == state_fingerprint(ntk)

    # -- simulation -------------------------------------------------------
    patterns, mask = _stimulus(ntk.num_pis(), SIM_BITS)
    simulate_words(ntk, patterns, mask)   # warm the compiled program cache
    t0 = time.perf_counter()
    for _ in range(SIM_ROUNDS):
        flat_vals = simulate_words(ntk, patterns, mask)
    t_sim = (time.perf_counter() - t0) / SIM_ROUNDS
    t0 = time.perf_counter()
    for _ in range(SIM_ROUNDS):
        base_vals = baseline_simulate_words(ntk, patterns, mask)
    t_sim_base = (time.perf_counter() - t0) / SIM_ROUNDS
    sim_identical = flat_vals == base_vals

    # -- Tseitin encoding -------------------------------------------------
    t0 = time.perf_counter()
    flat_cnf = CnfBuilder()
    flat_vars, flat_pos = flat_cnf.encode(ntk)
    t_enc = time.perf_counter() - t0
    t0 = time.perf_counter()
    base_cnf = BaselineCnfBuilder()
    base_vars, base_pos = base_cnf.encode(ntk)
    t_enc_base = time.perf_counter() - t0
    enc_identical = (flat_cnf.num_vars == base_cnf.num_vars
                     and flat_cnf.clauses == base_cnf.clauses
                     and dict(flat_vars) == dict(base_vars)
                     and list(flat_pos) == list(base_pos))

    return {
        "circuit": name,
        "scale": scale,
        "nodes": ntk.num_nodes(),
        "gates": ntk.num_gates(),
        "snapshot_seconds": round(t_snap, 6),
        "to_network_seconds": round(t_back, 6),
        "round_trip_exact": round_trip_exact,
        "sim_bits": SIM_BITS,
        "sim_seconds": round(t_sim, 6),
        "baseline_sim_seconds": round(t_sim_base, 6),
        "sim_speedup": round(t_sim_base / t_sim, 3) if t_sim > 0 else 0.0,
        "sim_bit_identical": sim_identical,
        "encode_seconds": round(t_enc, 6),
        "baseline_encode_seconds": round(t_enc_base, 6),
        "encode_speedup": round(t_enc_base / t_enc, 3) if t_enc > 0 else 0.0,
        "encode_identical": enc_identical,
        "clauses": len(flat_cnf.clauses),
    }


def _measure_with_retry() -> dict:
    """One timing retry absorbs scheduler noise on shared CI runners."""
    result = measure()
    if result["sim_speedup"] < 1.0 or result["encode_speedup"] < 1.0:
        result = measure()
    return result


def write_json(result: dict) -> None:
    path = RESULTS_DIR / "BENCH_flat.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {path}")
    print(json.dumps(result, indent=2))


@pytest.mark.benchmark(group="flat")
def test_bench_flat(benchmark):
    result = benchmark.pedantic(_measure_with_retry, rounds=1, iterations=1)
    write_json(result)
    assert result["round_trip_exact"]
    assert result["sim_bit_identical"] and result["encode_identical"]
    # the flat paths must never lose to the object-walking baselines
    assert result["sim_speedup"] >= 1.0
    assert result["encode_speedup"] >= 1.0


if __name__ == "__main__":
    write_json(_measure_with_retry())
