#!/usr/bin/env python3
"""ASIC mapping flow: Table-I style comparison on one benchmark.

Runs the six mapping configurations of the paper's Table I on a chosen
EPFL-analogue circuit and prints the comparison, then dumps the best netlist
as structural Verilog.

Run:  python examples/asic_mapping_flow.py [circuit] [scale]
      (default: max small)
"""

import sys

from repro.circuits import ALL_BENCHMARKS, build
from repro.experiments import format_results, run_circuit
from repro.experiments.table1 import CONFIG_ORDER
from repro.io import write_verilog_netlist
from repro.flow import optimize
from repro.mapping import asic_map


def main() -> None:
    circuit = sys.argv[1] if len(sys.argv) > 1 else "max"
    scale = sys.argv[2] if len(sys.argv) > 2 else "small"
    if circuit not in ALL_BENCHMARKS:
        raise SystemExit(f"unknown circuit {circuit!r}; choose from {ALL_BENCHMARKS}")

    ntk = build(circuit, scale)
    print(f"benchmark '{circuit}' ({scale}): {ntk}")

    rows = run_circuit(ntk)
    print()
    print(format_results({circuit: rows}))

    best_cfg = min(CONFIG_ORDER, key=lambda c: rows[c].area * rows[c].delay)
    print(f"\nbest area-delay product: {best_cfg}")

    netlist = asic_map(optimize(ntk, "compress2rs"), objective="delay")
    verilog = write_verilog_netlist(netlist, module=circuit)
    out_path = f"{circuit}_mapped.v"
    with open(out_path, "w") as f:
        f.write(verilog)
    print(f"wrote {out_path} ({netlist.num_cells()} cells)")
    print("cell histogram:", dict(sorted(netlist.cell_histogram().items())))


if __name__ == "__main__":
    main()
