#!/usr/bin/env python3
"""Custom standard-cell libraries: genlib, load-aware timing.

Demonstrates the library-facing API: parse a genlib, map with it, compare
the mapper's fixed-delay report with the load-aware STA, and write the
library back out as genlib text.

Run:  python examples/custom_library.py
"""

from repro.analysis import format_stats, netlist_stats
from repro.circuits import build
from repro.mapping import asic_map, parse_genlib, write_genlib
from repro.mapping.timing import critical_path, sta
from repro.networks import Aig
from repro.sat import cec

MINIMAL_GENLIB = """
GATE inv    1.0  O=!A;        PIN * INV 1 999 8.0 0.0 8.0 0.0
GATE nand2  2.0  O=!(A*B);    PIN * INV 1 999 11.0 0.0 11.0 0.0
GATE nor2   2.0  O=!(A+B);    PIN * INV 1 999 13.0 0.0 13.0 0.0
GATE xnor2  5.0  O=!(A^B);    PIN * INV 1 999 24.0 0.0 24.0 0.0
GATE oai21  3.0  O=!((A+B)*C); PIN * INV 1 999 15.0 0.0 15.0 0.0
"""


def main() -> None:
    lib = parse_genlib(MINIMAL_GENLIB, name="minimal")
    print(f"parsed {lib}")

    circuit = build("int2float", "small")
    print(f"subject: {circuit}")

    netlist = asic_map(circuit, library=lib, objective="delay")
    print("\n-- minimal NAND/NOR library --")
    print(format_stats(netlist_stats(netlist)))
    assert cec(circuit, netlist.to_logic_network(Aig))

    # load-aware timing vs the mapper's fixed-delay model
    arrivals = sta(netlist)
    worst = max(arrivals[p] for p in netlist.pos)
    path = critical_path(netlist)
    print(f"\nfixed-delay model: {netlist.delay():.1f} ps")
    print(f"load-aware STA:    {worst:.1f} ps over {len(path)} nets")

    # the library round-trips through genlib text
    text = write_genlib(lib)
    assert len(parse_genlib(text)) == len(lib)
    print("\ngenlib round-trip OK")


if __name__ == "__main__":
    main()
