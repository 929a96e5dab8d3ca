"""Experiment E4 — Table II: the EPFL best-results 6-LUT challenge protocol.

The paper strashes the published best 6-LUT results back into redundant AIGs
and shows that the MCH mapper alone (no logic optimization, no post-mapping
optimization) recovers or beats the record LUT counts, usually with better
levels.

Without the published record netlists we reproduce the *protocol* against
our own best-known results: a heavily optimized network is LUT-mapped to
give the "best known" reference, the LUT network is strashed back into a
redundant AIG (exactly what ABC's ``strash`` does to a record entry), and
the plain mapper vs the MCH (AIG+XMG) mapper remap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..circuits import build
from ..core import MchParams, build_mch
from ..flow import FlowContext, FlowRunner, optimize
from ..networks import Aig, Xmg
from .common import batch_map, format_table

__all__ = ["DEFAULT_CIRCUITS", "run_table2", "format_table2"]

DEFAULT_CIRCUITS = ["sin", "sqrt", "square", "hyp", "voter"]

#: Our stand-in for the published record: iterate XMG graph mapping to a
#: local optimum (at most four rounds), then area-map into K-LUTs.
RECORD_SCRIPT = "gm -r xmg; converge3( gm -r xmg ); if -k {k}"


@dataclass
class Table2Row:
    best_luts: int
    best_levels: int
    strash_luts: int
    strash_levels: int
    mch_luts: int
    mch_levels: int


def _record_task(task, ctx):
    """One Table-II circuit's challenge protocol as a batch task."""
    name, scale, k = task
    runner = FlowRunner(ctx)
    lut_script = f"if -k {k}"
    optimized = optimize(build(name, scale), "compress2rs", rounds=2, context=ctx)
    best = runner.run(optimized, RECORD_SCRIPT.format(k=k)).network

    # challenge protocol: strash the record back to a redundant AIG
    redundant = best.to_logic_network(Aig)

    plain = runner.run(redundant, lut_script).network
    # wide candidate generation (6-input cuts, larger MFFCs) — the LUT
    # challenge rewards structure recovery over speed
    mch = build_mch(redundant, MchParams(
        representations=(Xmg,), ratio=1.5, cut_size=6,
        max_cuts_per_node=4, mffc_max_pis=10,
    ))
    with_choices = runner.run(mch, lut_script).network

    return name, Table2Row(
        best_luts=best.num_luts(), best_levels=best.depth(),
        strash_luts=plain.num_luts(), strash_levels=plain.depth(),
        mch_luts=with_choices.num_luts(), mch_levels=with_choices.depth(),
    )


def run_table2(names: Optional[Sequence[str]] = None, scale: str = "small",
               k: int = 6, jobs: int = 1) -> Dict[str, Table2Row]:
    """Run the Table-II challenge protocol; returns circuit -> row.

    ``jobs>1`` shards the circuits across worker processes.
    """
    tasks = [(name, scale, k) for name in (names or DEFAULT_CIRCUITS)]
    pairs = batch_map(tasks, _record_task, jobs=jobs, context=FlowContext())
    return dict(pairs)


def format_table2(rows: Dict[str, Table2Row]) -> str:
    return format_table(
        ["circuit", "best.luts", "best.lev", "strash.luts", "strash.lev",
         "mch.luts", "mch.lev"],
        [[name, r.best_luts, r.best_levels, r.strash_luts, r.strash_levels,
          r.mch_luts, r.mch_levels] for name, r in rows.items()],
        title="Table II — EPFL best-result 6-LUT challenge protocol",
    )
