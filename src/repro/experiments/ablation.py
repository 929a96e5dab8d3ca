"""Ablations A1/A2 — the design choices DESIGN.md calls out.

* sweep of the critical-path ratio ``r`` (how wide the level-oriented
  region is);
* sweep of the mapper cut limit ``l`` with and without choice-cut merging
  (Algorithm 3 on/off);
* candidate representation set (AIG-only vs XMG-only vs mixed);
* strategy library composition (level-only vs area-only vs both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import build
from ..core import MchParams, build_mch
from ..mapping import asic_map, lut_map
from ..networks import Aig, Xag, Xmg
from ..synthesis import AREA_STRATEGY, LEVEL_STRATEGY, StrategyLibrary
from ..flow import FlowContext, optimize
from .common import batch_map, format_table

__all__ = ["ratio_sweep", "merge_ablation", "representation_ablation", "strategy_ablation"]


def _ratio_task(task, ctx):
    ntk, r = task
    mch = build_mch(ntk, MchParams(representations=(Xmg, Aig), ratio=r))
    nl = asic_map(mch, objective="delay")
    return {
        "ratio": r,
        "choices": mch.num_choices(),
        "area": nl.area(),
        "delay": nl.delay(),
    }


def ratio_sweep(circuit: str = "adder", scale: str = "small",
                ratios: Sequence[float] = (0.0, 0.5, 0.85, 1.0, 1.5),
                jobs: int = 1) -> List[dict]:
    """MCH quality as a function of the critical-path ratio ``r``.

    The pre-optimized network is shared; ``jobs>1`` fans the per-ratio
    choice builds and mappings across worker processes.
    """
    ntk = optimize(build(circuit, scale), "compress2rs", rounds=2)
    return batch_map([(ntk, r) for r in ratios], _ratio_task, jobs=jobs)


def _merge_task(task, ctx):
    mch, l = task
    # per-task sessions come from the (per-worker) context: within one
    # worker the cut-limit sweep still reuses processing order and fanout
    # estimates (the per-limit cut databases differ regardless)
    with_merge = lut_map(ctx.mapping_session(mch), k=6, cut_limit=l,
                         objective="area")
    # Algorithm 3 off: same network and candidates, but the mapper cannot
    # see choice cuts (classes erased)
    no_merge = lut_map(ctx.mapping_session(mch.ntk), k=6, cut_limit=l,
                       objective="area")
    return {
        "cut_limit": l,
        "merged.luts": with_merge.num_luts(),
        "merged.depth": with_merge.depth(),
        "unmerged.luts": no_merge.num_luts(),
        "unmerged.depth": no_merge.depth(),
    }


def merge_ablation(circuit: str = "adder", scale: str = "small",
                   cut_limits: Sequence[int] = (4, 8, 12),
                   jobs: int = 1) -> List[dict]:
    """Effect of the cut limit ``l`` and of choice-cut merging (Alg. 3)."""
    ntk = optimize(build(circuit, scale), "compress2rs", rounds=2)
    mch = build_mch(ntk, MchParams(representations=(Xmg, Aig), ratio=1.0))
    return batch_map([(mch, l) for l in cut_limits], _merge_task, jobs=jobs,
                     context=FlowContext())


_REP_VARIANTS = [("AIG", (Aig,)), ("XAG", (Xag,)), ("XMG", (Xmg,)),
                 ("AIG+XMG", (Aig, Xmg)), ("AIG+XAG+XMG", (Aig, Xag, Xmg))]


def _rep_task(task, ctx):
    ntk, label, reps = task
    mch = build_mch(ntk, MchParams(representations=reps, ratio=1.0))
    lut = lut_map(mch, k=6, objective="delay")
    return {
        "reps": label,
        "choices": mch.num_choices(),
        "luts": lut.num_luts(),
        "depth": lut.depth(),
    }


def representation_ablation(circuit: str = "adder", scale: str = "small",
                            jobs: int = 1) -> List[dict]:
    """Which candidate vocabulary drives the gains?"""
    ntk = optimize(build(circuit, scale), "compress2rs", rounds=2)
    return batch_map([(ntk, label, reps) for label, reps in _REP_VARIANTS],
                     _rep_task, jobs=jobs)


def _strategy_variant(label: str) -> StrategyLibrary:
    if label == "level-only":
        return StrategyLibrary(level=LEVEL_STRATEGY, area=LEVEL_STRATEGY)
    if label == "area-only":
        return StrategyLibrary(level=AREA_STRATEGY, area=AREA_STRATEGY)
    return StrategyLibrary()


def _strategy_task(task, ctx):
    ntk, label = task
    mch = build_mch(ntk, MchParams(representations=(Xmg, Aig), ratio=1.0,
                                   strategies=_strategy_variant(label)))
    nl = asic_map(mch, objective="delay")
    return {
        "strategies": label,
        "choices": mch.num_choices(),
        "area": nl.area(),
        "delay": nl.delay(),
    }


def strategy_ablation(circuit: str = "adder", scale: str = "small",
                      jobs: int = 1) -> List[dict]:
    """Level-only vs area-only vs the full multi-strategy library."""
    ntk = optimize(build(circuit, scale), "compress2rs", rounds=2)
    labels = ["level-only", "area-only", "multi (paper)"]
    return batch_map([(ntk, label) for label in labels], _strategy_task,
                     jobs=jobs)
