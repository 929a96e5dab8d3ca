"""Registered passes: every exported transform under uniform semantics.

Each wrapper is ``fn(state, ctx, **kwargs) -> state`` and draws its shared
machinery (mapping sessions, pattern pools, NPN cost caches, the cell
library) from the :class:`~repro.flow.context.FlowContext`
instead of constructing its own.  Canonical names follow the ABC mnemonics
the paper's protocol scripts use (``b``, ``rf``, ``rs``, ``if`` …).

Network-class arguments (``gm -r xmg``, ``cv -r aig``, ``mch -p mig,xmg``)
use the lowercase representation names ``aig``, ``xag``, ``mig``, ``xmg``.
"""

from __future__ import annotations

from typing import Tuple

from .context import FlowContext, state_kind
from .registry import ArgSpec, FlowScriptError, VerificationError, register_pass

__all__ = ["REP_CLASSES", "rep_class"]


def _reps():
    from ..networks.aig import Aig
    from ..networks.mig import Mig
    from ..networks.xag import Xag
    from ..networks.xmg import Xmg

    return {"aig": Aig, "xag": Xag, "mig": Mig, "xmg": Xmg}


REP_CLASSES = _reps()


def rep_class(name: str):
    """Resolve a representation name (``aig``/``xag``/``mig``/``xmg``)."""
    cls = REP_CLASSES.get(name.lower())
    if cls is None:
        raise FlowScriptError(
            f"unknown representation {name!r} (known: {', '.join(REP_CLASSES)})")
    return cls


def _rep_classes(names: str) -> Tuple[type, ...]:
    return tuple(rep_class(n) for n in names.split(",") if n)


# ---------------------------------------------------------------------- #
# technology-independent optimization                                     #
# ---------------------------------------------------------------------- #

@register_pass("b", aliases=("balance",),
               help="tree balancing: minimize depth without adding gates")
def _balance(ntk, ctx: FlowContext):
    from ..opt.balancing import balance

    return balance(ntk)


@register_pass("sw", aliases=("sweep",), verifying=True,
               args=(ArgSpec("fast", "f", bool, False,
                             "skip SAT verification (simulation only)"),),
               help="functional sweep: merge equivalent nodes (fraig)")
def _sweep(ntk, ctx: FlowContext, fast=False):
    from ..opt.sweep import sweep

    return sweep(ntk, sat_verify=not fast, pool=ctx.pool_for(ntk))


@register_pass("rf", aliases=("refactor",),
               args=(ArgSpec("max_leaves", "l", int, 10, "max cone support"),
                     ArgSpec("min_cone", "m", int, 3, "min cone size"),
                     ArgSpec("zero_gain", "z", bool, False,
                             "accept size-neutral replacements")),
               help="MFFC refactoring: collapse and resynthesize cones")
def _refactor(ntk, ctx: FlowContext, max_leaves=10, min_cone=3, zero_gain=False):
    from ..opt.refactoring import refactor

    return refactor(ntk, max_leaves=max_leaves, min_cone=min_cone,
                    allow_zero_gain=zero_gain)


@register_pass("rs", aliases=("resub",), verifying=True,
               args=(ArgSpec("max_divisors", "d", int, 150, "divisor window"),
                     ArgSpec("conflict_limit", "c", int, 1000, "SAT conflicts/check"),
                     ArgSpec("max_checks", "n", int, 2000, "total candidate checks")),
               help="SAT-validated 1-resubstitution")
def _resub(ntk, ctx: FlowContext, max_divisors=150, conflict_limit=1000,
           max_checks=2000):
    from ..opt.resub import resub

    return resub(ntk, max_divisors=max_divisors, conflict_limit=conflict_limit,
                 max_checks=max_checks, pool=ctx.pool_for(ntk))


def _maj_classes():
    from ..networks.mig import Mig
    from ..networks.mixed import MixedNetwork
    from ..networks.xmg import Xmg

    return (Mig, Xmg, MixedNetwork)


@register_pass("mr", aliases=("mig_rewrite",),
               args=(ArgSpec("rounds", "n", int, 2, "rewriting rounds"),),
               network_classes=_maj_classes(),
               help="algebraic MAJ depth rewriting (MIG/XMG only)")
def _mig_rewrite(ntk, ctx: FlowContext, rounds=2):
    from ..opt.mig_rewriting import mig_depth_rewrite

    return mig_depth_rewrite(ntk, rounds=rounds)


@register_pass("cv", aliases=("convert",), sequential=True,
               args=(ArgSpec("rep", "r", str, "aig", "target representation"),),
               help="convert the network to another representation")
def _convert(ntk, ctx: FlowContext, rep="aig"):
    from ..networks.convert import convert

    cls = rep_class(rep)
    return ntk if type(ntk) is cls else convert(ntk, cls)


# ---------------------------------------------------------------------- #
# mapping                                                                 #
# ---------------------------------------------------------------------- #

@register_pass("gm", aliases=("graph_map",),
               inputs=("logic", "choice"), output="logic",
               args=(ArgSpec("rep", "r", str, "", "target rep (default: same class)"),
                     ArgSpec("objective", "o", str, "area", "'area' or 'delay'"),
                     ArgSpec("k", "k", int, 4, "cut size"),
                     ArgSpec("cut_limit", "l", int, 8, "cuts per node")),
               help="graph mapping: cut-based resynthesis into a representation")
def _graph_map(state, ctx: FlowContext, rep="", objective="area", k=4, cut_limit=8):
    from ..mapping.graph_mapper import graph_map

    if rep:
        target = rep_class(rep)
    elif state_kind(state) == "choice":
        target = type(state.ntk)
    else:
        target = type(state)
    session = ctx.mapping_session(state)
    return graph_map(session, target, objective=objective, k=k,
                     cut_limit=cut_limit, cache=ctx.npn_cache(target))


@register_pass("if", aliases=("lm", "lut_map"),
               inputs=("logic", "choice"), output="lut",
               args=(ArgSpec("k", "k", int, 6, "LUT size"),
                     ArgSpec("objective", "o", str, "area", "'area' or 'delay'"),
                     ArgSpec("cut_limit", "l", int, 8, "cuts per node")),
               help="K-LUT (FPGA) mapping")
def _lut_map(state, ctx: FlowContext, k=6, objective="area", cut_limit=8):
    from ..mapping.lut_mapper import lut_map

    return lut_map(ctx.mapping_session(state), k=k, objective=objective,
                   cut_limit=cut_limit)


@register_pass("am", aliases=("map", "asic_map"),
               inputs=("logic", "choice"), output="netlist", needs_library=True,
               args=(ArgSpec("objective", "o", str, "delay", "'area' or 'delay'"),
                     ArgSpec("cut_limit", "l", int, 8, "cuts per node")),
               help="standard-cell (ASIC) mapping onto the context library")
def _asic_map(state, ctx: FlowContext, objective="delay", cut_limit=8):
    from ..mapping.asic_mapper import asic_map

    return asic_map(ctx.mapping_session(state), library=ctx.library,
                    objective=objective, cut_limit=cut_limit)


# ---------------------------------------------------------------------- #
# structural choices                                                      #
# ---------------------------------------------------------------------- #

@register_pass("dch", aliases=("choice",),
               inputs=("logic",), output="choice", verifying=True,
               args=(ArgSpec("script", "s", str, "compress2rs",
                             "optimization script producing the snapshots"),
                     ArgSpec("rounds", "n", int, 2, "snapshot count"),
                     ArgSpec("inner_rounds", "i", int, 2, "rounds inside each snapshot"),
                     ArgSpec("fast", "f", bool, False, "skip SAT verification")),
               help="traditional structural choices from optimization snapshots")
def _dch(ntk, ctx: FlowContext, script="compress2rs", rounds=2, inner_rounds=2,
         fast=False):
    from ..core.dch import build_dch
    from ..opt.flows import optimize_rounds

    snapshots = optimize_rounds(ntk, script=script, rounds=rounds,
                                inner_rounds=inner_rounds, context=ctx)
    # most-optimized snapshot first: it provides the base structure/POs
    return build_dch(list(reversed(snapshots)), sat_verify=not fast,
                     pool=ctx.pool_for(ntk))


@register_pass("mch", aliases=("mixed_choice",),
               inputs=("logic",), output="choice",
               args=(ArgSpec("reps", "p", str, "xmg",
                             "candidate representations, e.g. xmg,xag"),
                     ArgSpec("ratio", "r", float, 1.0, "critical-path ratio"),
                     ArgSpec("cut_size", "k", int, 4, "cut size"),
                     ArgSpec("cut_limit", "l", int, 8, "cuts per node")),
               help="mixed structural choices (the paper's MCH operator)")
def _mch(ntk, ctx: FlowContext, reps="xmg", ratio=1.0, cut_size=4, cut_limit=8):
    from ..core.mch import MchParams, build_mch

    params = MchParams(representations=_rep_classes(reps), ratio=ratio,
                       cut_size=cut_size, cut_limit=cut_limit)
    return build_mch(ntk, params)


# ---------------------------------------------------------------------- #
# verification / instrumentation                                          #
# ---------------------------------------------------------------------- #

@register_pass("cec", aliases=("verify",), sequential=True,
               inputs=("logic", "choice", "lut", "netlist"), verifying=True,
               help="prove the current state equivalent to the flow input")
def _cec(state, ctx: FlowContext):
    reference = ctx.original if ctx.original is not None else state
    result = ctx.cec(reference, state)
    if not result:
        raise VerificationError(
            f"cec failed after {len(ctx.metrics)} passes: {result!r}")
    return state


@register_pass("ps", aliases=("print_stats",), sequential=True,
               inputs=("logic", "choice", "lut", "netlist"),
               help="print a one-line summary of the current state")
def _print_stats(state, ctx: FlowContext):
    from .context import state_summary

    print(state_summary(state))
    return state


@register_pass("ckpt", aliases=("checkpoint",), sequential=True,
               inputs=("logic", "choice", "lut", "netlist"),
               args=(ArgSpec("name", "n", str, "", "checkpoint name"),),
               help="snapshot the current state into the context")
def _checkpoint(state, ctx: FlowContext, name=""):
    ctx.checkpoint(name or f"ckpt{len(ctx.checkpoints)}", state)
    return state


# ---------------------------------------------------------------------- #
# sequential passes                                                       #
# ---------------------------------------------------------------------- #

@register_pass("seq-sweep", aliases=("scorr",), sequential=True, verifying=True,
               args=(ArgSpec("n_frames", "f", int, 8,
                             "simulation frames for candidate classes"),
                     ArgSpec("conflict_limit", "c", int, 5000,
                             "SAT conflicts per induction check")),
               help="register sweep: merge induction-proven equivalent registers")
def _seq_sweep(ntk, ctx: FlowContext, n_frames=8, conflict_limit=5000):
    from ..seq import register_sweep

    out, _merged = register_sweep(ntk, n_frames=n_frames,
                                  conflict_limit=conflict_limit, seed=ctx.seed)
    return out


@register_pass("seq-retime", aliases=("retime",), sequential=True,
               help="conservative forward retiming (registers move through "
                    "register-fed gates)")
def _seq_retime(ntk, ctx: FlowContext):
    from ..seq import retime_forward

    return retime_forward(ntk)[0]


@register_pass("seq-bmc", aliases=("bmc",), sequential=True, verifying=True,
               args=(ArgSpec("depth", "d", int, 8, "time frames to check"),),
               help="bounded model check the state against the flow input")
def _seq_bmc(ntk, ctx: FlowContext, depth=8):
    from ..seq import bmc_cec

    reference = ctx.original if ctx.original is not None else ntk
    res = bmc_cec(ctx.as_logic(reference), ctx.as_logic(ntk), depth)
    if res.equivalent is False:
        raise VerificationError(
            f"seq-bmc refuted equivalence at frame {res.depth}: "
            f"{res.counterexample!r}")
    return ntk


@register_pass("seq-ind", aliases=("kind",), sequential=True, verifying=True,
               args=(ArgSpec("max_k", "k", int, 8, "largest induction depth"),),
               help="k-induction CEC against the flow input (cex fails the "
                    "flow; inconclusive passes)")
def _seq_ind(ntk, ctx: FlowContext, max_k=8):
    from ..seq import k_induction_cec

    reference = ctx.original if ctx.original is not None else ntk
    res = k_induction_cec(ctx.as_logic(reference), ctx.as_logic(ntk),
                          max_k=max_k)
    if res.equivalent is False:
        raise VerificationError(
            f"seq-ind refuted equivalence at frame {res.depth}: "
            f"{res.counterexample!r}")
    return ntk
