"""Optimization snapshots for DCH choice building.

The paper uses ABC's ``compress2rs`` to "simulate the logic optimization
process" before mapping.  That script is the ``compress2rs`` flow spec
(:mod:`repro.flow.specs`), run through ``optimize(ntk, "compress2rs",
rounds=N)``; this module only adds the repeated-snapshot list the ``dch``
pass merges into structural choices.
"""

from __future__ import annotations

from typing import List, Union

from ..networks.base import LogicNetwork

__all__ = ["optimize_rounds"]


def optimize_rounds(ntk: LogicNetwork, script: Union[str, "object"] = "compress2rs",
                    rounds: int = 2, inner_rounds: int = 2,
                    context=None) -> List[LogicNetwork]:
    """Produce successive optimization snapshots (for DCH choice building).

    Returns ``[ntk, opt1(ntk), opt2(opt1), ...]`` with ``rounds`` optimized
    snapshots appended after the original.  ``script`` is anything
    :func:`~repro.flow.specs.resolve_flow` accepts: the name of a canonical
    flow spec (``"compress2rs"`` / ``"resyn2rs"`` — parameterized by
    ``inner_rounds``), flow-script text validated against the pass registry
    (``"b; rs; b"``), or a :class:`~repro.flow.script.Flow`.  A
    caller-supplied ``context`` threads one shared
    :class:`~repro.flow.context.FlowContext` through every snapshot run.
    """
    from ..flow.runner import FlowRunner
    from ..flow.specs import NAMED_FLOWS, resolve_flow

    spec_kwargs = {"rounds": inner_rounds} if script in NAMED_FLOWS else {}
    flow = resolve_flow(script, **spec_kwargs)
    runner = FlowRunner(context)
    out = [ntk]
    cur = ntk
    for _ in range(rounds):
        cur = runner.run(cur, flow).network
        out.append(cur)
    return out
