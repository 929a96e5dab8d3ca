"""Canonical flow specs — the named scripts the paper's protocol uses.

Each spec returns a plain :class:`Flow` built from registered passes, so
the protocol's optimization scripts are *data* (a serializable script):

* ``compress2rs`` — ``converge{N}( b; gm -k 4; b )`` — iterative
  area-oriented optimization with keep-best convergence;
* ``resyn2rs``    — ``converge{N}( b; rf; rs; gm -k 4; b )`` — the deeper
  flow with MFFC refactoring and SAT resubstitution.

``resolve_flow`` is the single front door behind ``FlowRunner.run`` /
``run_flow`` / ``optimize`` / batch / serve / the CLI: it accepts a
:class:`Flow`, a spec name (parameterized via keyword arguments, e.g.
``rounds=2``), or raw script text.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from .registry import FlowScriptError
from .script import Converge, Flow, PassStep

__all__ = ["compress2rs_flow", "resyn2rs_flow", "resolve_flow", "NAMED_FLOWS"]


def compress2rs_flow(rounds: int = 4) -> Flow:
    """The ``compress2rs`` analogue as a flow spec."""
    body = (
        PassStep("b"),
        PassStep("gm", (("objective", "area"), ("k", 4))),
        PassStep("b"),
    )
    return Flow((Converge(body, max_rounds=max(1, rounds)),)
                if rounds > 0 else (), name="compress2rs")


def resyn2rs_flow(rounds: int = 3) -> Flow:
    """The ``resyn2rs`` analogue as a flow spec."""
    body = (
        PassStep("b"),
        PassStep("rf"),
        PassStep("rs"),
        PassStep("gm", (("objective", "area"), ("k", 4))),
        PassStep("b"),
    )
    return Flow((Converge(body, max_rounds=max(1, rounds)),)
                if rounds > 0 else (), name="resyn2rs")


NAMED_FLOWS: Dict[str, Callable[..., Flow]] = {
    "compress2rs": compress2rs_flow,
    "resyn2rs": resyn2rs_flow,
}


def resolve_flow(flow: Union[Flow, str], **spec_kwargs) -> Flow:
    """Coerce a Flow / spec name / script text into a :class:`Flow`.

    ``spec_kwargs`` parameterize a named spec (``rounds=2``); they are
    rejected for script text.
    """
    if isinstance(flow, Flow):
        return flow
    if flow in NAMED_FLOWS:
        return NAMED_FLOWS[flow](**spec_kwargs)
    if spec_kwargs:
        raise FlowScriptError(
            f"keyword arguments only apply to named specs "
            f"({', '.join(sorted(NAMED_FLOWS))}), not script {flow!r}")
    return Flow.parse(flow)
