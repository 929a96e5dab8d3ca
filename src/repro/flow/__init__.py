"""Scriptable pass/flow API — the unified pipeline layer.

The paper's experimental protocol is a *script* (ABC's ``compress2rs; dch;
if -K 6``); this package makes that the native way to drive the library:

* :mod:`~repro.flow.registry` — the pass registry (``@register_pass``,
  typed arguments, declared capabilities);
* :mod:`~repro.flow.passes` — every exported transform wrapped with uniform
  ``run(ntk, ctx) -> ntk`` semantics;
* :mod:`~repro.flow.context` — :class:`FlowContext`, the shared engines
  (mapping sessions / cut databases, pattern pools, NPN caches, cell
  library) threaded through a whole flow;
* :mod:`~repro.flow.script` — the ABC-style DSL: ``"b; rf; rs; gm -k 4"``,
  ``N*( … )`` repetition and ``converge( … )`` keep-best fixpoint groups,
  parsed into serializable :class:`Flow` objects;
* :mod:`~repro.flow.runner` — :class:`FlowRunner` with per-pass metrics and
  a ``run_many`` batch entry point;
* :mod:`~repro.flow.specs` — canonical named specs (``compress2rs``,
  ``resyn2rs``) as flow data, and :func:`resolve_flow`, the one place a
  :class:`Flow`, a spec name or script text becomes a :class:`Flow`.

Quickstart::

    from repro import load, run_flow

    result = run_flow(load("adder"), "b; rf; rs; gm -k 4; b", verify=True)
    print(result.summary())
"""

from .registry import (
    ArgSpec,
    FlowError,
    FlowScriptError,
    PassInfo,
    VerificationError,
    available_passes,
    get_pass,
    pass_names,
    register_pass,
)
from .context import FlowContext, PassMetrics, state_cost, state_kind, state_summary
from .script import Converge, Flow, PassStep, Repeat
from . import passes as _passes  # noqa: F401  — populates the registry
from .runner import FlowResult, FlowRunner, optimize, run_flow
from .specs import (
    NAMED_FLOWS,
    compress2rs_flow,
    resolve_flow,
    resyn2rs_flow,
)

__all__ = [
    "ArgSpec",
    "PassInfo",
    "FlowError",
    "FlowScriptError",
    "VerificationError",
    "register_pass",
    "get_pass",
    "available_passes",
    "pass_names",
    "FlowContext",
    "PassMetrics",
    "state_kind",
    "state_cost",
    "state_summary",
    "Flow",
    "PassStep",
    "Repeat",
    "Converge",
    "FlowRunner",
    "FlowResult",
    "run_flow",
    "optimize",
    "NAMED_FLOWS",
    "compress2rs_flow",
    "resyn2rs_flow",
    "resolve_flow",
]
