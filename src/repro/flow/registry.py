"""The pass registry: uniform ``run(ntk, ctx) -> ntk`` wrappers.

Every transform this library exports — optimization passes, choice
builders, mappers, verification — is registered here as a :class:`PassInfo`
with a canonical short name (the ABC-style mnemonic used in flow scripts),
aliases, a typed argument specification and declared *capabilities*: which
pipeline-state kinds it accepts (``logic`` / ``choice`` / ``lut`` /
``netlist``), which network classes it is restricted to, whether it needs a
cell library, whether it is a verifying pass and whether it is
*sequential-safe* (understands registers; comb-only passes are refused on
registered networks by the runner instead of silently dropping latches).

The registry is what makes scripts checkable before they run: the DSL
parser resolves names and coerces arguments against it, and
``resolve_flow`` validates every script text a front door receives against
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    "STATE_KINDS",
]

STATE_KINDS = ("logic", "choice", "lut", "netlist")


class FlowError(RuntimeError):
    """Base error of the flow subsystem (bad script, bad state, failed pass)."""


class FlowScriptError(FlowError, ValueError):
    """A flow script failed to parse or validate against the registry.

    Also a :class:`ValueError`, so callers of ``optimize_rounds(script=...)``
    and ``resolve_flow`` can catch ``ValueError``.
    """


class VerificationError(FlowError):
    """A verifying pass (``cec``) refuted equivalence."""


@dataclass(frozen=True)
class ArgSpec:
    """One declared pass argument.

    ``flag`` is the script-level spelling (``-k 4``); ``name`` the Python
    keyword it maps to.  ``type`` is ``int``, ``float``, ``str`` or ``bool``
    — boolean flags take no value and must default to ``False`` so the
    canonical script form stays unambiguous.
    """

    name: str
    flag: str
    type: type
    default: Any
    help: str = ""

    def coerce(self, raw: str) -> Any:
        try:
            if self.type is bool:
                return True
            if self.type is int:
                return int(raw)
            if self.type is float:
                value = float(raw)
                # a NaN threshold compares false against everything
                if not math.isfinite(value):
                    raise ValueError(raw)
                return value
            return str(raw)
        except ValueError:
            kind = "finite float" if self.type is float else self.type.__name__
            raise FlowScriptError(
                f"argument -{self.flag} expects {kind}, got {raw!r}"
            ) from None

    def format(self, value: Any) -> str:
        """Canonical script spelling of ``-flag value`` (empty if default)."""
        if value == self.default:
            return ""
        if self.type is bool:
            return f"-{self.flag}"
        return f"-{self.flag} {value}"


@dataclass
class PassInfo:
    """A registered pass: callable plus capabilities and argument spec."""

    name: str
    fn: Callable
    aliases: Tuple[str, ...] = ()
    args: Tuple[ArgSpec, ...] = ()
    inputs: Tuple[str, ...] = ("logic",)
    output: str = "same"            # 'same' or a state kind
    network_classes: Optional[Tuple[type, ...]] = None
    needs_library: bool = False
    verifying: bool = False
    sequential: bool = False        # safe on networks with registers
    help: str = ""

    def arg(self, flag_or_name: str) -> Optional[ArgSpec]:
        for a in self.args:
            if a.flag == flag_or_name or a.name == flag_or_name:
                return a
        return None

    def defaults(self) -> Dict[str, Any]:
        return {a.name: a.default for a in self.args}

    def validate_args(self, args: Dict[str, Any]) -> Dict[str, Any]:
        """Check arg names/types; returns a fully-defaulted kwargs dict."""
        known = {a.name: a for a in self.args}
        for key, value in args.items():
            spec = known.get(key)
            if spec is None:
                raise FlowScriptError(
                    f"pass {self.name!r} has no argument {key!r} "
                    f"(known: {', '.join(known) or 'none'})")
            if spec.type is not bool and not isinstance(value, spec.type) \
                    and not (spec.type is float and isinstance(value, int)):
                raise FlowScriptError(
                    f"pass {self.name!r} argument {key!r} expects "
                    f"{spec.type.__name__}, got {value!r}")
        out = self.defaults()
        out.update(args)
        return out


_REGISTRY: Dict[str, PassInfo] = {}
_ALIASES: Dict[str, str] = {}


def register_pass(name: str, *, aliases: Tuple[str, ...] = (),
                  args: Tuple[ArgSpec, ...] = (),
                  inputs: Tuple[str, ...] = ("logic",),
                  output: str = "same",
                  network_classes: Optional[Tuple[type, ...]] = None,
                  needs_library: bool = False, verifying: bool = False,
                  sequential: bool = False, help: str = "") -> Callable:
    """Decorator registering ``fn(ntk, ctx, **kwargs) -> ntk`` as a pass."""
    for kind in inputs:
        if kind not in STATE_KINDS:
            raise ValueError(f"unknown state kind {kind!r}")

    def deco(fn: Callable) -> Callable:
        doc = (fn.__doc__ or "").strip()
        info = PassInfo(name=name, fn=fn, aliases=tuple(aliases), args=tuple(args),
                        inputs=tuple(inputs), output=output,
                        network_classes=network_classes,
                        needs_library=needs_library, verifying=verifying,
                        sequential=sequential,
                        help=help or (doc.splitlines()[0] if doc else ""))
        if info.name in _REGISTRY or info.name in _ALIASES:
            raise ValueError(f"duplicate pass name {info.name!r}")
        _REGISTRY[info.name] = info
        for alias in info.aliases:
            if alias in _REGISTRY or alias in _ALIASES:
                raise ValueError(f"duplicate pass alias {alias!r}")
            _ALIASES[alias] = info.name
        fn.pass_info = info
        return fn

    return deco


def get_pass(name: str) -> PassInfo:
    """Resolve a pass name or alias; raises :class:`FlowScriptError`."""
    info = _REGISTRY.get(name)
    if info is None:
        canonical = _ALIASES.get(name)
        info = _REGISTRY.get(canonical) if canonical else None
    if info is None:
        raise FlowScriptError(
            f"unknown pass {name!r} (available: {', '.join(sorted(_REGISTRY))})")
    return info


def available_passes() -> List[PassInfo]:
    """All registered passes, sorted by canonical name."""
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]


def pass_names() -> List[str]:
    """Canonical names plus aliases (everything a script may use)."""
    return sorted(list(_REGISTRY) + list(_ALIASES))
