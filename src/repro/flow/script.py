"""The ABC-style flow-script DSL.

Grammar (whitespace-insensitive, ``;``-separated)::

    script   := step (';' step)*
    step     := <empty> | repeat | converge | invocation
    repeat   := INT '*' '(' script ')'          # run the group INT times
    converge := 'converge' [INT] '(' script ')' # iterate to a cost fixpoint,
                                                # at most INT rounds (default 10)
    invocation := NAME arg*                     # a registered pass
    arg      := '-'FLAG [VALUE]                 # boolean flags take no value

Examples::

    b; rf; rs; gm -k 4; b
    3*( b; rs )
    converge4( b; gm -o area -k 4; b )

``Flow.parse`` turns a script into a serializable :class:`Flow` (a tree of
:class:`PassStep` / :class:`Repeat` / :class:`Converge` nodes), validating
every pass name and argument against the registry; ``Flow.to_script``
renders the canonical form (canonical pass names, declared argument order,
defaults omitted) and round-trips: ``Flow.parse(s).to_script()`` is a fixed
point of ``parse``/``to_script``.  ``to_dict``/``from_dict`` give a JSON
shape for storing flows in result files.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Union

from .registry import FlowScriptError, get_pass

__all__ = ["Flow", "PassStep", "Repeat", "Converge", "FlowScriptError"]

DEFAULT_CONVERGE_ROUNDS = 10

_CONVERGE_RE = re.compile(r"^converge(\d+)?$")


# ---------------------------------------------------------------------- #
# AST                                                                     #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class PassStep:
    """One invocation of a registered pass with explicit (non-default) args."""

    name: str
    args: Tuple[Tuple[str, Any], ...] = ()

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.args)

    def to_script(self) -> str:
        info = get_pass(self.name)
        given = self.kwargs()
        parts = [info.name]
        for spec in info.args:
            if spec.name in given:
                rendered = spec.format(given[spec.name])
                if rendered:
                    parts.append(rendered)
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {"pass": self.name, **({"args": self.kwargs()} if self.args else {})}


@dataclass(frozen=True)
class Repeat:
    """Run a group of steps a fixed number of times."""

    count: int
    body: Tuple["Step", ...]

    def to_script(self) -> str:
        return f"{self.count}*( {_render(self.body)} )"

    def to_dict(self) -> dict:
        return {"repeat": self.count, "body": [s.to_dict() for s in self.body]}


@dataclass(frozen=True)
class Converge:
    """Iterate a group until the network cost stops strictly improving.

    Cost is ``(gates, depth)`` for logic networks (``(LUTs, depth)`` /
    ``(area, delay)`` for mapped results); a round whose output is not
    strictly better is discarded and the loop stops — the keep-best
    fixpoint of ABC's iterated ``compress2rs`` and of iterated graph mapping.
    """

    body: Tuple["Step", ...]
    max_rounds: int = DEFAULT_CONVERGE_ROUNDS

    def to_script(self) -> str:
        n = "" if self.max_rounds == DEFAULT_CONVERGE_ROUNDS else str(self.max_rounds)
        return f"converge{n}( {_render(self.body)} )"

    def to_dict(self) -> dict:
        return {"converge": self.max_rounds, "body": [s.to_dict() for s in self.body]}


Step = Union[PassStep, Repeat, Converge]


def _render(steps: Tuple[Step, ...]) -> str:
    return "; ".join(s.to_script() for s in steps)


# ---------------------------------------------------------------------- #
# lexer / parser                                                          #
# ---------------------------------------------------------------------- #

_PUNCT = ";()*"


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    word = ""
    for ch in text:
        if ch in _PUNCT or ch.isspace():
            if word:
                tokens.append(word)
                word = ""
            if ch in _PUNCT:
                tokens.append(ch)
        else:
            word += ch
    if word:
        tokens.append(word)
    return tokens


class _Parser:
    def __init__(self, tokens: List[str], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self, ahead: int = 0):
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, msg: str):
        raise FlowScriptError(f"{msg} (in script {self.text!r})")

    def parse_script(self, nested: bool) -> Tuple[Step, ...]:
        steps: List[Step] = []
        while True:
            tok = self.peek()
            if tok is None or tok == ")":
                if tok is None and nested:
                    self.fail("unbalanced '(': missing ')'")
                return tuple(steps)
            if tok == ";":
                self.take()     # empty step — allowed, e.g. trailing ';'
                continue
            steps.append(self.parse_step())
            tok = self.peek()
            if tok not in (None, ";", ")"):
                self.fail(f"expected ';' before {tok!r}")

    def parse_step(self) -> Step:
        tok = self.take()
        if tok in "()*":
            self.fail(f"unexpected {tok!r}")
        if tok.isdigit() and self.peek() == "*":
            self.take()
            if self.peek() != "(":
                self.fail("expected '(' after 'N*'")
            self.take()
            body = self.parse_script(nested=True)
            self.take()  # ')'
            count = int(tok)
            if count < 1:
                self.fail("repetition count must be >= 1")
            return Repeat(count, body)
        m = _CONVERGE_RE.match(tok)
        if m and self.peek() == "(":
            self.take()
            body = self.parse_script(nested=True)
            self.take()  # ')'
            rounds = int(m.group(1)) if m.group(1) else DEFAULT_CONVERGE_ROUNDS
            if rounds < 1:
                self.fail("converge round bound must be >= 1")
            return Converge(body, rounds)
        return self.parse_invocation(tok)

    def parse_invocation(self, name: str) -> PassStep:
        info = get_pass(name)   # raises FlowScriptError for unknown names
        args: List[Tuple[str, Any]] = []
        while True:
            tok = self.peek()
            if tok is None or tok in (";", ")"):
                break
            if tok in ("(", "*"):
                self.fail(f"unexpected {tok!r} after pass {info.name!r}")
            tok = self.take()
            if not tok.startswith("-") or len(tok) < 2:
                self.fail(f"expected '-flag' after pass {info.name!r}, got {tok!r}")
            spec = info.arg(tok[1:])
            if spec is None:
                known = ", ".join("-" + a.flag for a in info.args) or "none"
                self.fail(f"pass {info.name!r} has no flag {tok!r} (known: {known})")
            if spec.type is bool:
                args.append((spec.name, True))
            else:
                nxt = self.peek()
                if nxt is None or nxt in (";", ")", "(", "*"):
                    self.fail(f"flag -{spec.flag} of pass {info.name!r} needs a value")
                args.append((spec.name, spec.coerce(self.take())))
        merged: Dict[str, Any] = {}
        for key, value in args:
            merged[key] = value
        info.validate_args(merged)
        return PassStep(info.name, tuple(sorted(merged.items(),
                                                key=lambda kv: _arg_order(info, kv[0]))))


def _arg_order(info, arg_name: str) -> int:
    for i, spec in enumerate(info.args):
        if spec.name == arg_name:
            return i
    return len(info.args)


# ---------------------------------------------------------------------- #
# Flow                                                                    #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Flow:
    """A parsed, validated, serializable pass pipeline."""

    steps: Tuple[Step, ...] = ()
    name: str = ""

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, script: str, name: str = "") -> "Flow":
        """Parse an ABC-style script; validates against the pass registry."""
        if not isinstance(script, str):
            raise FlowScriptError(f"script must be a string, got {type(script).__name__}")
        parser = _Parser(_tokenize(script), script)
        steps = parser.parse_script(nested=False)
        if parser.peek() == ")":
            parser.fail("unbalanced ')'")
        return cls(steps, name=name)

    # -- rendering / serialization -------------------------------------------

    def to_script(self) -> str:
        """Canonical script text (parse/to_script round-trips)."""
        return _render(self.steps)

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"steps": [s.to_dict() for s in self.steps]}
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Flow":
        return cls(tuple(_step_from_dict(s) for s in data.get("steps", ())),
                   name=data.get("name", ""))

    # -- static validation ---------------------------------------------------

    def validate(self, start_kind: str = "logic") -> str:
        """Statically chain state kinds through the script; returns the
        final kind.

        Catches kind-incompatible pipelines (``if; rf``, ``mch; b``) before
        any pass runs, using the capabilities every pass declares.  A
        ``converge`` body must preserve the state kind — its keep-best cost
        comparison is only meaningful within one kind — and a repeated
        group is checked again from its own output kind when it changes it.
        """
        return _chain_kinds(self.steps, start_kind)

    # -- introspection -------------------------------------------------------

    def pass_names(self) -> List[str]:
        """Canonical names of every pass the flow invokes (with repeats)."""
        names: List[str] = []

        def walk(steps):
            for s in steps:
                if isinstance(s, PassStep):
                    names.append(s.name)
                else:
                    walk(s.body)

        walk(self.steps)
        return names

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Flow{label} {self.to_script()!r}>"


def _chain_kinds(steps: Tuple[Step, ...], kind: str) -> str:
    for step in steps:
        if isinstance(step, PassStep):
            info = get_pass(step.name)
            if kind not in info.inputs:
                raise FlowScriptError(
                    f"pass {info.name!r} cannot run on a {kind} state "
                    f"(accepts: {', '.join(info.inputs)})")
            if info.output != "same":
                kind = info.output
        elif isinstance(step, Repeat):
            out = _chain_kinds(step.body, kind)
            if step.count > 1 and out != kind:
                out = _chain_kinds(step.body, out)  # the second iteration
            kind = out
        else:  # Converge
            out = _chain_kinds(step.body, kind)
            if out != kind:
                raise FlowScriptError(
                    f"converge body must preserve the state kind "
                    f"({kind} -> {out}): cost comparison across kinds is "
                    f"meaningless")
    return kind


def _step_from_dict(data: dict) -> Step:
    if "pass" in data:
        info = get_pass(data["pass"])
        kwargs = info.validate_args(dict(data.get("args", {})))
        explicit = {k: v for k, v in kwargs.items()
                    if k in data.get("args", {})}
        return PassStep(info.name, tuple(sorted(explicit.items(),
                                                key=lambda kv: _arg_order(info, kv[0]))))
    if "repeat" in data:
        return Repeat(int(data["repeat"]),
                      tuple(_step_from_dict(s) for s in data.get("body", ())))
    if "converge" in data:
        return Converge(tuple(_step_from_dict(s) for s in data.get("body", ())),
                        int(data["converge"]))
    raise FlowScriptError(f"unrecognized step record {data!r}")


def random_flow(rng: random.Random, passes: List[str], *,
                max_steps: int = 5, depth: int = 1) -> Flow:
    """A random well-formed flow over ``passes`` (for fuzz testing)."""
    steps: List[Step] = []
    for _ in range(rng.randint(1, max_steps)):
        roll = rng.random()
        if depth > 0 and roll < 0.15:
            inner = random_flow(rng, passes, max_steps=2, depth=depth - 1)
            steps.append(Repeat(rng.randint(1, 2), inner.steps))
        elif depth > 0 and roll < 0.3:
            inner = random_flow(rng, passes, max_steps=2, depth=depth - 1)
            steps.append(Converge(inner.steps, rng.randint(2, 4)))
        else:
            steps.append(PassStep(rng.choice(passes)))
    return Flow(tuple(steps))
