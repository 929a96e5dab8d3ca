"""Fixtures shared by several test modules."""

import pytest

from repro.circuits import build
from repro.flow import run_flow


@pytest.fixture(scope="session")
def converged():
    """``converge4( b; gm; b )`` of a small-scale circuit — the input the
    paper's Table I/II flows hand to ``mch`` — run once per circuit for the
    whole session (``mch`` does not mutate its input)."""
    done = {}

    def get(name):
        if name not in done:
            done[name] = run_flow(build(name, "small"), "converge4( b; gm; b )").network
        return done[name]
    return get
