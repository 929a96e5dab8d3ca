"""Technology-independent optimization passes and flows."""

from .balancing import balance
from .equivalence import functional_classes
from .sweep import sweep
from .flows import optimize_rounds
from .refactoring import refactor
from .resub import resub
from .mig_rewriting import mig_depth_rewrite

__all__ = [
    "balance",
    "functional_classes",
    "sweep",
    "optimize_rounds",
    "refactor",
    "resub",
    "mig_depth_rewrite",
]
