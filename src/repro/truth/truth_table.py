"""Bit-parallel truth tables backed by arbitrary-precision integers.

A :class:`TruthTable` over ``n`` variables stores ``2**n`` function values in
the bits of a Python ``int``.  Bit ``i`` holds ``f(x)`` for the input minterm
whose binary encoding is ``i`` (variable 0 is the least-significant input).

This is the workhorse of the whole library: cut functions, NPN
canonization, Boolean matching, ISOP computation and network simulation all
run on these objects.  Python integers give us unbounded width with C-speed
bitwise operations, which is the standard trick for truth-table packages
(ABC's ``utilTruth``, mockturtle's ``kitty``).

Objects are the API; kernels run on ints.  The recursive planners (ISOP,
DSD, Shannon trees, exact NPN) would allocate a ``TruthTable`` for every
cofactor and complement, so they work on the raw ``bits`` of one width
instead, through the private primitives below (:func:`_depends`,
:func:`_support`, :func:`_cofactors`, :func:`_flip`) over the cached
projection masks of :func:`_var_masks`.  The methods of :class:`TruthTable`
call the same primitives, so each bit trick is written once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Sequence

__all__ = ["TruthTable", "var_mask", "const_tt", "var_tt"]

def _full_mask(num_vars: int) -> int:
    return (1 << (1 << num_vars)) - 1


def var_mask(num_vars: int, var: int) -> int:
    """Raw bit mask of projection function ``x_var`` over ``num_vars`` vars."""
    if not 0 <= var < num_vars:
        raise ValueError(f"variable {var} out of range for {num_vars} vars")
    return _var_masks(num_vars)[var]


@lru_cache(maxsize=None)
def _var_masks(num_vars: int) -> tuple:
    """Raw truth tables of every variable over ``num_vars`` variables."""
    masks = []
    rows = 1 << num_vars
    for v in range(num_vars):
        # repeat the (0^{2^v} 1^{2^v}) pattern across all 2^num_vars rows,
        # doubling the filled width so the cost stays linear in the rows
        val = ((1 << (1 << v)) - 1) << (1 << v)
        width = 1 << (v + 1)
        while width < rows:
            val |= val << width
            width <<= 1
        masks.append(val)
    return tuple(masks)


# -- raw-int kernels --------------------------------------------------------
# ``bits`` is a truth table of some fixed width and ``vm`` the projection
# mask ``_var_masks(num_vars)[var]`` of the same width.  Complements are
# taken as ``x ^ full``, never ``~x``: a negative operand makes CPython's
# big-int ``&`` markedly slower.

def _depends(bits: int, var: int, vm: int) -> bool:
    """True if ``bits`` depends on ``var``: its two cofactors differ."""
    return bool((bits ^ (bits << (1 << var))) & vm)


def _support(bits: int, masks: tuple, among=None) -> List[int]:
    """Variables ``bits`` depends on, ascending; ``masks`` is ``_var_masks(n)``.

    ``among`` (ascending) limits the test to those variables: a cofactor's
    support lies inside its parent's, so the recursive planners pass that.
    """
    if among is None:
        among = range(len(masks))
    # the test of _depends, inlined: this runs once per planner recursion
    return [v for v in among if (bits ^ (bits << (1 << v))) & masks[v]]


def _cofactors(bits: int, var: int, vm: int) -> tuple:
    """``(f|var=0, f|var=1)``, each spread over both halves of ``var``."""
    shift = 1 << var
    hi = bits & vm
    lo = bits ^ hi
    return lo | (lo << shift), hi | (hi >> shift)


def _flip(bits: int, var: int, vm: int) -> int:
    """``bits`` with input ``var`` complemented (its cofactors swapped)."""
    shift = 1 << var
    hi = bits & vm
    return (hi >> shift) | ((bits ^ hi) << shift)


class TruthTable:
    """Immutable truth table over a fixed number of variables."""

    __slots__ = ("num_vars", "bits")

    def __init__(self, num_vars: int, bits: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.bits = bits & _full_mask(num_vars)

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, num_vars: int, value: bool) -> "TruthTable":
        return cls(num_vars, _full_mask(num_vars) if value else 0)

    @classmethod
    def var(cls, num_vars: int, var: int) -> "TruthTable":
        return cls(num_vars, var_mask(num_vars, var))

    @classmethod
    def from_binary_string(cls, s: str) -> "TruthTable":
        """Parse a binary string, most-significant minterm first.

        ``TruthTable.from_binary_string("1000")`` is AND of two variables.
        """
        n = len(s)
        if n & (n - 1) or n == 0:
            raise ValueError("length must be a power of two")
        num_vars = n.bit_length() - 1
        return cls(num_vars, int(s, 2))

    @classmethod
    def from_hex(cls, num_vars: int, s: str) -> "TruthTable":
        return cls(num_vars, int(s, 16))

    @classmethod
    def from_function(cls, num_vars: int, fn) -> "TruthTable":
        """Build from a Python predicate ``fn(*inputs) -> bool``."""
        bits = 0
        for m in range(1 << num_vars):
            args = [bool((m >> v) & 1) for v in range(num_vars)]
            if fn(*args):
                bits |= 1 << m
        return cls(num_vars, bits)

    # -- basic queries -----------------------------------------------------

    @property
    def mask(self) -> int:
        return _full_mask(self.num_vars)

    @property
    def num_bits(self) -> int:
        return 1 << self.num_vars

    def get_bit(self, minterm: int) -> bool:
        return bool((self.bits >> minterm) & 1)

    def count_ones(self) -> int:
        return self.bits.bit_count()

    def is_const0(self) -> bool:
        return self.bits == 0

    def is_const1(self) -> bool:
        return self.bits == self.mask

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate under an input assignment (index 0 = variable 0)."""
        m = 0
        for v, val in enumerate(assignment):
            if val:
                m |= 1 << v
        return self.get_bit(m)

    # -- logical operators ---------------------------------------------------

    def _check(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("truth tables have different variable counts")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.num_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.num_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.num_vars, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, self.bits ^ self.mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.num_vars == other.num_vars
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.bits))

    def __repr__(self) -> str:
        width = max(1, (1 << self.num_vars) // 4)
        return f"TruthTable({self.num_vars}, 0x{self.bits:0{width}x})"

    def to_hex(self) -> str:
        width = max(1, (1 << self.num_vars) // 4)
        return f"{self.bits:0{width}x}"

    # -- cofactors and support ---------------------------------------------

    def cofactor(self, var: int, value: bool) -> "TruthTable":
        """Cofactor w.r.t. ``var`` (result keeps the same variable count)."""
        vm = var_mask(self.num_vars, var)
        return TruthTable(self.num_vars, _cofactors(self.bits, var, vm)[bool(value)])

    def has_var(self, var: int) -> bool:
        """True if the function depends on ``var``."""
        return _depends(self.bits, var, var_mask(self.num_vars, var))

    def support(self) -> List[int]:
        return _support(self.bits, _var_masks(self.num_vars))

    def support_size(self) -> int:
        return len(self.support())

    # -- variable permutation / polarity -------------------------------------

    def flip(self, var: int) -> "TruthTable":
        """Complement input ``var`` (swap its cofactors)."""
        return TruthTable(self.num_vars, _flip(self.bits, var, var_mask(self.num_vars, var)))

    def swap_adjacent(self, var: int) -> "TruthTable":
        """Swap variables ``var`` and ``var + 1``."""
        if var + 1 >= self.num_vars:
            raise ValueError("var + 1 out of range")
        n = self.num_vars
        lo_m = var_mask(n, var)
        hi_m = var_mask(n, var + 1)
        shift = 1 << var
        keep = self.bits & ((lo_m & hi_m) | (~lo_m & ~hi_m))
        up = self.bits & (lo_m & ~hi_m)  # var=1, var+1=0 -> move up
        dn = self.bits & (~lo_m & hi_m)  # var=0, var+1=1 -> move down
        return TruthTable(n, keep | (up << shift) | (dn >> shift))

    def swap(self, a: int, b: int) -> "TruthTable":
        if a == b:
            return self
        if a > b:
            a, b = b, a
        tt = self
        for v in range(a, b):
            tt = tt.swap_adjacent(v)
        for v in range(b - 2, a - 1, -1):
            tt = tt.swap_adjacent(v)
        return tt

    def permute(self, perm: Sequence[int]) -> "TruthTable":
        """Relabel inputs: new variable ``i`` is old variable ``perm[i]``.

        Equivalently ``result(x_0..x_{n-1}) = self(x_{perm^{-1}(0)}, ...)``
        evaluated so that ``result.evaluate(a) == self.evaluate([a[perm.index(v)]
        for v in range(n)])``; formally the value of ``result`` on minterm
        ``m`` equals the value of ``self`` on the minterm whose bit ``perm[i]``
        is bit ``i`` of ``m``.
        """
        if sorted(perm) != list(range(self.num_vars)):
            raise ValueError("perm must be a permutation of all variables")
        bits = 0
        src = self.bits
        n = self.num_vars
        for m in range(1 << n):
            if (src >> m) & 1:
                dest = 0
                for i in range(n):
                    if (m >> perm[i]) & 1:
                        dest |= 1 << i
                bits |= 1 << dest
        return TruthTable(n, bits)

    # -- resizing -------------------------------------------------------------

    def extend(self, num_vars: int) -> "TruthTable":
        """Pad with don't-depend variables up to ``num_vars``."""
        if num_vars < self.num_vars:
            raise ValueError("cannot extend to fewer variables")
        bits = self.bits
        width = 1 << self.num_vars
        for _ in range(num_vars - self.num_vars):
            bits |= bits << width
            width <<= 1
        return TruthTable(num_vars, bits)

    def shrink(self, num_vars: int) -> "TruthTable":
        """Drop upper variables the function does not depend on."""
        if num_vars > self.num_vars:
            raise ValueError("cannot shrink to more variables")
        for v in range(num_vars, self.num_vars):
            if self.has_var(v):
                raise ValueError(f"function depends on variable {v}")
        return TruthTable(num_vars, self.bits & _full_mask(num_vars))

    def min_base(self) -> "tuple[TruthTable, List[int]]":
        """Project onto the true support.

        Returns ``(tt, support)`` where ``tt`` has ``len(support)`` variables
        and ``support`` lists the original variable indices in order.
        """
        sup = self.support()
        if sup == list(range(len(sup))):
            tt = self
        else:
            others = [v for v in range(self.num_vars) if v not in sup]
            tt = self.permute(sup + others)
        return TruthTable(len(sup), tt.bits & _full_mask(len(sup))), sup


def const_tt(num_vars: int, value: bool) -> TruthTable:
    return TruthTable.const(num_vars, value)


def var_tt(num_vars: int, var: int) -> TruthTable:
    return TruthTable.var(num_vars, var)
