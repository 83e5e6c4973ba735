"""Exact monomial arithmetic over a blocked variable universe.

A universe declares two disjoint, internally ordered variable blocks: the
polynomial-ring block (graph vertices; sequence order is the lex
priority, highest first) and an adjoined block: ``y1 > y2 > ...`` to
present Rees algebras, or ``t``, the auxiliary variable of y_j -> u_j*t,
for images in the base ring.  A monomial stores its exponents once, as a
dense tuple laid out ``(y1, ..., yq, s1, ..., sn)``.  A monomial is a
value: its degrees, names, equality and hash.  The engine computes on the
exponent tuples and on their packed words (``_Packing``), not on monomials.

The one monomial order is lex on that tuple (``canonical_key``): the
adjoined block decides first, and within it the first name does, then
the base block.  On the base block alone it is lex by vertex priority.

``_Record`` is the base of the package's result records; it lives here
because every module that defines one imports from this one.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import compress
from operator import add, and_, getitem, lshift, or_
from typing import Iterable, Mapping, Sequence

__all__ = [
    "VariableUniverse",
    "Monomial",
    "MonomialIdeal",
    "cover_ideal",
    "power",
    "component",
    "variable",
    "parse_monomial",
    "canonical_key",
]

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class _Record:
    """A result record: its fields are its ``__slots__``, filled by position
    or by keyword in slot order; ``_DEFAULTS`` fills the fields left out.
    Compared by identity, with no guard against assignment."""

    __slots__ = ()
    _DEFAULTS: dict = {}

    def __init__(self, *values, **named):
        fields, kind = self.__slots__, type(self).__name__
        if len(values) > len(fields):
            raise TypeError(f"{kind} takes at most {len(fields)} fields")
        given = dict(zip(fields, values))
        wrong = given.keys() & named | named.keys() - set(fields)
        if wrong:
            raise TypeError(f"{kind} got repeated or unknown fields {sorted(wrong)}")
        given = {**self._DEFAULTS, **given, **named}
        if len(given) < len(fields):
            raise TypeError(f"{kind} misses the fields {[f for f in fields if f not in given]}")
        for field in fields:
            setattr(self, field, given[field])


class _Value(_Record):
    """A record equal to one of the same type whose fields all are; so unhashable."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )


class VariableUniverse:
    """Declared variable blocks; the sequence order is the priority.

    ``y_block`` and ``s_block`` slice a monomial's exponent tuple, the
    adjoined block first.
    """

    def __init__(self, s_vars: Sequence[str] = (), y_vars: Sequence[str] = ()):
        self.s_vars = tuple(s_vars)
        self.y_vars = tuple(y_vars)
        index: dict[str, int] = {}
        for name in self.y_vars + self.s_vars:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in index:
                raise ValueError(f"duplicate variable {name!r}")
            index[name] = len(index)
        self._index = index
        self.all_vars = self.s_vars + self.y_vars
        self._display = tuple((name, index[name]) for name in self.all_vars)
        self.y_block = slice(0, len(self.y_vars))
        self.s_block = slice(len(self.y_vars), None)

    def index_of(self, name: str) -> int:
        """Position of a variable in the exponent tuple."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def one(self) -> "Monomial":
        return _monomial(self, (0,) * len(self.all_vars), 0)

    def monomial(self, exps: Mapping[str, int]) -> "Monomial":
        return Monomial(self, exps)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, VariableUniverse)
            and self.s_vars == other.s_vars
            and self.y_vars == other.y_vars
        )

    def __hash__(self) -> int:
        return hash((self.s_vars, self.y_vars))

    def __repr__(self) -> str:
        return f"VariableUniverse(s={list(self.s_vars)}, y={list(self.y_vars)})"


class Monomial:
    """Immutable dense exponent tuple over one universe.

    ``exponents`` follows the universe layout ``(y..., s...)``; the
    blockwise degrees and the ``exps`` name map are derived from it.
    """

    __slots__ = ("universe", "exponents", "total_degree")

    def __init__(self, universe: VariableUniverse, exps: Mapping[str, int]):
        vector = [0] * len(universe.all_vars)
        for name, e in exps.items():
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"exponent of {name!r} must be an int, got {e!r}")
            if e < 0:
                raise ValueError(f"negative exponent for {name!r}")
            if e:
                vector[universe.index_of(name)] = e
        self.universe = universe
        self.exponents = tuple(vector)
        self.total_degree = sum(vector)

    # -- queries -------------------------------------------------------

    @property
    def exps(self) -> dict[str, int]:
        """The nonzero exponents by name, in the universe's display order."""
        e = self.exponents
        return {name: e[i] for name, i in self.universe._display if e[i]}

    @property
    def s_degree(self) -> int:
        return sum(self.exponents[self.universe.s_block])

    @property
    def y_degree(self) -> int:
        return sum(self.exponents[self.universe.y_block])

    @property
    def is_one(self) -> bool:
        return not self.total_degree

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Monomial)
            and self.exponents == other.exponents
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __str__(self) -> str:
        e = self.exponents
        parts = [
            name if e[i] == 1 else f"{name}^{e[i]}"
            for name, i in self.universe._display
            if e[i]
        ]
        return "*".join(parts) or "1"

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _monomial(universe: VariableUniverse, exponents: tuple[int, ...], total_degree: int) -> Monomial:
    """A monomial from an exponent tuple already laid out for the universe."""
    m = object.__new__(Monomial)
    m.universe = universe
    m.exponents = exponents
    m.total_degree = total_degree
    return m


class _Packing:
    """Exponent tuples of length n packed into ints, the first position in
    the most significant field, so int order is lex order.  Fields have
    top.bit_length() + 1 bits for top the largest total degree packed, not
    the largest exponent, so the top (guard) bit of each field stays clear,
    fieldwise arithmetic never borrows or carries across fields, and a
    word's degree is its remainder modulo ``modulus``, the mask of a field.
    ``guards`` holds every field's guard bit.
    """

    __slots__ = ("shifts", "modulus", "guards", "_ones", "_sentinel")
    _DIGITS = bytes.maketrans(b"01", b"\0\1")

    def __init__(self, n: int, top: int):
        width = top.bit_length() + 1
        self.shifts = tuple(width * (n - 1 - v) for v in range(n))
        self.modulus = (1 << width) - 1
        self._ones = sum(1 << s for s in self.shifts)
        self.guards = self._ones << (width - 1)
        self._sentinel = 1 << (n * width)

    def pack(self, exponents: Sequence[int]) -> int:
        return sum(map(lshift, exponents, self.shifts))

    def unpack(self, word: int) -> tuple[int, ...]:
        return tuple([word >> s & self.modulus for s in self.shifts])

    def colons(self, words: Iterable[int], b: int) -> list[int]:
        """Each word's colon a : b, the fieldwise (a - b)+: (a | guards) - b
        keeps a field's guard bit exactly where a >= b, masking what to keep."""
        guards, sh = self.guards, self.modulus.bit_length() - 1
        diffs = [(a | guards) - b for a in words]
        return [d & ((kept := d & guards) - (kept >> sh)) for d in diffs]

    def support(self, word: int) -> int:
        """The guard bits of the word's nonzero fields."""
        return ((word | self.guards) - self._ones) & self.guards

    def fields(self, mask: int) -> bytes:
        """One byte per field: 1 where ``mask`` sets the field's guard bit."""
        # the guard bits are every width-th binary digit after the sentinel
        digits = format(mask | self._sentinel, "b")[1 :: self.modulus.bit_length()]
        return digits.encode().translate(self._DIGITS)

    def positions(self, word: int) -> int:
        """The word's nonzero fields as a bitmask over exponent positions."""
        return sum(1 << p for p, s in enumerate(self.shifts) if word >> s & self.modulus)


def variable(universe: VariableUniverse, name: str, power: int = 1) -> Monomial:
    return Monomial(universe, {name: power})


_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")


def parse_monomial(text: str, universe: VariableUniverse) -> Monomial:
    """Parse ``x1^2*x3^2`` / ``z1_2*y3`` / ``1`` against a universe."""
    text = text.strip()
    if text == "1":
        return universe.one()
    exps: dict[str, int] = {}
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if not m:
            raise ValueError(f"bad monomial factor {factor!r}")
        name, e = m.group(1), int(m.group(2) or 1)
        universe.index_of(name)
        exps[name] = exps.get(name, 0) + e
    return Monomial(universe, exps)


def canonical_key(m: Monomial) -> tuple[int, ...]:
    """The monomial order as a sort key: the whole exponent tuple, lex."""
    return m.exponents


# ---------------------------------------------------------------------------
# Monomial ideals


def _thresholds(members: Sequence[Sequence[int]], top: int) -> list[list[int]]:
    """``table[k][e]`` is the bitset (bit i for ``members[i]``) of the
    members whose k-th exponent is at most e <= ``top``; the members of a
    bitset S dividing w are S & AND_k table[k][w_k] (``_divisors``)."""
    table = []
    for column in zip(*members):
        digits, row = bytearray(b"0" * len(column)), []  # member i is digit ~i
        ranked = sorted(range(len(column)), key=column.__getitem__, reverse=True)
        for e in range(top + 1):
            while ranked and column[ranked[-1]] <= e:
                digits[~ranked.pop()] = 49  # "1"
            row.append(int(digits, 2))
        table.append(row)
    return table


def _divisors(table: list[list[int]], w: Iterable[int], among: int) -> int:
    """The members in the bitset ``among`` dividing w, by ``_thresholds``."""
    return reduce(and_, map(getitem, table, w), among)


class _LeadIndex:
    """Changing leads packed by one ``_Packing``, indexed by their support.

    Bit g of an int bitset stands for ``leads[g]``.  ``has[v]`` holds the
    leads that use variable v, and ``alive`` those still in use.  The live
    leads whose support fits inside supp(m) are then
    ``alive & ~OR{has[v] : m_v = 0}``; they are tried from the lowest bit
    up, so a lookup finds the first live divisor in insertion order.
    """

    __slots__ = ("packing", "leads", "has", "alive")

    def __init__(self, packing: _Packing, leads: Iterable[int] = ()):
        self.packing = packing
        self.leads: list[int] = []
        self.has = [0] * len(packing.shifts)
        self.alive = 0
        for lead in leads:
            self.add(lead)

    def add(self, lead: int) -> None:
        bit = 1 << len(self.leads)
        self.leads.append(lead)
        has, packing = self.has, self.packing
        for v in compress(range(len(has)), packing.fields(packing.support(lead))):
            has[v] |= bit
        self.alive |= bit

    def first_divisor(self, m: int) -> int | None:
        """The position of the first live lead dividing m; None when none does."""
        packing, leads, guards = self.packing, self.leads, self.packing.guards
        zero = packing.fields(guards ^ packing.support(m))
        candidates = self.alive & ~reduce(or_, compress(self.has, zero), 0)
        kept = m | guards
        while candidates:
            low = candidates & -candidates
            g = low.bit_length() - 1
            if (kept - leads[g]) & guards == guards:
                return g
            candidates ^= low
        return None

    def retire(self, m: int) -> None:
        """Mark dead every live lead that m divides."""
        packing, leads, guards = self.packing, self.leads, self.packing.guards
        candidates = reduce(and_, compress(self.has, packing.fields(packing.support(m))), self.alive)
        while candidates:
            low = candidates & -candidates
            if ((leads[low.bit_length() - 1] | guards) - m) & guards == guards:
                self.alive ^= low
            candidates ^= low


class MonomialIdeal:
    """A monomial ideal held as its unique minimal generating set, sorted
    descending under the canonical key so equal ideals compare equal.

    Any generating set may be given: a generator is kept when it is its
    own only divisor among them (``_thresholds``).  Distinct monomials of
    one degree never divide each other, so such a set is kept whole.
    """

    __slots__ = ("universe", "gens")

    def __init__(self, universe: VariableUniverse, gens: Iterable[Monomial]):
        gens = kept = list(set(gens))
        if any(g.universe != universe for g in gens):
            raise ValueError("generator outside the declared universe")
        if len({g.total_degree for g in gens}) > 1:
            table = _thresholds([g.exponents for g in gens], max(g.total_degree for g in gens))
            every = (1 << len(gens)) - 1
            kept = [g for i, g in enumerate(gens) if _divisors(table, g.exponents, every) == 1 << i]
        self.universe = universe
        self.gens = tuple(sorted(kept, key=canonical_key, reverse=True))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one

    def min_degree(self) -> int:
        return min(g.total_degree for g in self.gens)

    def max_degree(self) -> int:
        return max(g.total_degree for g in self.gens)

    def is_equigenerated(self) -> bool:
        return not self.is_zero and self.min_degree() == self.max_degree()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.universe == other.universe
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash(self.gens)

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.gens)
        return f"MonomialIdeal({inner})"


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """I^k one factor at a time: G(I^(i+1)) lies in G(I^i)·G(I), so the
    constructor keeps the minimal sums of those exponent tuples."""
    if k < 1:
        raise ValueError("power expects k >= 1")
    universe, gens, kth = ideal.universe, [g.exponents for g in ideal.gens], ideal
    for _ in range(k - 1):
        sums = {tuple(map(add, a.exponents, b)) for a in kth.gens for b in gens}
        kth = MonomialIdeal(universe, (_monomial(universe, e, sum(e)) for e in sums))
    return kth


def component(ideal: MonomialIdeal, j: int) -> MonomialIdeal:
    """The ideal generated by every degree-j monomial of the ideal, one
    degree at a time: those of degree d + 1 are those of degree d times a
    variable, and the generators of degree d + 1."""
    if j < 0:
        raise ValueError("component degree must be nonnegative")
    part: set[tuple[int, ...]] = set()
    for d in range(j + 1):
        part = {e[:i] + (e[i] + 1,) + e[i + 1 :] for e in part for i in range(len(e))}
        part.update(g.exponents for g in ideal.gens if g.total_degree == d)
    return MonomialIdeal(ideal.universe, (_monomial(ideal.universe, e, j) for e in part))


def cover_ideal(graph) -> MonomialIdeal:
    """The ideal generated by the minimal-vertex-cover monomials of a graph.

    The variable priority is the graph's vertex order.  An edgeless graph
    has the single empty cover, hence the unit ideal.
    """
    from .graphs import minimal_vertex_covers

    universe = VariableUniverse(s_vars=graph.labels)
    covers = minimal_vertex_covers(graph)
    return MonomialIdeal(universe, (Monomial(universe, dict.fromkeys(c, 1)) for c in covers))
