"""Buchberger engine for pure-difference binomials.

Everything here works on oriented pairs of monomials (lead minus trail,
coefficients fixed at +1/-1), which is closed under S-pairs and
reduction, so no field arithmetic ever happens.  The order is the one
of ``monomials``, lex on the exponent tuple, so comparing two terms
compares their ``exponents``; the hot loops (divisibility, rewriting,
the pair update) run on those raw tuples with support bitmasks.  Every
reduction looks its divisor up in a lead index: one int bitset per
variable of the rules whose lead uses it, so the leads whose support fits
inside a monomial's come from one mask intersection, and only those are
compared exponent by exponent.  Toric kernels
of monomial maps are computed by adjoining an elimination variable,
which that order puts above every other variable, and keeping the
elimination-free part of the reduced basis: the reduced basis of the
kernel under the same order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import compress
from operator import add, and_, le, mul, not_, or_
from typing import Iterable, Sequence

from .errors import DegreeCapExceeded
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableUniverse,
    _monomial,
    _same_universe,
    minimalize,
    variable,
)

__all__ = [
    "DEGREE_CAP",
    "Binomial",
    "GroebnerBasis",
    "oriented_binomial",
    "reduce_binomial",
    "s_pair",
    "buchberger",
    "toric_kernel",
    "initial_ideal",
    "is_groebner_basis",
]


# (lead exponents, support mask of the lead, trail exponents)
_Rule = tuple[tuple[int, ...], int, tuple[int, ...]]


@dataclass(frozen=True)
class Binomial:
    """lead - trail; ``oriented_binomial`` makes the larger term the lead."""

    lead: Monomial
    trail: Monomial

    def __post_init__(self):
        if self.lead.universe != self.trail.universe:
            raise ValueError("binomial terms live in different universes")
        if self.lead == self.trail:
            raise ValueError("binomial would be zero")

    def __str__(self) -> str:
        return f"{self.lead} - {self.trail}"

    @cached_property
    def _rule(self) -> _Rule:
        """The rewrite lead -> trail on raw exponent tuples:
        ``(lead exponents, support mask of the lead, trail exponents)``."""
        lead = self.lead.exponents
        return lead, _support(lead), self.trail.exponents


def oriented_binomial(u: Monomial, v: Monomial) -> Binomial | None:
    """Orient u - v so the larger term leads; None means the difference is zero."""
    if u == v:
        return None
    return Binomial(u, v) if u.exponents > v.exponents else Binomial(v, u)


@dataclass(frozen=True)
class GroebnerBasis:
    universe: VariableUniverse
    elements: tuple[Binomial, ...]

    def dump(self) -> str:
        """One ``lead - trail`` line per element, in the canonical order."""
        return "\n".join(str(b) for b in self.elements)

    @cached_property
    def initial_ideal(self) -> MonomialIdeal:
        """The ideal of lead monomials, computed once per basis."""
        return minimalize([e.lead for e in self.elements], self.universe)


@cache
def _bits(width: int) -> tuple[int, ...]:
    """``1 << k`` for each of ``width`` positions."""
    return tuple(1 << k for k in range(width))


def _support(exponents: tuple[int, ...]) -> int:
    """Bitmask of the positions where an exponent tuple is nonzero."""
    return sum(compress(_bits(len(exponents)), exponents))


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([x if x > y else y for x, y in zip(a, b)])


class _LeadIndex:
    """Rewrite rules indexed by the support of their leads.

    Bit g of an int bitset stands for ``rules[g]``.  ``has[v]`` holds the
    rules whose lead uses variable v, and ``alive`` the rules still in
    use.  The live rules whose lead support fits inside supp(m) are then
    ``alive & ~OR{has[v] : m_v = 0}``; they are tried from the lowest bit
    up, so a lookup finds the first live divisor in insertion order.
    """

    __slots__ = ("rules", "has", "alive")

    def __init__(self, width: int, rules: Iterable[_Rule] = ()):
        self.rules: list[_Rule] = []
        self.has = [0] * width
        self.alive = 0
        for rule in rules:
            self.add(rule)

    def add(self, rule: _Rule) -> None:
        bit = 1 << len(self.rules)
        self.rules.append(rule)
        has = self.has
        for v in compress(range(len(has)), rule[0]):
            has[v] |= bit
        self.alive |= bit

    def first_divisor(self, m: tuple[int, ...]) -> _Rule | None:
        """The first live rule whose lead divides m; None when none does."""
        rules = self.rules
        candidates = self.alive & ~reduce(or_, compress(self.has, map(not_, m)), 0)
        while candidates:
            low = candidates & -candidates
            rule = rules[low.bit_length() - 1]
            if all(map(le, rule[0], m)):
                return rule
            candidates ^= low
        return None

    def retire(self, m: tuple[int, ...]) -> None:
        """Mark dead every live rule whose lead m divides."""
        rules = self.rules
        candidates = reduce(and_, compress(self.has, m), self.alive)
        while candidates:
            low = candidates & -candidates
            if all(map(le, m, rules[low.bit_length() - 1][0])):
                self.alive ^= low
            candidates ^= low


def _rewrite_once(m: tuple[int, ...], index: _LeadIndex) -> tuple[int, ...] | None:
    """m rewritten by the first rule whose lead divides it; None when none does."""
    rule = index.first_divisor(m)
    if rule is None:
        return None
    lead, _, trail = rule
    return tuple([e - a + b for e, a, b in zip(m, lead, trail)])


def _normal_form(m: tuple[int, ...], index: _LeadIndex) -> tuple[int, ...]:
    while True:
        r = _rewrite_once(m, index)
        if r is None:
            return m
        m = r


def _term(universe: VariableUniverse, exponents: tuple[int, ...]) -> Monomial:
    return _monomial(universe, exponents, sum(exponents))


def reduce_binomial(
    b: Binomial, elements: Sequence[Binomial] | _LeadIndex
) -> Binomial | None:
    """Full normal form of a binomial; None when it reduces to zero.

    ``elements`` is a sequence of binomials, wrapped here in a lead index,
    or an index a caller keeps across reductions.  Both terms are
    rewritten until neither is divisible by any lead.  Each rewrite
    strictly decreases the rewritten term, so the loop terminates; when
    the terms collide the binomial cancels.
    """
    p, q = b.lead.exponents, b.trail.exponents
    if isinstance(elements, _LeadIndex):
        index = elements
    else:
        index = _LeadIndex(len(p), (e._rule for e in elements))
    while True:
        r = _rewrite_once(p, index)
        if r is None:
            r = _rewrite_once(q, index)
            if r is None:
                break
            q = r
        else:
            p = r
        if p == q:
            return None
        if p < q:
            p, q = q, p
    universe = b.lead.universe
    return Binomial(_term(universe, p), _term(universe, q))


def s_pair(f: Binomial, g: Binomial) -> Binomial | None:
    """The S-binomial of f and g; None when the terms already agree."""
    _same_universe(f.lead, g.lead)
    f_lead, _, f_trail = f._rule
    g_lead, _, g_trail = g._rule
    lcm = _lcm(f_lead, g_lead)
    a = tuple([l - x + t for l, x, t in zip(lcm, f_lead, f_trail)])
    b = tuple([l - x + t for l, x, t in zip(lcm, g_lead, g_trail)])
    if a == b:
        return None
    if a < b:
        a, b = b, a
    universe = f.lead.universe
    return Binomial(_term(universe, a), _term(universe, b))


def _interreduce(elements: list[Binomial]) -> list[Binomial]:
    """The reduced basis of a nonempty Groebner basis, ascending by lead."""
    universe = elements[0].lead.universe
    index = _LeadIndex(len(universe.all_vars))
    kept: list[Binomial] = []
    for e in sorted(elements, key=lambda e: (e.lead.exponents, e.trail.exponents)):
        if index.first_divisor(e.lead.exponents) is None:
            kept.append(e)
            index.add(e._rule)
    return [
        Binomial(e.lead, _term(universe, _normal_form(e.trail.exponents, index)))
        for e in kept
    ]


DEGREE_CAP = 40
"""Default bound on the total degree of a basis element."""


def buchberger(
    gens: Iterable[Binomial],
    *,
    degree_cap: int = DEGREE_CAP,
    weights: Sequence[int] | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal the generators span.

    Pair selection is by sugar (Giovini, Mora, Niesi, Robbiano and
    Traverso, "One sugar cube, please", 1991) in the grading ``weights``,
    one positive weight per variable in exponent-tuple layout (default:
    all 1).  A generator's sugar is the larger weighted degree of its two
    terms; the S-pair of f and g with lead lcm l has sugar
    max(sug f + w(l) - w(lead f), sug g + w(l) - w(lead g)); a new element
    keeps its pair's sugar, raised to its own weighted degree if that is
    larger.  Pairs wait in a heap keyed ``(sugar, lcm exponents, i, j)``.
    On input homogeneous in the grading the sugar is the weighted degree
    of the lcm; on any other input it is still a valid selection order.

    Each inserted element h runs the Gebauer-Moeller update ("On an
    installation of Buchberger's algorithm", 1988): a waiting pair (i, j)
    is dropped when lead h divides its lcm and differs from both
    lcm(i, h) and lcm(j, h) (criterion B); of the new pairs (g, h), those
    whose lcm a different new lcm properly divides are dropped
    (criterion M), one pair per lcm is kept (criterion F), and an lcm
    reached by a pair with coprime leads keeps no pair.  New pairs are
    formed, and reductions run, only with elements whose lead no later
    lead divides.  The new lcms are keyed by their quotient lcm / lead h,
    whose support is sparse, so the mask test settles most divisibility
    checks of criterion M.  An element of total degree above
    ``degree_cap`` aborts the run with ``DegreeCapExceeded``.

    The live elements form one lead index that every reduction reads: an
    inserted element adds its bit and retires the elements whose lead its
    own divides.  The index yields the live divisor of lowest basis index,
    the rule a scan over the live elements in order would pick first.
    """
    inputs: list[Binomial] = []
    universe: VariableUniverse | None = None
    for b in gens:
        if universe is None:
            universe = b.lead.universe
        elif b.lead.universe != universe:
            raise ValueError("generators live in different universes")
        reoriented = oriented_binomial(b.lead, b.trail)
        if reoriented is not None and reoriented not in inputs:
            inputs.append(reoriented)
    if universe is None:
        raise ValueError("buchberger needs at least one generator to fix the universe")
    if weights is None:
        weights = (1,) * len(universe.all_vars)
    elif len(weights) != len(universe.all_vars) or min(weights) < 1:
        raise ValueError("weights must give one positive integer per variable")

    def degree(m: tuple[int, ...]) -> int:
        return sum(map(mul, weights, m))

    bits = _bits(len(weights))
    basis: list[Binomial] = []
    sugar: list[int] = []
    # basis[g] for g in live (ascending) is what index.alive holds
    live: list[int] = []
    index = _LeadIndex(len(weights))
    # heap entries: (sugar, lcm, i, j, support mask of the lcm), i < j
    pairs: list[tuple[int, tuple[int, ...], int, int, int]] = []

    def insert(h: Binomial, sug: int) -> None:
        new = len(basis)
        lead, mask, _ = h._rule
        # criterion B on the waiting pairs
        survivors = [
            e
            for e in pairs
            if mask & ~e[4]
            or not all(map(le, lead, e[1]))
            or _lcm(basis[e[2]]._rule[0], lead) == e[1]
            or _lcm(basis[e[3]]._rule[0], lead) == e[1]
        ]
        if len(survivors) < len(pairs):
            pairs[:] = survivors
            heapq.heapify(pairs)
        # criteria M and F on the new pairs: one pair per minimal lcm, none
        # where a pair with coprime leads reaches that lcm.  lcm(g, h) is
        # keyed by the quotient lcm / lead h, whose support is sparse;
        # quotient -> [first g reaching it, support mask, coprime pair seen]
        by_quotient: dict[tuple[int, ...], list] = {}
        for g in live:
            lead_g, mask_g, _ = basis[g]._rule
            q = tuple([a - b if a > b else 0 for a, b in zip(lead_g, lead)])
            entry = by_quotient.get(q)
            if entry is None:
                by_quotient[q] = [g, sum(compress(bits, q)), not mask_g & mask]
            elif not mask_g & mask:
                entry[2] = True
        minimal: list[tuple[tuple[int, ...], int]] = []
        for q in sorted(by_quotient, key=sum):
            g, q_mask, coprime = by_quotient[q]
            for m, m_mask in minimal:
                if not m_mask & ~q_mask and all(map(le, m, q)):
                    break
            else:
                minimal.append((q, q_mask))
                if not coprime:
                    lcm = tuple(map(add, q, lead))
                    w = degree(lcm)
                    s = max(
                        sugar[g] + w - degree(basis[g].lead.exponents),
                        sug + w - degree(lead),
                    )
                    heapq.heappush(pairs, (s, lcm, g, new, q_mask | mask))
        basis.append(h)
        sugar.append(sug)
        index.retire(lead)
        index.add(h._rule)
        live[:] = [g for g in live if index.alive >> g & 1] + [new]

    for b in inputs:
        insert(b, max(degree(b.lead.exponents), degree(b.trail.exponents)))
    while pairs:
        sug, _, i, j, _ = heapq.heappop(pairs)
        s = s_pair(basis[i], basis[j])
        if s is None:
            continue
        nf = reduce_binomial(s, index)
        if nf is None:
            continue
        if max(nf.lead.total_degree, nf.trail.total_degree) > degree_cap:
            raise DegreeCapExceeded(
                f"element of degree > {degree_cap} produced; raise the cap to continue"
            )
        insert(nf, max(sug, degree(nf.lead.exponents), degree(nf.trail.exponents)))

    return GroebnerBasis(universe, tuple(_interreduce([basis[g] for g in live])))


def toric_kernel(images: Sequence[Monomial], *, degree_cap: int = DEGREE_CAP) -> GroebnerBasis:
    """Kernel of x_i -> x_i, y_j -> images[j] as a reduced basis.

    Every image must be a base-block monomial times the elimination
    variable to the first power (a monomial map into degree one of the
    auxiliary grading).  The reduced basis of the graph ideal
    (y_j - image_j) is computed with the elimination variable above
    everything, and its elimination-free part is returned over the
    universe without that variable.  Pairs are selected by sugar in the
    grading w(t) = w(x_i) = 1, w(y_j) = deg images[j], that is deg u_j + 1,
    under which every generator is homogeneous.
    """
    if not images:
        raise ValueError("toric_kernel needs at least one image")
    u0 = images[0].universe
    if u0.elim_var is None:
        raise ValueError("image universe must declare an elimination variable")
    if u0.y_vars:
        raise ValueError("image universe must not already contain the adjoined block")
    full = VariableUniverse(
        u0.s_vars, tuple(f"y{j}" for j in range(1, len(images) + 1)), u0.elim_var
    )
    gens = []
    for j, img in enumerate(images, start=1):
        if img.universe != u0:
            raise ValueError("images live in different universes")
        if img.y_degree != 0 or img.t_degree != 1:
            raise ValueError(
                f"image {img} must be a base monomial times {u0.elim_var} to the first power"
            )
        lifted = img.restricted(full)
        gens.append(oriented_binomial(lifted, variable(full, f"y{j}")))
    weights = (1,) + tuple(img.total_degree for img in images) + (1,) * len(u0.s_vars)
    basis = buchberger(gens, degree_cap=degree_cap, weights=weights)
    target = full.drop_elim()
    kept = []
    for e in basis.elements:
        if e.lead.t_degree:
            continue
        if e.trail.t_degree:
            raise AssertionError("elimination-free lead with elimination in the trail")
        kept.append(Binomial(e.lead.restricted(target), e.trail.restricted(target)))
    # dropping t, which is 0 on every kept term, leaves the leads ascending
    return GroebnerBasis(target, tuple(kept))


def initial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """The ideal of lead monomials of a Groebner basis."""
    return basis.initial_ideal


def is_groebner_basis(basis: GroebnerBasis) -> bool:
    """Buchberger's criterion: every S-pair reduces to zero."""
    elems = basis.elements
    index = _LeadIndex(len(basis.universe.all_vars), (e._rule for e in elems))
    for j in range(len(elems)):
        for i in range(j):
            s = s_pair(elems[i], elems[j])
            if s is None:
                continue
            if reduce_binomial(s, index) is not None:
                return False
    return True
