"""Buchberger engine for pure-difference binomials.

Everything here works on oriented pairs of monomials (lead minus trail,
coefficients fixed at +1/-1), which is closed under S-pairs and
reduction, so no field arithmetic ever happens.  The order is the one
of ``monomials``, lex on the exponent tuple, so comparing two terms
compares their ``exponents``; rewriting and S-pairs run on those raw
tuples.  Every reduction looks its divisor up in the package's one
divisor index, ``monomials._LeadIndex``, whose entries here are the rules
(lead, trail): only the leads whose support fits inside the monomial's
are compared exponent by exponent.  The pair update runs on leads
packed into one int each, a fixed-width field per variable, so a
divisibility test, a quotient or an lcm is a few word operations.  The
toric kernel of x_i -> x_i, y_j -> u_j*t is computed from the generators
u_j by giving the elimination variable t slot 0 of every exponent tuple,
so that order puts it above every other variable, and keeping the t-free
part of the reduced basis with slot 0 dropped: the reduced basis of the
kernel under the same order.
"""

from __future__ import annotations

import heapq
from itertools import compress
from operator import mul
from typing import Iterable, Sequence

from .errors import DegreeCapExceeded
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableUniverse,
    _LeadIndex,
    _Packing,
    _monomial,
    _same_universe,
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
    "is_groebner_basis",
]


class Binomial:
    """lead - trail; ``oriented_binomial`` makes the larger term the lead.

    A value type like ``Monomial``: equal and hashed by its two terms, with
    no guard against assignment.  ``_rule`` is the rewrite lead -> trail
    on raw exponent tuples.
    """

    __slots__ = ("lead", "trail", "_rule")

    def __init__(self, lead: Monomial, trail: Monomial):
        if lead.universe != trail.universe:
            raise ValueError("binomial terms live in different universes")
        if lead == trail:
            raise ValueError("binomial would be zero")
        self.lead = lead
        self.trail = trail
        self._rule = (lead.exponents, trail.exponents)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Binomial) and self.lead == other.lead and self.trail == other.trail

    def __hash__(self) -> int:
        return hash(self._rule)

    def __str__(self) -> str:
        return f"{self.lead} - {self.trail}"

    def __repr__(self) -> str:
        return f"Binomial({self})"


def oriented_binomial(u: Monomial, v: Monomial) -> Binomial | None:
    """Orient u - v so the larger term leads; None means the difference is zero."""
    if u == v:
        return None
    return Binomial(u, v) if u.exponents > v.exponents else Binomial(v, u)


class GroebnerBasis:
    """A reduced basis: its elements ascending by lead, over one universe.

    A plain record compared by identity, with no guard against assignment;
    ``initial_ideal`` is computed once per basis.
    """

    __slots__ = ("universe", "elements", "_initial_ideal")

    def __init__(self, universe: VariableUniverse, elements: tuple[Binomial, ...]):
        self.universe = universe
        self.elements = elements
        self._initial_ideal = None

    def dump(self) -> str:
        """One ``lead - trail`` line per element, in the canonical order."""
        return "\n".join(str(b) for b in self.elements)

    @property
    def initial_ideal(self) -> MonomialIdeal:
        """The ideal of lead monomials."""
        if self._initial_ideal is None:
            self._initial_ideal = MonomialIdeal(self.universe, (e.lead for e in self.elements))
        return self._initial_ideal

    def __repr__(self) -> str:
        return f"GroebnerBasis({self.universe!r}, {len(self.elements)} elements)"


def _rewrite_once(m: tuple[int, ...], index: _LeadIndex) -> tuple[int, ...] | None:
    """m rewritten by the first rule whose lead divides it; None when none does."""
    rule = index.first_divisor(m)
    if rule is None:
        return None
    lead, trail = rule
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
    b: Binomial, elements: Sequence[Binomial] | _LeadIndex, *, toric: bool = False
) -> Binomial | None:
    """Full normal form of a binomial; None when it reduces to zero.

    ``elements`` is a sequence of binomials, wrapped here in a lead index,
    or an index a caller keeps across reductions.  Both terms are
    rewritten until neither is divisible by any lead.  Each rewrite
    strictly decreases the rewritten term, so the loop terminates; when
    the terms collide the binomial cancels.  With ``toric`` it also stops
    with None once the terms share a variable (the lemma in ``buchberger``).
    """
    p, q = b.lead.exponents, b.trail.exponents
    if isinstance(elements, _LeadIndex):
        index = elements
    else:
        index = _LeadIndex(len(p), (e._rule for e in elements))
    while True:
        if toric and any(map(mul, p, q)):
            return None
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
    f_lead, f_trail = f._rule
    g_lead, g_trail = g._rule
    # lcm - lead f + trail f = (lead g - lead f)+ + trail f, and symmetrically
    a = tuple([(y - x if y > x else 0) + t for x, y, t in zip(f_lead, g_lead, f_trail)])
    b = tuple([(x - y if x > y else 0) + t for x, y, t in zip(f_lead, g_lead, g_trail)])
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
    toric: bool = False,
) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal the generators span.

    Pair selection is by sugar (Giovini, Mora, Niesi, Robbiano and
    Traverso, "One sugar cube, please", 1991) in the grading ``weights``,
    one positive weight per variable in exponent-tuple layout (default:
    all 1).  A generator's sugar is the larger weighted degree of its two
    terms; the S-pair of f and g with lead lcm l has sugar
    max(sug f + w(l) - w(lead f), sug g + w(l) - w(lead g)); a new element
    keeps its pair's sugar, raised to its own weighted degree if that is
    larger.  Pairs wait in a heap of ints, each (sugar, lcm, i, j) packed
    to order like that tuple: the packed lcm (see below), then 32 bits for
    each of i < j.  On input homogeneous in the grading the sugar is the
    weighted degree of the lcm; on any other input it is still a valid
    selection order.

    Each inserted element h runs the Gebauer-Moeller update ("On an
    installation of Buchberger's algorithm", 1988) on its new pairs
    (g, h): those whose lcm a different new lcm properly divides are
    dropped (criterion M), one pair per lcm is kept (criterion F), and an
    lcm reached by a pair with coprime leads keeps no pair.  New pairs
    are formed, and reductions run, only with elements whose lead no
    later lead divides.  An element of total degree above ``degree_cap``
    aborts the run with ``DegreeCapExceeded``.

    ``toric`` declares the ideal J prime and free of monomials, as the
    ideal of a monomial map is, and requires every generator homogeneous
    in the grading (else ``ValueError``).  Then a binomial whose two terms
    share a variable needs no reduction, the gcd criterion of lattice
    ideals (Hemmecke-Malkin, J. Symb. Comp. 44, 2009): such an S-binomial
    is never queued, and a reduction stops once its terms share one.
    Proof: pairs are taken by increasing weighted degree d, so when one
    of degree d is taken the basis is a Groebner basis of J below degree
    d.  Let S = m*S' with m != 1, S an S-binomial or a partial reduction
    of one.  J is prime and m is not in J, so S' lies in J, and has
    degree < d, so it has a standard representation; times m, that
    represents S below the lcm of its pair.

    The pair update runs on ``monomials._Packing`` words sized by the larger
    of ``degree_cap`` and every input degree, a bound the cap check before
    each insertion keeps on every term, lcm and quotient.  lcm(g, h) is
    keyed by the colon lead g : lead h, whose degree orders criterion M;
    the S-binomial's terms have the supports of lcm / lead g and lcm /
    lead h joined with each element's trail support.

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
    n = len(universe.all_vars)
    if weights is None:
        weights = (1,) * n
    elif len(weights) != n or min(weights) < 1:
        raise ValueError("weights must give one positive integer per variable")

    def degree(m: tuple[int, ...]) -> int:
        return sum(map(mul, weights, m))

    if toric and any(degree(b.lead.exponents) != degree(b.trail.exponents) for b in inputs):
        raise ValueError("toric needs every generator homogeneous in the grading")
    top = max([degree_cap] + [m.total_degree for b in inputs for m in (b.lead, b.trail)])
    packing = _Packing(n, top)
    colons, nonzero, modulus = packing.colons, packing.support, packing.modulus
    lcm_bits = n * modulus.bit_length()

    basis: list[Binomial] = []
    sugar: list[int] = []
    words: list[int] = []  # packed lead of basis[g]
    wdeg: list[int] = []  # weighted degree of the lead of basis[g]
    trails: list[int] = []  # support of the trail of basis[g], under toric
    # basis[g] for g in live (ascending) is what index.alive holds
    live: list[int] = []
    index = _LeadIndex(n)
    pairs: list[int] = []  # (sugar << lcm_bits | lcm) << 64 | i << 32 | j

    def insert(h: Binomial, sug: int) -> None:
        new = len(basis)
        lead = h.lead.exponents
        word = packing.pack(lead)
        trail = nonzero(packing.pack(h.trail.exponents)) if toric else 0
        w_h = degree(lead)
        support = list(compress(range(n), lead))
        # criteria M and F on the new pairs: one pair per minimal lcm, none
        # where a pair with coprime leads reaches that lcm.  lcm(g, h) is
        # keyed by its quotient by lead h, the colon lead g : lead h
        quotients = colons(map(words.__getitem__, live), word)
        # the first live g reaching each quotient; coprime leads leave all
        # of lead g as the quotient
        first = dict(zip(reversed(quotients), reversed(live)))
        coprime = {q for q, g in zip(quotients, live) if q == words[g]}
        # minimal quotients by degree: those of degree 1, single variables,
        # as the union of their whole fields; the others as a list
        units = 0
        minimal: list[int] = []
        for q in sorted(first, key=lambda q: q % modulus):
            if q & units or packing.has_divisor(minimal, q):
                continue
            if q % modulus == 1:
                units |= q * modulus
            else:
                minimal.append(q)
            if q in coprime:
                continue
            g, lcm = first[q], word + q
            # the S-binomial's terms share a variable
            if toric and (nonzero(lcm - words[g]) | trails[g]) & (nonzero(q) | trail):
                continue
            lead_g = basis[g].lead.exponents
            # w(lcm) = w(lead h) + w(q), w(q) = w(lead g) - w(min),
            # and min(lead g, lead h) lives on supp(lead h)
            w_min = sum([weights[v] * min(lead_g[v], lead[v]) for v in support])
            s = max(sugar[g] + w_h, sug + wdeg[g]) - w_min
            heapq.heappush(pairs, (s << lcm_bits | lcm) << 64 | g << 32 | new)
        basis.append(h)
        sugar.append(sug)
        words.append(word)
        wdeg.append(w_h)
        trails.append(trail)
        index.retire(lead)
        index.add(h._rule)
        live[:] = [g for g in live if index.alive >> g & 1] + [new]

    for b in inputs:
        insert(b, max(degree(b.lead.exponents), degree(b.trail.exponents)))
    while pairs:
        key = heapq.heappop(pairs)
        s = s_pair(basis[key >> 32 & 0xFFFFFFFF], basis[key & 0xFFFFFFFF])
        if s is None:
            continue
        nf = reduce_binomial(s, index, toric=toric)
        if nf is None:
            continue
        if max(nf.lead.total_degree, nf.trail.total_degree) > degree_cap:
            raise DegreeCapExceeded(
                f"element of degree > {degree_cap} produced; raise the cap to continue"
            )
        sug = key >> 64 >> lcm_bits
        insert(nf, max(sug, degree(nf.lead.exponents), degree(nf.trail.exponents)))

    return GroebnerBasis(universe, tuple(_interreduce([basis[g] for g in live])))


def toric_kernel(gens: Sequence[Monomial], *, degree_cap: int = DEGREE_CAP) -> GroebnerBasis:
    """Kernel of x_i -> x_i, y_j -> gens[j] * t as a reduced basis.

    The generators u_j are monomials of one universe holding only the base
    block.  The reduced basis of the graph ideal (y_j - u_j*t) is computed
    on exponent tuples laid out (t, y_1..y_q, x_1..x_n), the layout of
    ``VariableUniverse(s_vars, y_vars, "t")``, so t lies above everything;
    its t-free part, slot 0 dropped, is returned over the universe without
    t.  Pairs are selected by sugar in the grading w(t) = w(x_i) = 1,
    w(y_j) = deg u_j + 1, under which every generator is homogeneous, and
    with ``toric``: the graph ideal is prime and holds no monomial.
    """
    if not gens:
        raise ValueError("toric_kernel needs at least one generator")
    base = gens[0].universe
    if base.y_vars or base.elim_var is not None:
        raise ValueError("the generators must live in a base-block-only universe")
    if any(u.universe != base for u in gens):
        raise ValueError("generators live in different universes")
    q = len(gens)
    y_vars = tuple(f"y{j}" for j in range(1, q + 1))
    full = VariableUniverse(base.s_vars, y_vars, "t")
    n = len(base.s_vars)
    rees = [
        oriented_binomial(
            _term(full, (1,) + (0,) * q + u.exponents),
            _term(full, (0,) * j + (1,) + (0,) * (q + n - j)),
        )
        for j, u in enumerate(gens, start=1)
    ]
    weights = (1,) + tuple(u.total_degree + 1 for u in gens) + (1,) * n
    basis = buchberger(rees, degree_cap=degree_cap, weights=weights, toric=True)
    target = VariableUniverse(base.s_vars, y_vars)
    kept = []
    for e in basis.elements:
        lead, trail = e._rule
        if lead[0]:
            continue
        if trail[0]:
            raise AssertionError("t-free lead with t in the trail")
        kept.append(Binomial(_term(target, lead[1:]), _term(target, trail[1:])))
    # dropping slot 0, which is 0 on every kept term, leaves the leads ascending
    return GroebnerBasis(target, tuple(kept))


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
