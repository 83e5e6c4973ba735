"""Buchberger engine for pure-difference binomials.

Everything here works on oriented pairs of monomials (lead minus trail,
coefficients fixed at +1/-1), which is closed under S-pairs and
reduction, so no field arithmetic ever happens.  The engine runs on
``monomials._Packing`` words, the first variable most significant, so the
order of ``monomials``, lex on the exponent tuple, is int order.  An
element is its lead word and trail - lead, so an S-binomial term and a
rewrite are one addition each, and divisors are looked up in the
live leads' index, ``monomials._LeadIndex``, over packed leads;
``Binomial``s are built only where words enter and leave.  The toric
kernel of x_i -> x_i, y_j -> u_j*t eliminates t on words alone: t is
their first, most significant field, so that order puts it above every
other variable, and only the t-free elements of the reduced basis become
binomials, over the base block and the y-block: the reduced basis of the
kernel.  No universe has an elimination block.
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
]


class Binomial:
    """lead - trail; ``oriented_binomial`` makes the larger term the lead.

    A value type like ``Monomial``: equal and hashed by its two terms, with
    no guard against assignment.
    """

    __slots__ = ("lead", "trail")

    def __init__(self, lead: Monomial, trail: Monomial):
        if lead.universe != trail.universe:
            raise ValueError("binomial terms live in different universes")
        if lead == trail:
            raise ValueError("binomial would be zero")
        self.lead = lead
        self.trail = trail

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Binomial) and self.lead == other.lead and self.trail == other.trail

    def __hash__(self) -> int:
        return hash((self.lead.exponents, self.trail.exponents))

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
    ``initial_ideal`` is computed once per basis.  ``counts`` holds the
    counters of the run that computed it (see ``buchberger``).
    """

    __slots__ = ("universe", "elements", "counts", "_initial_ideal")

    def __init__(self, universe: VariableUniverse, elements: tuple, counts: dict | None = None):
        self.universe = universe
        self.elements = elements
        self.counts = counts or {}
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


def _term(universe: VariableUniverse, packing: _Packing, word: int) -> Monomial:
    """The monomial of ``universe`` held in the last fields of a word."""
    exponents = packing.unpack(word)[-len(universe.all_vars) :]
    return _monomial(universe, exponents, sum(exponents))


def _widening(n: int, top: int, run):
    """``run`` on words of n fields sized for degree ``top``, rerun on fields
    twice as wide while it returns None: a term outgrew them."""
    while (out := run(_Packing(n, top))) is None:
        top = (top + 1) ** 2
    return out


def _reduce(p: int, q: int, index: _LeadIndex, deltas: list[int], toric: bool) -> tuple[int, int]:
    """The normal form of the words p - q: rule g of ``index`` rewrites a
    multiple m of its lead, the larger term first, to the smaller m +
    ``deltas[g]``.  Equal terms mean zero, also once they share a variable
    under ``toric`` (see ``buchberger``); a guard bit means an overflow."""
    first, guards, support = index.first_divisor, index.packing.guards, index.packing.support
    while True:
        if (p | q) & guards or p == q:
            return p, q
        if toric and support(p) & support(q):
            return p, p
        g = first(p)
        if g is None:
            g = first(q)
            if g is None:
                return p, q
            q += deltas[g]
        else:
            p += deltas[g]
        if p < q:
            p, q = q, p


def reduce_binomial(
    b: Binomial, elements: Sequence[Binomial], *, toric: bool = False
) -> Binomial | None:
    """Full normal form of a binomial by ``elements``; None when it reduces
    to zero or, with ``toric``, once its terms share a variable."""
    u = b.lead.universe

    def run(packing: _Packing) -> tuple[_Packing, int, int] | None:
        leads = [packing.pack(e.lead.exponents) for e in elements]
        deltas = [packing.pack(e.trail.exponents) - lead for e, lead in zip(elements, leads)]
        p, q = (packing.pack(m.exponents) for m in (b.lead, b.trail))
        p, q = _reduce(p, q, _LeadIndex(packing, leads), deltas, toric)
        return None if (p | q) & packing.guards else (packing, p, q)

    top = max(m.total_degree for e in (b, *elements) for m in (e.lead, e.trail))
    packing, p, q = _widening(len(u.all_vars), top, run)
    return None if p == q else Binomial(_term(u, packing, p), _term(u, packing, q))


def s_pair(f: Binomial, g: Binomial) -> Binomial | None:
    """The S-binomial of f and g; None when the terms already agree."""
    u = f.lead.universe
    if u != g.lead.universe:
        raise ValueError("monomials live in different universes")
    # lcm - lead + trail: degree at most three times the largest term's
    terms = (f.lead, f.trail, g.lead, g.trail)
    top = 3 * max(m.total_degree for m in terms)
    packing = _Packing(len(u.all_vars), top)
    f_lead, f_trail, g_lead, g_trail = (packing.pack(m.exponents) for m in terms)
    lcm = f_lead + packing.colons((g_lead,), f_lead)[0]
    b, a = sorted((lcm - f_lead + f_trail, lcm - g_lead + g_trail))
    return None if a == b else Binomial(_term(u, packing, a), _term(u, packing, b))


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

    Pairs are taken by the weighted degree of their lcm, w(lcm(f, g)) =
    w(lead f) + w(lead g) - w(gcd), in the grading ``weights``, one
    positive weight per variable in exponent-tuple layout (default: all
    1).  Pairs wait in a heap of ints, each (w(lcm), lcm, i, j) packed to
    order like that tuple: the packed lcm, then 32 bits for each of i < j.
    On input homogeneous in the grading this is the selection degree of
    Giovini, Mora, Niesi, Robbiano and Traverso (ISSAC 1991), by induction
    over insertions: an S-binomial and its reductions stay homogeneous of
    its pair's w(lcm), so every element has weighted degree w(lead).  On
    other input, which only tests send and ``toric`` refuses, it is still a
    valid order: the algorithm and the pair criteria of the next paragraph
    hold whatever order the pairs are taken in.

    Each inserted element h keeps one new pair (g, h) per lcm, for the
    first g reaching it (criterion F of Gebauer-Moeller, "On an
    installation of Buchberger's algorithm", 1988), and drops it where
    lead g is coprime to lead h, or where a new lcm lead h * x_v, x_v one
    variable, properly divides lcm(g, h) (criterion M, with only these
    witnesses).  The full update makes each of these drops, and fewer drops
    only add reductions, so the reduced basis is the same; on the large
    toric kernels the other witnesses save at most 1% of the pairs popped.
    New pairs are formed, and reductions run, only with elements whose
    lead no later lead divides.  An element of total degree above
    ``degree_cap`` aborts the run with ``DegreeCapExceeded``.

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

    The run is on ``monomials._Packing`` words throughout: element g is
    its lead word and trail - lead, so an S-binomial term lcm - lead g +
    trail g and a rewrite are one addition each, and lcm(g, h) is keyed by
    the colon lead g : lead h, of degree 1 for the witnesses of criterion
    M.  Fields are sized by the larger of ``degree_cap`` and every input
    degree, which the cap check keeps every lead, lcm and quotient within;
    a term can still outgrow them (``buchberger([x1 - x2^3, x2 - x3^3],
    degree_cap=3)`` rewrites x2^3 to x3^9), so each new term's guard bits
    are checked, and on overflow the run restarts on wider fields.  The
    pair sequence does not depend on the width.

    The live elements form one lead index that every reduction reads: an
    inserted element adds its bit and retires the elements whose lead its
    own divides.  The index yields the live divisor of lowest basis index,
    the rule a scan over the live elements in order would pick first; the
    interreduction keeps, through it, the live elements whose lead no
    other divides.  ``counts`` on the result holds the pairs popped, those
    dropped when formed by criteria F and M, by coprime leads and by the
    toric criterion, the reductions of nonzero S-binomials and those to
    zero, the peak number of live elements and the largest degree of an
    inserted element.
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
    rules = [(b.lead.exponents, b.trail.exponents) for b in inputs]
    if toric and any(sum(map(mul, weights, a)) != sum(map(mul, weights, b)) for a, b in rules):
        raise ValueError("toric needs every generator homogeneous in the grading")
    packing, basis, counts = _complete(rules, weights, degree_cap, toric)
    u = universe
    elements = (Binomial(_term(u, packing, a), _term(u, packing, b)) for a, b in basis)
    return GroebnerBasis(u, tuple(elements), counts)


def _complete(rules: list, weights: Sequence[int], degree_cap: int, toric: bool) -> tuple:
    """``buchberger`` on oriented (lead, trail) exponent tuples: the packing,
    the reduced basis as (lead, trail) words by lead, the run's counts."""
    top = max([degree_cap] + [sum(m) for rule in rules for m in rule])
    return _widening(len(weights), top, lambda p: _run(p, rules, weights, degree_cap, toric))


def _run(packing: _Packing, rules: list, weights: Sequence[int], degree_cap: int, toric: bool):
    """``_complete`` on the fields of ``packing``; None when a term outgrows them."""
    n = len(weights)
    colons, support, unpack = packing.colons, packing.support, packing.unpack
    modulus, guards, shifts = packing.modulus, packing.guards, packing.shifts
    lcm_bits = n * modulus.bit_length()
    index = _LeadIndex(packing)
    leads = index.leads  # lead word of element g
    # of element g: trail - lead, w(lead g), support of trail g (toric)
    deltas, wdeg, trails = [], [], []
    live: list[int] = []  # the elements index.alive holds, ascending
    pairs: list[int] = []  # (w(lcm) << lcm_bits | lcm) << 64 | i << 32 | j
    dropped = "pairs_dropped_f pairs_dropped_m pairs_dropped_coprime pairs_dropped_toric"
    names = f"pairs_popped {dropped} reductions zero_reductions peak_live max_degree"
    counts = dict.fromkeys(names.split(), 0)

    def insert(lead: int, trail: int) -> int:
        """Insert lead - trail with its pairs; returns its total degree."""
        new = len(leads)
        lead_e, trail_e = unpack(lead), unpack(trail)
        w_lead = sum(map(mul, weights, lead_e))
        on = [(weights[v], shifts[v]) for v in compress(range(n), lead_e)]
        trail_support = support(trail) if toric else 0
        # criterion F: one pair per lcm, keyed by its quotient by lead h, the
        # colon lead g : lead h, which is all of lead g for coprime leads
        quotients = colons(map(leads.__getitem__, live), lead)
        first = dict(zip(reversed(quotients), reversed(live)))
        counts["pairs_dropped_f"] += len(live) - len(first)
        # criterion M against the one-variable quotients, their fields filled
        units = sum(q for q in first if q % modulus == 1) * modulus
        for q, g in first.items():
            if q % modulus != 1 and q & units:
                counts["pairs_dropped_m"] += 1
                continue
            if q == leads[g]:
                counts["pairs_dropped_coprime"] += 1
                continue
            lcm = lead + q
            # the S-binomial's terms share a variable
            if toric and (support(lcm - leads[g]) | trails[g]) & (support(q) | trail_support):
                counts["pairs_dropped_toric"] += 1
                continue
            # w(lcm) = w(lead h) + w(lead g) - w(gcd), gcd = lead g - q on supp(lead h)
            gcd = leads[g] - q
            w_gcd = sum([w * (gcd >> s & modulus) for w, s in on])
            w_lcm = wdeg[g] + w_lead - w_gcd
            heapq.heappush(pairs, (w_lcm << lcm_bits | lcm) << 64 | g << 32 | new)
        alive = index.alive | 1 << new
        index.retire(lead)
        index.add(lead)
        deltas.append(trail - lead)
        wdeg.append(w_lead)
        trails.append(trail_support)
        if index.alive != alive:  # some lead retired
            live[:] = [g for g in live if index.alive >> g & 1]
        live.append(new)
        degree = max(sum(lead_e), sum(trail_e))
        counts["peak_live"] = max(counts["peak_live"], len(live))
        counts["max_degree"] = max(counts["max_degree"], degree)
        return degree

    for lead, trail in rules:
        insert(packing.pack(lead), packing.pack(trail))
    lcm_mask = (1 << lcm_bits) - 1
    while pairs:
        key = heapq.heappop(pairs)
        counts["pairs_popped"] += 1
        lcm = key >> 64 & lcm_mask
        a, b = lcm + deltas[key >> 32 & 0xFFFFFFFF], lcm + deltas[key & 0xFFFFFFFF]
        if a == b:
            continue
        counts["reductions"] += 1
        p, q = _reduce(max(a, b), min(a, b), index, deltas, toric)
        if (p | q) & guards:
            return None
        if p == q:
            counts["zero_reductions"] += 1
        elif insert(p, q) > degree_cap:
            raise DegreeCapExceeded(
                f"element of degree > {degree_cap} produced; raise the cap to continue"
            )

    # the live elements whose lead no other live lead divides, ascending,
    # with each trail in normal form
    by_lead = sorted(live, key=leads.__getitem__)
    for g in by_lead:
        if index.alive >> g & 1:
            index.retire(leads[g])
            index.alive |= 1 << g
    kept = [g for g in by_lead if index.alive >> g & 1]
    basis = [(leads[g], _reduce(leads[g] + deltas[g], 0, index, deltas, False)[0]) for g in kept]
    return None if any(t & guards for _, t in basis) else (packing, basis, counts)


def toric_kernel(gens: Sequence[Monomial], *, degree_cap: int = DEGREE_CAP) -> GroebnerBasis:
    """Kernel of x_i -> x_i, y_j -> gens[j] * t as a reduced basis.

    The generators u_j are monomials of one universe holding only the base
    block.  The engine of ``buchberger`` computes the reduced basis of the
    graph ideal (y_j - u_j*t) on words laid out (t, y_1..y_q, x_1..x_n), so
    t lies above everything, taking pairs by the weighted degree of their
    lcm in the grading w(t) = w(x_i) = 1, w(y_j) = deg u_j + 1, under which
    every generator is homogeneous, and with ``toric``: the graph ideal is
    prime and holds no monomial.  t is a field of the words alone: only
    the t-free elements become binomials, over the base block and the
    y-block.
    """
    if not gens:
        raise ValueError("toric_kernel needs at least one generator")
    base = gens[0].universe
    if base.y_vars:
        raise ValueError("the generators must live in a base-block-only universe")
    if any(u.universe != base for u in gens):
        raise ValueError("generators live in different universes")
    q = len(gens)
    y_vars = tuple(f"y{j}" for j in range(1, q + 1))
    n = len(base.s_vars)
    # t*u_j leads y_j: t decides first
    rules = [
        ((1,) + (0,) * q + u.exponents, (0,) * j + (1,) + (0,) * (q + n - j))
        for j, u in enumerate(gens, start=1)
    ]
    weights = (1,) + tuple(u.total_degree + 1 for u in gens) + (1,) * n
    VariableUniverse(base.s_vars, ("t",) + y_vars)  # the words' layout; rejects a label collision
    packing, basis, counts = _complete(rules, weights, degree_cap, True)
    u, t_free = VariableUniverse(base.s_vars, y_vars), 1 << packing.shifts[0]
    # field 0 is 0 on every kept term, so the leads stay ascending without it
    kept = (Binomial(_term(u, packing, a), _term(u, packing, b)) for a, b in basis if a < t_free)
    return GroebnerBasis(u, tuple(kept), counts)

