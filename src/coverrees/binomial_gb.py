"""Buchberger engine for pure-difference binomials.

Everything here works on oriented pairs of monomials (lead minus trail,
coefficients fixed at +1/-1), which is closed under S-pairs and
reduction, so no field arithmetic ever happens.  The order is the one
of ``monomials``, lex on the exponent tuple, so comparing two terms
compares their ``exponents``; the hot loops (divisibility, rewriting)
run on those raw tuples with a support-bitmask prefilter.  Toric kernels
of monomial maps are computed by adjoining an elimination variable,
which that order puts above every other variable, and keeping the
elimination-free part of the reduced basis: the reduced basis of the
kernel under the same order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from operator import le, mul
from typing import Iterable, Sequence

from .errors import DegreeCapExceeded
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableUniverse,
    _monomial,
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


def _support(exponents: tuple[int, ...]) -> int:
    """Bitmask of the positions where an exponent tuple is nonzero."""
    mask = 0
    for k, e in enumerate(exponents):
        if e:
            mask |= 1 << k
    return mask


def _divides(
    small: tuple[int, ...], small_mask: int, large: tuple[int, ...], large_mask: int
) -> bool:
    """Whether ``small`` divides ``large``, given their support masks."""
    return not small_mask & ~large_mask and all(map(le, small, large))


def _rewrite_once(m: tuple[int, ...], rules: Sequence[_Rule]) -> tuple[int, ...] | None:
    """m rewritten by the first rule whose lead divides it; None when none does."""
    mask = _support(m)
    for lead, lead_mask, trail in rules:
        # _divides inlined: this is the innermost loop of every reduction
        if not lead_mask & ~mask and all(map(le, lead, m)):
            return tuple([e - a + b for e, a, b in zip(m, lead, trail)])
    return None


def _normal_form(m: tuple[int, ...], rules: Sequence[_Rule]) -> tuple[int, ...]:
    while True:
        r = _rewrite_once(m, rules)
        if r is None:
            return m
        m = r


def _term(universe: VariableUniverse, exponents: tuple[int, ...]) -> Monomial:
    return _monomial(universe, exponents, sum(exponents))


def reduce_binomial(b: Binomial, elements: Sequence[Binomial]) -> Binomial | None:
    """Full normal form of a binomial; None when it reduces to zero.

    Both terms are rewritten until neither is divisible by any lead.
    Each rewrite strictly decreases the rewritten term, so the loop
    terminates; when the terms collide the binomial cancels.
    """
    rules = [e._rule for e in elements]
    p, q = b.lead.exponents, b.trail.exponents
    while True:
        r = _rewrite_once(p, rules)
        if r is None:
            r = _rewrite_once(q, rules)
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
    l = f.lead.lcm(g.lead)
    a = (l / f.lead) * f.trail
    b = (l / g.lead) * g.trail
    return oriented_binomial(a, b)


def _interreduce(elements: list[Binomial]) -> list[Binomial]:
    """The reduced basis of a Groebner basis, ascending by lead."""
    ordered = sorted(elements, key=lambda e: (e.lead.exponents, e.trail.exponents))
    kept: list[Binomial] = []
    for e in ordered:
        if not any(k.lead.divides(e.lead) for k in kept):
            kept.append(e)
    rules = [k._rule for k in kept]
    return [
        Binomial(e.lead, _term(e.lead.universe, _normal_form(e.trail.exponents, rules)))
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
    lead divides.  An element of total degree above ``degree_cap``
    aborts the run with ``DegreeCapExceeded``.
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

    basis: list[Binomial] = []
    sugar: list[int] = []
    live: list[int] = []
    reducers: list[Binomial] = []
    # heap entries: (sugar, lcm, i, j, support mask of the lcm), i < j
    pairs: list[tuple[int, tuple[int, ...], int, int, int]] = []

    def insert(h: Binomial, sug: int) -> None:
        new = len(basis)
        lead, mask, _ = h._rule
        # criterion B on the waiting pairs
        survivors = [
            e
            for e in pairs
            if not _divides(lead, mask, e[1], e[4])
            or tuple(map(max, basis[e[2]].lead.exponents, lead)) == e[1]
            or tuple(map(max, basis[e[3]].lead.exponents, lead)) == e[1]
        ]
        if len(survivors) < len(pairs):
            pairs[:] = survivors
            heapq.heapify(pairs)
        # criteria M and F on the new pairs: one pair per minimal lcm, none
        # where a pair with coprime leads reaches that lcm
        # lcm -> [first g reaching it, support mask of the lcm, coprime pair seen]
        by_lcm: dict[tuple[int, ...], list] = {}
        for g in live:
            lead_g, mask_g, _ = basis[g]._rule
            lcm = tuple(map(max, lead_g, lead))
            entry = by_lcm.get(lcm)
            if entry is None:
                by_lcm[lcm] = [g, mask_g | mask, not mask_g & mask]
            elif not mask_g & mask:
                entry[2] = True
        minimal: list[tuple[tuple[int, ...], int]] = []
        for lcm in sorted(by_lcm, key=sum):
            g, lcm_mask, coprime = by_lcm[lcm]
            if any(_divides(m, m_mask, lcm, lcm_mask) for m, m_mask in minimal):
                continue
            minimal.append((lcm, lcm_mask))
            if not coprime:
                w = degree(lcm)
                s = max(
                    sugar[g] + w - degree(basis[g].lead.exponents),
                    sug + w - degree(lead),
                )
                heapq.heappush(pairs, (s, lcm, g, new, lcm_mask))
        basis.append(h)
        sugar.append(sug)
        still_live = []
        for g in live:
            lead_g, mask_g, _ = basis[g]._rule
            if not _divides(lead, mask, lead_g, mask_g):
                still_live.append(g)
        live[:] = still_live + [new]
        reducers[:] = [basis[g] for g in live]

    for b in inputs:
        insert(b, max(degree(b.lead.exponents), degree(b.trail.exponents)))
    while pairs:
        sug, _, i, j, _ = heapq.heappop(pairs)
        s = s_pair(basis[i], basis[j])
        if s is None:
            continue
        nf = reduce_binomial(s, reducers)
        if nf is None:
            continue
        if max(nf.lead.total_degree, nf.trail.total_degree) > degree_cap:
            raise DegreeCapExceeded(
                f"element of degree > {degree_cap} produced; raise the cap to continue"
            )
        insert(nf, max(sug, degree(nf.lead.exponents), degree(nf.trail.exponents)))

    return GroebnerBasis(universe, tuple(_interreduce(reducers)))


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
    return minimalize([e.lead for e in basis.elements], basis.universe)


def is_groebner_basis(basis: GroebnerBasis) -> bool:
    """Buchberger's criterion: every S-pair reduces to zero."""
    elems = basis.elements
    for j in range(len(elems)):
        for i in range(j):
            s = s_pair(elems[i], elems[j])
            if s is None:
                continue
            if reduce_binomial(s, elems) is not None:
                return False
    return True
