"""Buchberger engine for pure-difference binomials.

Everything here works on oriented pairs of monomials (lead minus trail,
coefficients fixed at +1/-1), which is closed under S-pairs and
reduction, so no field arithmetic ever happens.  The order is the one
of ``monomials``, lex on the exponent tuple, so comparing two terms
compares their ``exponents``.  Toric kernels of monomial maps are
computed by adjoining an elimination variable, which that order puts
above every other variable, and keeping the elimination-free part of the
reduced basis: the reduced basis of the kernel under the same order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegreeCapExceeded
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableUniverse,
    minimalize,
    variable,
)

__all__ = [
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


def _rewrite_once(m: Monomial, elements: Sequence[Binomial]) -> Monomial | None:
    for g in elements:
        if g.lead.divides(m):
            return (m / g.lead) * g.trail
    return None


def _normal_form_monomial(m: Monomial, elements: Sequence[Binomial]) -> Monomial:
    while True:
        r = _rewrite_once(m, elements)
        if r is None:
            return m
        m = r


def reduce_binomial(b: Binomial, elements: Sequence[Binomial]) -> Binomial | None:
    """Full normal form of a binomial; None when it reduces to zero.

    Both terms are rewritten until neither is divisible by any lead.
    Each rewrite strictly decreases the rewritten term, so the loop
    terminates; when the terms collide the binomial cancels.
    """
    p, q = b.lead, b.trail
    while True:
        r = _rewrite_once(p, elements)
        if r is None:
            r = _rewrite_once(q, elements)
            if r is None:
                return Binomial(p, q)
            q = r
        else:
            p = r
        if p == q:
            return None
        if p.exponents < q.exponents:
            p, q = q, p


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
    return [Binomial(e.lead, _normal_form_monomial(e.trail, kept)) for e in kept]


def buchberger(gens: Iterable[Binomial], *, degree_cap: int = 40) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal the generators span.

    Pair selection follows the normal strategy (smallest lcm, ties by
    insertion index).  Pairs wait in a heap keyed once per pair, when the
    pair is formed: basis elements are only appended, so a pair's lcm
    never changes.  Pairs with coprime leads are skipped, and so is a pair
    (i, j) when some other lead divides its lcm and both (i, k) and (j, k)
    are already done (the chain criterion).  An element of total degree
    above ``degree_cap`` aborts the run with ``DegreeCapExceeded``.
    """
    basis: list[Binomial] = []
    universe: VariableUniverse | None = None
    for b in gens:
        if universe is None:
            universe = b.lead.universe
        elif b.lead.universe != universe:
            raise ValueError("generators live in different universes")
        reoriented = oriented_binomial(b.lead, b.trail)
        if reoriented is not None and reoriented not in basis:
            basis.append(reoriented)
    if universe is None:
        raise ValueError("buchberger needs at least one generator to fix the universe")

    def pair_entry(i: int, j: int) -> tuple[tuple[int, ...], int, int]:
        return (basis[i].lead.lcm(basis[j].lead).exponents, i, j)

    pairs = [pair_entry(i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    done: set[tuple[int, int]] = set()

    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        f, g = basis[i], basis[j]
        if f.lead.gcd(g.lead).is_one:
            continue
        l = f.lead.lcm(g.lead)
        if any(
            (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k, h in enumerate(basis)
            if k != i and k != j and h.lead.divides(l)
        ):
            continue
        s = s_pair(f, g)
        if s is None:
            continue
        nf = reduce_binomial(s, basis)
        if nf is None:
            continue
        if max(nf.lead.total_degree, nf.trail.total_degree) > degree_cap:
            raise DegreeCapExceeded(
                f"element of degree > {degree_cap} produced; raise the cap to continue"
            )
        basis.append(nf)
        new = len(basis) - 1
        for k in range(new):
            heapq.heappush(pairs, pair_entry(k, new))

    return GroebnerBasis(universe, tuple(_interreduce(basis)))


def toric_kernel(images: Sequence[Monomial], *, degree_cap: int = 40) -> GroebnerBasis:
    """Kernel of x_i -> x_i, y_j -> images[j] as a reduced basis.

    Every image must be a base-block monomial times the elimination
    variable to the first power (a monomial map into degree one of the
    auxiliary grading).  The reduced basis of the graph ideal
    (y_j - image_j) is computed with the elimination variable above
    everything, and its elimination-free part is returned over the
    universe without that variable.
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
    basis = buchberger(gens, degree_cap=degree_cap)
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
