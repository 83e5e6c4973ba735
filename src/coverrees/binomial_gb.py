"""Buchberger engine for pure-difference binomials.

Everything here works on oriented pairs of monomials (lead minus trail,
coefficients fixed at +1/-1), which is closed under S-pairs and
reduction, so no field arithmetic ever happens.  Toric kernels of
monomial maps are computed by adjoining an elimination variable, running
Buchberger under the elimination order, and keeping the elimination-free
part; since the elimination order restricted to those monomials is the
``sharp`` order, the result is the reduced basis under ``sharp``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegreeCapExceeded
from .monomials import (
    ELIM_SHARP,
    SHARP,
    Monomial,
    MonomialIdeal,
    MonomialOrder,
    VariableUniverse,
    minimalize,
    variable,
)

__all__ = [
    "Binomial",
    "GroebnerBasis",
    "GBConfig",
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
    """lead - trail with lead strictly greater under the session order."""

    lead: Monomial
    trail: Monomial

    def __post_init__(self):
        if self.lead.universe != self.trail.universe:
            raise ValueError("binomial terms live in different universes")
        if self.lead == self.trail:
            raise ValueError("binomial would be zero")

    def __str__(self) -> str:
        return f"{self.lead} - {self.trail}"


def oriented_binomial(u: Monomial, v: Monomial, order: MonomialOrder) -> Binomial | None:
    """Orient u - v under the order; None means the difference is zero."""
    c = order.compare(u, v)
    if c == 0:
        return None
    return Binomial(u, v) if c > 0 else Binomial(v, u)


@dataclass(frozen=True)
class GBConfig:
    degree_cap: int = 40


@dataclass(frozen=True)
class GroebnerBasis:
    universe: VariableUniverse
    order: MonomialOrder
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


def reduce_binomial(
    b: Binomial, elements: Sequence[Binomial], order: MonomialOrder
) -> Binomial | None:
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
        if order.compare(p, q) < 0:
            p, q = q, p


def s_pair(f: Binomial, g: Binomial, order: MonomialOrder) -> Binomial | None:
    """The S-binomial of f and g; None when the terms already agree."""
    l = f.lead.lcm(g.lead)
    a = (l / f.lead) * f.trail
    b = (l / g.lead) * g.trail
    return oriented_binomial(a, b, order)


def _interreduce(elements: list[Binomial], order: MonomialOrder) -> list[Binomial]:
    ordered = sorted(elements, key=lambda e: (order.key(e.lead), order.key(e.trail)))
    kept: list[Binomial] = []
    for e in ordered:
        if not any(k.lead.divides(e.lead) for k in kept):
            kept.append(e)
    reduced = []
    for e in kept:
        trail = _normal_form_monomial(e.trail, kept)
        reduced.append(Binomial(e.lead, trail))
    reduced.sort(key=lambda e: order.key(e.lead))
    return reduced


def buchberger(
    gens: Iterable[Binomial], order: MonomialOrder, config: GBConfig | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal the generators span.

    Pair selection follows the normal strategy (smallest lcm under the
    order, ties by insertion index).  Pairs wait in a heap keyed once per
    pair, when the pair is formed: basis elements are only appended, so
    a pair's lcm never changes.  Pairs with coprime leads are skipped, and
    so is a pair (i, j) when some other lead divides its lcm and both
    (i, k) and (j, k) are already done (the chain criterion).  A degree
    cap aborts runaway computations with a diagnostic.
    """
    cfg = config or GBConfig()
    basis: list[Binomial] = []
    universe: VariableUniverse | None = None
    for b in gens:
        if universe is None:
            universe = b.lead.universe
        elif b.lead.universe != universe:
            raise ValueError("generators live in different universes")
        reoriented = oriented_binomial(b.lead, b.trail, order)
        if reoriented is not None and reoriented not in basis:
            basis.append(reoriented)
    if universe is None:
        raise ValueError("buchberger needs at least one generator to fix the universe")

    def pair_entry(i: int, j: int) -> tuple[tuple[int, ...], int, int]:
        return (order.key(basis[i].lead.lcm(basis[j].lead)), i, j)

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
        s = s_pair(f, g, order)
        if s is None:
            continue
        nf = reduce_binomial(s, basis, order)
        if nf is None:
            continue
        if max(nf.lead.total_degree, nf.trail.total_degree) > cfg.degree_cap:
            raise DegreeCapExceeded(
                f"element of degree > {cfg.degree_cap} produced; raise the cap to continue"
            )
        basis.append(nf)
        new = len(basis) - 1
        for k in range(new):
            heapq.heappush(pairs, pair_entry(k, new))

    reduced = _interreduce(basis, order)
    return GroebnerBasis(universe, order, tuple(reduced))


def toric_kernel(
    images: Sequence[Monomial], config: GBConfig | None = None
) -> GroebnerBasis:
    """Kernel of x_i -> x_i, y_j -> images[j] as a reduced basis under sharp.

    Every image must be a base-block monomial times the elimination
    variable to the first power (a monomial map into degree one of the
    auxiliary grading).  The graph ideal (y_j - image_j) is closed under
    the elimination order and the elimination-free part of its reduced
    basis is returned over the universe without the elimination variable.
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
        b = oriented_binomial(lifted, variable(full, f"y{j}"), ELIM_SHARP)
        gens.append(b)
    basis = buchberger(gens, ELIM_SHARP, config)
    target = full.drop_elim()
    kept = []
    for e in basis.elements:
        if e.lead.t_degree:
            continue
        if e.trail.t_degree:
            raise AssertionError("elimination-free lead with elimination in the trail")
        kept.append(Binomial(e.lead.restricted(target), e.trail.restricted(target)))
    kept.sort(key=lambda e: SHARP.key(e.lead))
    return GroebnerBasis(target, SHARP, tuple(kept))


def initial_ideal(basis: GroebnerBasis) -> MonomialIdeal:
    """The ideal of lead monomials of a Groebner basis."""
    return minimalize([e.lead for e in basis.elements], basis.universe)


def is_groebner_basis(basis: GroebnerBasis) -> bool:
    """Buchberger's criterion: every S-pair reduces to zero."""
    elems = basis.elements
    for j in range(len(elems)):
        for i in range(j):
            s = s_pair(elems[i], elems[j], basis.order)
            if s is None:
                continue
            if reduce_binomial(s, elems, basis.order) is not None:
                return False
    return True
