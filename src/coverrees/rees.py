"""Rees presentations of monomial ideals and the x-condition.

The Rees algebra of an ideal generated by monomials u_1, ..., u_q is
presented by adjoining y_1, ..., y_q with y_j mapping onto u_j times the
auxiliary variable; the defining ideal is the toric kernel of that map.
Generators are sorted so y_1 carries the lex-largest monomial.  The
kernel's basis is reduced under the package's one order, lex with the
y-block above the base variables.  The x-condition asks every minimal
generator of the initial ideal to carry base degree at most one; when
the initial ideal is generated in total degree two, powers of the ideal
are minimally generated by the images of the standard monomials in the
y-block.
"""

from __future__ import annotations

from .binomial_gb import DEGREE_CAP, toric_kernel
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableUniverse,
    _Record,
    _Value,
    _divisors,
    _monomial,
    _thresholds,
    canonical_key,
)

__all__ = [
    "ReesPresentation",
    "XConditionReport",
    "StandardMonomialSet",
    "rees_presentation",
    "x_condition",
    "standard_monomials",
    "minimal_generation_check",
    "pi_image",
]


class ReesPresentation(_Record):
    """A monomial ideal together with the reduced basis of its Rees kernel,
    fields ``(ideal, generators, universe, basis, degenerate)``.

    ``generators[j-1]`` is the image monomial of ``y<j>``; ``universe`` is
    the presentation ring (base block plus y-block); ``degenerate`` flags
    the unit ideal, whose kernel is zero.  A plain record compared by
    identity, with no guard against assignment.
    """

    __slots__ = ("ideal", "generators", "universe", "basis", "degenerate")

    @property
    def y_count(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return f"ReesPresentation({self.y_count} generators, {self.basis!r})"


def rees_presentation(
    ideal: MonomialIdeal, *, degree_cap: int = DEGREE_CAP
) -> ReesPresentation:
    """Present the Rees algebra of a nonzero monomial ideal.

    ``MonomialIdeal`` holds its generators descending under lex on the
    base block, so the first adjoined variable maps to the lex-largest
    generator.  The unit ideal is allowed and flagged degenerate (single
    generator 1, empty kernel).
    """
    if ideal.is_zero:
        raise ValueError("the zero ideal has no Rees presentation")
    basis = toric_kernel(ideal.gens, degree_cap=degree_cap)
    return ReesPresentation(
        ideal=ideal,
        generators=ideal.gens,
        universe=basis.universe,
        basis=basis,
        degenerate=ideal.is_unit,
    )


class XConditionReport(_Value):
    """Verdicts about the minimal generators of the initial ideal, fields
    ``(holds, offending_generators, quadratic, quadratic_offenders,
    initial_generators)``; equal when every field is, unhashable, with no
    guard against assignment."""

    __slots__ = (
        "holds",
        "offending_generators",
        "quadratic",
        "quadratic_offenders",
        "initial_generators",
    )

    def __repr__(self) -> str:
        return f"XConditionReport(holds={self.holds}, quadratic={self.quadratic})"


def x_condition(p: ReesPresentation) -> XConditionReport:
    """Check base degree <= 1 and total degree = 2 on the initial ideal."""
    in_gens = p.basis.initial_ideal.gens
    offenders = tuple(m for m in in_gens if m.s_degree > 1)
    quad_offenders = tuple(m for m in in_gens if m.total_degree != 2)
    return XConditionReport(
        holds=not offenders,
        offending_generators=offenders,
        quadratic=not quad_offenders,
        quadratic_offenders=quad_offenders,
        initial_generators=in_gens,
    )


class StandardMonomialSet(_Record):
    """Degree-k monomials in the y-block outside the initial ideal, fields
    ``(k, members, mapped_generators)``.

    ``members`` are sorted ascending (lex on the y-block) and
    ``mapped_generators[i]`` is the image of ``members[i]`` in the base
    ring.  A plain record compared by identity, with no guard against
    assignment.
    """

    __slots__ = ("k", "members", "mapped_generators")

    def __repr__(self) -> str:
        return f"StandardMonomialSet(k={self.k}, {len(self.members)} members)"


def standard_monomials(p: ReesPresentation, k: int) -> StandardMonomialSet:
    """Standard monomials of degree k in the y-block.

    A y-monomial is standard when no minimal generator of the initial
    ideal divides it; only those free of base variables can, and the
    threshold bitsets (``monomials._thresholds``) hold their y-parts.
    Standard words form an order ideal, so those of degree d + 1 are the
    standard ones among the words of degree d times a y_j at or after
    their last y, tested against the generators that y_j divides.  For
    the unit ideal the kernel is zero and y1^k, mapped to 1, is the one.
    """
    if k < 1:
        raise ValueError("standard_monomials expects k >= 1")
    q, block = p.y_count, p.universe.y_block
    y_gens = [m.exponents[block] for m in p.basis.initial_ideal.gens if not m.s_degree]
    table, every = _thresholds(y_gens, k), (1 << len(y_gens)) - 1
    uses = [every & ~row[0] for row in table] or [0] * q  # no rows without y_gens
    words = [(p.universe.one().exponents, 0)]  # standard words of degree d, each with its last y
    for _ in range(k):
        words = [
            (w, j)
            for v, last in words
            for j in range(last, q)
            if not _divisors(table, (w := v[:j] + (v[j] + 1,) + v[j + 1 :]), uses[j])
        ]
    members = [_monomial(p.universe, w, k) for w, _ in words]
    members.sort(key=canonical_key)
    images = [_image(p, m.exponents) for m in members]
    mapped = [_monomial(p.ideal.universe, e, sum(e)) for e in images]
    if len(set(mapped)) != len(mapped):
        raise AssertionError("distinct standard monomials mapped to equal generators")
    return StandardMonomialSet(k=k, members=tuple(members), mapped_generators=tuple(mapped))


def minimal_generation_check(standard: StandardMonomialSet, power: MonomialIdeal) -> bool:
    """Mapped standard monomials == minimal generators of the k-th power.

    Guaranteed to hold when the initial ideal is quadratic; callable (and
    recorded, not assumed) in every other case.
    """
    return set(standard.mapped_generators) == set(power.gens)


def pi_image(p: ReesPresentation, m: Monomial) -> Monomial:
    """Image of a presentation-ring monomial in the base ring with the
    auxiliary variable: x_i -> x_i, y_j -> generator_j * t.  t is the one
    adjoined variable, so the exponents are laid out (t, x_1, ..., x_n)."""
    if m.universe != p.universe:
        raise ValueError("monomial outside the presentation ring")
    image_ring = VariableUniverse(p.ideal.universe.s_vars, ("t",))
    image = (m.y_degree,) + _image(p, m.exponents)
    return _monomial(image_ring, image, sum(image))


def _image(p: ReesPresentation, exponents: tuple[int, ...]) -> tuple[int, ...]:
    """The base exponents of y^e * x^a's image: a + sum of e_j * u_j."""
    image = exponents[p.universe.s_block]
    for e, g in zip(exponents[p.universe.y_block], p.generators):
        if e:
            image = tuple([a + e * b for a, b in zip(image, g.exponents)])
    return image
