"""The coefficient-free Buchberger engine and toric kernels."""

import random

import pytest

import coverrees.binomial_gb as binomial_gb
from coverrees.monomials import _LeadIndex as LeadIndex
from coverrees.monomials import _Packing as Packing
from coverrees import (
    Binomial,
    DegreeCapExceeded,
    GroebnerBasis,
    VariableUniverse,
    buchberger,
    cover_ideal,
    oriented_binomial,
    parse_construction,
    parse_monomial,
    reduce_binomial,
    s_pair,
    standard_family,
    toric_kernel,
    variable,
)
from oracles import (
    divides_exponents,
    exponent_rules,
    groebner_criterion,
    monomial_product,
    reduces_to_zero,
)


def _mk(text, universe):
    return parse_monomial(text, universe)


def test_binomial_construction():
    u = VariableUniverse(("x1", "x2"), ("y1", "y2"))
    a = _mk("x1*y1", u)
    b = _mk("x2*y2", u)
    binom = Binomial(a, b)
    assert str(binom) == "x1*y1 - x2*y2"
    with pytest.raises(ValueError, match="zero"):
        Binomial(a, a)
    other = VariableUniverse(("x1",), ("y1",))
    with pytest.raises(ValueError, match="different universes"):
        Binomial(a, _mk("y1", other))


def test_binomial_value_semantics():
    # equal and hashed by the two terms, so buchberger's ``in`` dedupes inputs
    u = VariableUniverse(("x1", "x2"), ("y1", "y2"))
    a, b = _mk("x1*y1", u), _mk("x2*y2", u)
    binom = Binomial(a, b)
    same = Binomial(lead=_mk("x1*y1", u), trail=_mk("x2*y2", u))
    assert binom == same and hash(binom) == hash(same)
    assert len({binom, same}) == 1
    assert binom != Binomial(b, a) and binom != "x1*y1 - x2*y2"
    assert repr(binom) == "Binomial(x1*y1 - x2*y2)"
    assert len(buchberger([binom, same]).elements) == 1


def test_oriented_binomial():
    u = VariableUniverse(("x1", "x2"), ("y1", "y2"))
    small = _mk("x1*y2", u)
    big = _mk("x2*y1", u)
    assert oriented_binomial(small, big) == Binomial(big, small)
    assert oriented_binomial(big, small) == Binomial(big, small)
    assert oriented_binomial(big, big) is None


def test_reduce_binomial_to_zero():
    # both terms collapse onto the same normal form, so the binomial dies
    u = VariableUniverse(("x1", "x2", "x3"), ("y1", "y2"))
    rule = Binomial(_mk("x2*y1", u), _mk("x1*x3*y2", u))
    b = Binomial(_mk("x2^2*y1^2", u), _mk("x1^2*x3^2*y2^2", u))
    assert reduce_binomial(b, [rule]) is None


def test_reduce_binomial_keeps_orientation():
    u = VariableUniverse(("x1", "x2", "x3"), ("y1", "y2"))
    rule = Binomial(_mk("x2*y1", u), _mk("x1*x3*y2", u))
    b = Binomial(_mk("x2^2*y1", u), _mk("x1^2*x3^2*y2", u))
    got = reduce_binomial(b, [rule])
    # the rewritten lead drops below the old trail, so the result is swapped
    assert got == Binomial(_mk("x1^2*x3^2*y2", u), _mk("x1*x2*x3*y2", u))
    assert got.lead.exponents > got.trail.exponents

    untouched = Binomial(_mk("x3*y2", u), _mk("x1*y2", u))
    assert reduce_binomial(untouched, [rule]) == untouched


def test_s_pair_formula():
    u = VariableUniverse(("x1", "x2", "x3"))
    f = Binomial(_mk("x1*x2", u), _mk("x3^2", u))
    g = Binomial(_mk("x1*x3", u), _mk("x2^2", u))
    s = s_pair(f, g)
    assert s == Binomial(_mk("x2^3", u), _mk("x3^3", u))
    assert s_pair(f, f) is None


def test_buchberger_rejects_bad_generators():
    u = VariableUniverse(("x1", "x2"))
    v = VariableUniverse(("x1", "x2", "x3"))
    with pytest.raises(ValueError):
        buchberger([])
    f = Binomial(_mk("x1", u), _mk("x2", u))
    g = Binomial(_mk("x1", v), _mk("x3", v))
    with pytest.raises(ValueError):
        buchberger([f, g])


def test_buchberger_reorients_inputs():
    u = VariableUniverse(("x1", "x2"))
    backwards = Binomial(_mk("x2", u), _mk("x1", u))  # x1 > x2 under lex
    basis = buchberger([backwards])
    assert basis.elements == (Binomial(_mk("x1", u), _mk("x2", u)),)


def test_kernel_of_two_vertex_graph():
    basis = toric_kernel(cover_ideal(standard_family("path", 2)).gens)
    assert basis.dump() == "x2*y1 - x1*y2"
    assert basis.universe.y_vars == ("y1", "y2")


def test_kernel_of_three_path():
    basis = toric_kernel(cover_ideal(standard_family("path", 3)).gens)
    assert basis.dump() == "x2*y1 - x1*x3*y2"


def test_kernel_of_four_cycle():
    basis = toric_kernel(cover_ideal(standard_family("cycle", 4)).gens)
    assert basis.dump() == "x2*x4*y1 - x1*x3*y2"


def test_kernel_of_star():
    basis = toric_kernel(cover_ideal(standard_family("star", 3)).gens)
    assert basis.dump() == "x1*y1 - z1*z2*z3*y2"


def test_kernel_of_triangle():
    # covers of the triangle: x1*x2 > x1*x3 > x2*x3 in the priority order
    basis = toric_kernel(cover_ideal(standard_family("complete", 3)).gens)
    assert basis.dump() == "x2*y2 - x1*y3\nx3*y1 - x1*y3"
    assert groebner_criterion(exponent_rules(basis.elements))
    lead_strings = {str(g) for g in basis.initial_ideal.gens}
    assert lead_strings == {"x2*y2", "x3*y1"}
    assert basis.initial_ideal is basis.initial_ideal


def test_kernel_of_principal_ideal_is_empty():
    u = VariableUniverse(("x1", "x2"))
    basis = toric_kernel([_mk("x1*x2", u)])
    assert basis.elements == ()
    assert groebner_criterion(exponent_rules(basis.elements))


def test_kernel_of_distinct_variables_is_koszul():
    # base variables map to themselves, so the kernel holds the full set of
    # Koszul relations x_j*y_i - x_i*y_j, not just relations among the y's
    u = VariableUniverse(("x1", "x2", "x3"))
    gens = [_mk("x1", u), _mk("x2", u), _mk("x3", u)]
    basis = toric_kernel(gens)
    assert basis.dump() == "x3*y2 - x2*y3\nx3*y1 - x1*y3\nx2*y1 - x1*y2"
    assert groebner_criterion(exponent_rules(basis.elements))


def test_kernel_of_squared_variable_map():
    # generators x1^2, x1*x2, x2^2: two exchange relations plus the
    # classical quadric among the y's
    u = VariableUniverse(("x1", "x2"))
    gens = [_mk("x1^2", u), _mk("x1*x2", u), _mk("x2^2", u)]
    basis = toric_kernel(gens)
    assert basis.dump() == "x2*y2 - x1*y3\nx2*y1 - x1*y2\ny1*y3 - y2^2"
    assert groebner_criterion(exponent_rules(basis.elements))


def test_toric_kernel_validates_generators():
    with pytest.raises(ValueError, match="at least one generator"):
        toric_kernel([])
    for y_vars in [("y1",), ("t",), ("t", "y1")]:
        extended = VariableUniverse(("x1",), y_vars)
        with pytest.raises(ValueError, match="base-block-only"):
            toric_kernel([_mk("x1", extended)])
    base = VariableUniverse(("x1", "x2"))
    other = VariableUniverse(("x1", "x2", "x3"))
    with pytest.raises(ValueError, match="different universes"):
        toric_kernel([_mk("x1", base), _mk("x2", other)])


def _evaluate(m, gens):
    """Substitute y_j -> gens[j] and keep the base part; a direct check
    that kernel elements really are relations of the monomial map."""
    base = gens[0].universe
    factors = [u for u, e in zip(gens, m.exponents[m.universe.y_block]) for _ in range(e)]
    y_vars = set(m.universe.y_vars)
    factors.append(base.monomial({name: e for name, e in m.exps.items() if name not in y_vars}))
    return monomial_product(base, factors)


CORPUS = [
    standard_family("path", 2),
    standard_family("path", 3),
    standard_family("complete", 3),
    standard_family("cycle", 4),
    standard_family("star", 3),
    standard_family("friendship", 2),
]


def test_kernel_elements_are_relations():
    for g in CORPUS:
        gens = cover_ideal(g).gens
        basis = toric_kernel(gens)
        assert basis.universe.y_vars == tuple(f"y{j}" for j in range(1, len(gens) + 1))
        for e in basis.elements:
            assert e.lead.y_degree == e.trail.y_degree
            assert _evaluate(e.lead, gens) == _evaluate(e.trail, gens)


def test_kernel_is_groebner_and_reduced():
    for g in CORPUS:
        basis = toric_kernel(cover_ideal(g).gens)
        assert groebner_criterion(exponent_rules(basis.elements))
        # reduced: leads form an antichain and no lead divides any trail
        elems = basis.elements
        for e in elems:
            for f in elems:
                if e is not f:
                    assert not divides_exponents(f.lead.exps, e.lead.exps)
                assert not divides_exponents(f.lead.exps, e.trail.exps)


def test_buchberger_is_idempotent_on_reduced_bases():
    for g in CORPUS:
        basis = toric_kernel(cover_ideal(g).gens)
        if not basis.elements:
            continue
        again = buchberger(basis.elements)
        assert again.elements == basis.elements


def test_low_degree_relations_reduce_to_zero():
    # completeness at small degree: any colliding pair of y-words of degree
    # at most two is a relation, and must reduce to zero modulo the kernel
    from itertools import combinations_with_replacement

    for g in CORPUS:
        gens = cover_ideal(g).gens
        basis = toric_kernel(gens)
        rules = exponent_rules(basis.elements)
        universe = basis.universe
        words = [universe.one()]
        for d in (1, 2):
            for combo in combinations_with_replacement(universe.y_vars, d):
                exps = {}
                for v in combo:
                    exps[v] = exps.get(v, 0) + 1
                words.append(universe.monomial(exps))
        by_image = {}
        for w in words:
            # the image y^a -> u^a * t^|a|, with the power of t as y-degree
            key = (w.y_degree, _evaluate(w, gens))
            by_image.setdefault(key, []).append(w)
        for group in by_image.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    b = oriented_binomial(group[i], group[j])
                    assert b is not None
                    assert reduces_to_zero((b.lead.exponents, b.trail.exponents), rules)


def _rees_generators(gens):
    """The generators y_j - u_j*t over the universe with t heading the y-block."""
    base = gens[0].universe
    full = VariableUniverse(base.s_vars, ("t",) + tuple(f"y{j}" for j in range(1, len(gens) + 1)))
    return [
        oriented_binomial(full.monomial({**u.exps, "t": 1}), variable(full, f"y{j}"))
        for j, u in enumerate(gens, start=1)
    ]


def _rees_weights(gens):
    """The grading under which the Rees generators are homogeneous."""
    base = len(gens[0].universe.s_vars)
    return (1,) + tuple(u.total_degree + 1 for u in gens) + (1,) * base


def test_elimination_generators_reduce_to_zero():
    # soundness of the elimination stage: the defining generators y_j - u_j t
    # lie in the ideal spanned by the full elimination-order basis
    for g in CORPUS:
        gens = _rees_generators(cover_ideal(g).gens)
        rules = exponent_rules(buchberger(gens).elements)
        assert all(reduces_to_zero(b, rules) for b in exponent_rules(gens))


def test_reduced_basis_does_not_depend_on_the_grading():
    # the grading only orders the pairs; the reduced basis is unique
    for g in CORPUS:
        covers = cover_ideal(g).gens
        gens = _rees_generators(covers)
        weights = _rees_weights(covers)
        assert any(w > 1 for w in weights)
        toric = buchberger(gens, weights=weights)
        assert toric.elements == buchberger(gens).elements


def test_toric_criterion_keeps_the_basis():
    # the gcd criterion only skips work: the reduced basis is unique
    for g in CORPUS + [parse_construction("cycle:7"), parse_construction("friendship:3")]:
        covers = cover_ideal(g).gens
        gens = _rees_generators(covers)
        weights = _rees_weights(covers)
        toric = buchberger(gens, weights=weights, toric=True)
        assert toric.elements == buchberger(gens, weights=weights).elements


def test_toric_needs_homogeneous_generators():
    covers = cover_ideal(standard_family("path", 3)).gens
    gens = _rees_generators(covers)
    # y_j - u_j*t is not homogeneous in the standard grading
    with pytest.raises(ValueError, match="homogeneous"):
        buchberger(gens, toric=True)
    u = VariableUniverse(("x1", "x2"))
    with pytest.raises(ValueError, match="homogeneous"):
        buchberger([Binomial(_mk("x1", u), _mk("x2^2", u))], toric=True)
    with pytest.raises(ValueError, match="homogeneous"):
        buchberger([Binomial(_mk("x1^2", u), _mk("x2", u))], weights=(1, 3), toric=True)
    assert buchberger(gens, weights=_rees_weights(covers), toric=True).elements


def test_toric_criterion_drops_a_pair_when_formed():
    # for the edge, the pair (x2*t - y2, x2*y1 - x1*y2) has the S-binomial
    # x1*y2*t - y1*y2, whose terms share y2: the plain run pops it and
    # reduces it to zero, the toric run drops it when it is formed
    covers = cover_ideal(standard_family("path", 2)).gens
    gens = _rees_generators(covers)
    weights = _rees_weights(covers)
    plain = buchberger(gens, weights=weights)
    u = plain.universe
    first = s_pair(*gens)
    assert first == Binomial(_mk("x2*y1", u), _mk("x1*y2", u))
    dropped = s_pair(Binomial(_mk("x2*t", u), _mk("y2", u)), first)
    assert dropped == Binomial(_mk("x1*y2*t", u), _mk("y1*y2", u))
    assert reduce_binomial(dropped, plain.elements) is None
    counted = ("pairs_popped", "pairs_dropped_toric", "reductions", "zero_reductions")
    assert [plain.counts[c] for c in counted] == [2, 0, 2, 1]
    toric = buchberger(gens, weights=weights, toric=True)
    assert [toric.counts[c] for c in counted] == [1, 1, 1, 0]
    assert toric.elements == plain.elements
    assert first in toric.elements


def test_toric_reduction_stops_on_a_shared_variable():
    u = VariableUniverse(("x1", "x2", "x3"), ("y1", "y2"))
    rule = Binomial(_mk("x2*y1", u), _mk("x1*x3*y2", u))
    # the terms share x2 before any rewrite
    shared = Binomial(_mk("x2^2*y1", u), _mk("x2*x3*y2", u))
    assert reduce_binomial(shared, [rule]) == Binomial(
        _mk("x1*x2*x3*y2", u), _mk("x2*x3*y2", u)
    )
    assert reduce_binomial(shared, [rule], toric=True) is None
    # coprime terms, until the rewrite of the lead brings in x3 and y2
    late = Binomial(_mk("x2^2*y1", u), _mk("x3^2*y2", u))
    assert reduce_binomial(late, [rule]) == Binomial(_mk("x1*x2*x3*y2", u), _mk("x3^2*y2", u))
    assert reduce_binomial(late, [rule], toric=True) is None


def test_buchberger_rejects_bad_weights():
    u = VariableUniverse(("x1", "x2"))
    f = Binomial(_mk("x1", u), _mk("x2", u))
    for weights in [(1,), (1, 1, 1), (1, 0)]:
        with pytest.raises(ValueError):
            buchberger([f], weights=weights)


def test_degree_cap_aborts():
    u = VariableUniverse(("x1", "x2"))
    gens = [_mk("x1", u), _mk("x2", u)]
    with pytest.raises(DegreeCapExceeded):
        toric_kernel(gens, degree_cap=1)
    ok = toric_kernel(gens, degree_cap=2)
    assert ok.dump() == "x2*y1 - x1*y2"


def test_groebner_criterion_detects_gaps():
    # two elements without the third of their completion fail the criterion
    u = VariableUniverse(("x1", "x2", "x3"), ("y1", "y2", "y3"))
    incomplete = GroebnerBasis(
        u,
        (
            Binomial(_mk("x1*y1", u), _mk("x2*y2", u)),
            Binomial(_mk("x1*y2", u), _mk("x3*y3", u)),
        ),
    )
    assert not groebner_criterion(exponent_rules(incomplete.elements))
    # so does a reduced basis with one trail corrupted: y1*y3 - y2^2 becomes
    # y1*y3 - y2*y3, still oriented
    v = VariableUniverse(("x1", "x2"))
    basis = toric_kernel([_mk(t, v) for t in ("x1^2", "x1*x2", "x2^2")])
    rules = exponent_rules(basis.elements)
    assert groebner_criterion(rules)
    assert str(basis.elements[-1]) == "y1*y3 - y2^2"
    corrupted = rules[:-1] + [(rules[-1][0], _mk("y2*y3", basis.universe).exponents)]
    assert not groebner_criterion(corrupted)
    # an element led by its smaller term is rejected even alone
    assert groebner_criterion(rules[-1:]) and not groebner_criterion([rules[-1][::-1]])


def test_buchberger_closes_simple_gap():
    # the same two elements, completed, satisfy the criterion
    u = VariableUniverse(("x1", "x2", "x3"), ("y1", "y2", "y3"))
    f = Binomial(_mk("x1*y1", u), _mk("x2*y2", u))
    g = Binomial(_mk("x1*y2", u), _mk("x3*y3", u))
    basis = buchberger([f, g])
    assert groebner_criterion(exponent_rules(basis.elements))
    assert len(basis.elements) >= 3


def test_random_binomial_systems_satisfy_criterion():
    rng = random.Random(2024)
    names = ("x1", "x2", "x3")
    u = VariableUniverse(names)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            a = u.monomial({rng.choice(names): rng.randint(1, 2), rng.choice(names): 1})
            b = u.monomial({rng.choice(names): rng.randint(1, 2)})
            ob = oriented_binomial(a, b)
            if ob is not None:
                gens.append(ob)
        if not gens:
            continue
        basis = buchberger(gens, degree_cap=30)
        rules = exponent_rules(basis.elements)
        assert groebner_criterion(rules)
        assert all(reduces_to_zero(b, rules) for b in exponent_rules(gens))


def test_field_width_does_not_change_the_basis():
    # the pair update packs each lead into fields sized by the degree cap
    # and the inputs; the tightest cap that fits the inputs makes the
    # fields as narrow as they can be, and must give the basis wide ones give
    rng = random.Random(505)
    ran = 0
    for _ in range(150):
        names = tuple(f"x{v}" for v in range(1, rng.randint(65, 100) + 1))
        u = VariableUniverse(names)
        pool = rng.sample(names, 5)

        def term():
            return u.monomial({v: rng.randint(1, 4) for v in rng.sample(pool, rng.randint(1, 2))})

        pairs = [oriented_binomial(term(), term()) for _ in range(rng.randint(2, 4))]
        gens = [b for b in pairs if b is not None]
        tight = max(m.total_degree for b in gens for m in (b.lead, b.trail))
        try:
            basis = buchberger(gens, degree_cap=tight)
        except DegreeCapExceeded:
            continue
        ran += 1
        assert basis.elements == buchberger(gens, degree_cap=200).elements
    assert ran >= 20


def test_input_terms_above_the_degree_cap():
    # the fields are sized for the largest input term, not only for the cap:
    # x3^300 is coprime to every other lead, so it forms no S-pair whatever
    # the cap, and the pair sequence is the one a wide field gives
    u = VariableUniverse(tuple(f"x{v}" for v in range(1, 7)))
    gens = [
        Binomial(_mk("x3^300", u), _mk("x5*x6", u)),
        Binomial(_mk("x1*x4", u), _mk("x2*x5", u)),
        Binomial(_mk("x2*x4", u), _mk("x5^2", u)),
        Binomial(_mk("x1*x2", u), _mk("x4*x6", u)),
    ]
    basis = buchberger(gens, degree_cap=40)
    wide = buchberger(gens, degree_cap=400)
    assert basis.elements == wide.elements
    assert basis.counts == wide.counts
    assert basis.counts["pairs_popped"] > 0
    assert basis.counts["max_degree"] == 300
    # the same pairs, and no more, are popped without x3^300
    without = buchberger(gens[1:], degree_cap=40)
    counted = ("pairs_popped", "reductions", "zero_reductions")
    assert [basis.counts[c] for c in counted] == [without.counts[c] for c in counted]
    assert basis.counts["peak_live"] == without.counts["peak_live"] + 1
    assert gens[0] in basis.elements
    rules = exponent_rules(basis.elements)
    assert groebner_criterion(rules)
    assert all(reduces_to_zero(b, rules) for b in exponent_rules(gens))


def test_terms_that_outgrow_the_fields_widen_them(monkeypatch):
    # fields sized by the cap 3 hold exponents up to 3, but the trail x2^3
    # is rewritten through x2*x3^6 to x3^9: the run must start again on
    # wider fields, and the basis is the one unbounded exponents give
    u = VariableUniverse(("x1", "x2", "x3"))
    gens = [Binomial(_mk("x1", u), _mk("x2^3", u)), Binomial(_mk("x2", u), _mk("x3^3", u))]
    tops = []

    class Recording(Packing):
        def __init__(self, n, top):
            tops.append(top)
            super().__init__(n, top)

    monkeypatch.setattr(binomial_gb, "_Packing", Recording)
    basis = buchberger(gens, degree_cap=3)
    assert basis.dump() == "x2 - x3^3\nx1 - x3^9"
    assert tops[0] == 3 and len(tops) > 1
    assert Packing(3, 3).modulus >> 1 < 9 <= Packing(3, tops[-1]).modulus >> 1
    tops.clear()
    assert reduce_binomial(gens[0], gens[1:]) == Binomial(_mk("x1", u), _mk("x3^9", u))
    assert tops[0] == 3 and len(tops) > 1
    assert groebner_criterion(exponent_rules(basis.elements))


def test_lead_index_finds_the_first_live_divisor():
    # the bitset lookup must pick exactly the lead a scan over the live
    # leads in insertion order picks first, past 64 variables too
    from operator import le

    rng = random.Random(909)

    def sparse(width, support, top):
        e = [0] * width
        for v in rng.sample(range(width), support):
            e[v] = rng.randint(1, top)
        return tuple(e)

    found = missed = 0
    for _ in range(40):
        width = rng.randint(65, 130)
        # no packed monomial below has degree above 18
        packing = Packing(width, 18)
        leads = [sparse(width, rng.randint(1, 4), 2) for _ in range(rng.randint(1, 60))]
        index = LeadIndex(packing, map(packing.pack, leads))
        assert index.leads == [packing.pack(lead) for lead in leads]
        alive = set(range(len(leads)))
        for g in rng.sample(range(len(leads)), rng.randint(0, len(leads) // 2)):
            index.alive &= ~(1 << g)
            alive.discard(g)
        if rng.random() < 0.5:
            m = leads[rng.randrange(len(leads))]
            index.retire(packing.pack(m))
            alive -= {g for g in alive if all(map(le, m, leads[g]))}
        assert index.alive == sum(1 << g for g in alive)
        for _ in range(30):
            if rng.random() < 0.5:
                base = leads[rng.randrange(len(leads))]
                m = tuple(a + b for a, b in zip(base, sparse(width, 3, 2)))
            else:
                m = sparse(width, rng.randint(0, 6), 3)
            want = next((g for g in sorted(alive) if all(map(le, leads[g], m))), None)
            assert index.first_divisor(packing.pack(m)) == want
            if want is None:
                missed += 1
            else:
                found += 1
    assert found > 100 and missed > 100


# (pairs popped, reductions, zero reductions) of toric_kernel on cover ideals;
# any drift in the pair selection order or the criteria moves them.
PAIR_SEQUENCE_COUNTS = {
    "path:7": (37, 37, 22),
    "attach(edge;edge,edge)": (105, 105, 74),
    "cone(cycle:5)": (64, 64, 36),
    "attach(path:3;edge,edge,edge)": (4031, 4031, 3681),
    "cycle:7": (94, 94, 55),
}


def test_pair_sequence_is_pinned():
    counted = ("pairs_popped", "reductions", "zero_reductions")
    for text, want in PAIR_SEQUENCE_COUNTS.items():
        counts = toric_kernel(cover_ideal(parse_construction(text)).gens).counts
        assert tuple(counts[c] for c in counted) == want, text
