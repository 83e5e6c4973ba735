"""Rees presentations, the x-condition, and standard-monomial generation."""

import random
import time
from functools import partial
from itertools import combinations_with_replacement

import pytest

from coverrees import (
    DegreeCapExceeded,
    Graph,
    MonomialIdeal,
    Poset,
    VariableUniverse,
    attach,
    cameron_walker,
    canonical_key,
    cm_bipartite_from_poset,
    cover_ideal,
    minimal_generation_check,
    parse_monomial,
    power,
    rees_presentation,
    standard_family,
    standard_monomials,
    variable,
    parse_construction,
    x_condition,
)
from coverrees.rees import ReesPresentation, StandardMonomialSet, XConditionReport, pi_image
from oracles import (
    contains,
    divides_exponents,
    exponent_rules,
    groebner_criterion,
    hibi_generator_count,
    monomial_product,
    random_graph,
    split_fibers,
)


def _present(graph, **kwargs):
    return rees_presentation(cover_ideal(graph), **kwargs)


def test_presentation_sorts_generators_descending():
    p = _present(standard_family("path", 3))
    assert [str(g) for g in p.generators] == ["x1*x3", "x2"]
    assert p.universe.s_vars == ("x1", "x2", "x3")
    assert p.universe.y_vars == ("y1", "y2")
    assert not p.degenerate
    assert p.y_count == 2

    keys = [canonical_key(g) for g in p.generators]
    assert keys == sorted(keys, reverse=True)


def test_presentation_rejects_bad_ideals():
    u = VariableUniverse(("x1",))
    with pytest.raises(ValueError):
        rees_presentation(MonomialIdeal(u, []))
    extended = VariableUniverse(("x1",), ("y1",))
    with pytest.raises(ValueError):
        rees_presentation(MonomialIdeal(extended, [variable(extended, "x1")]))


def test_presentation_rejects_label_collisions():
    g = Graph(["y1", "x2"], [("y1", "x2")])
    with pytest.raises(ValueError):
        rees_presentation(cover_ideal(g))
    h = Graph(["t", "x2"], [("t", "x2")])
    with pytest.raises(ValueError):
        rees_presentation(cover_ideal(h))


def test_presentation_respects_config():
    with pytest.raises(DegreeCapExceeded):
        _present(standard_family("path", 2), degree_cap=1)


def test_degenerate_unit_ideal():
    g = Graph(["x1", "x2"], [])
    p = rees_presentation(cover_ideal(g))
    assert p.degenerate
    assert [str(m) for m in p.generators] == ["1"]
    assert p.basis.elements == ()
    # the kernel is zero, so y1^k is standard and maps to 1, the generator
    # of (1)^k
    sm = standard_monomials(p, 2)
    assert [str(m) for m in sm.members] == ["y1^2"]
    assert [str(m) for m in sm.mapped_generators] == ["1"]
    assert minimal_generation_check(standard_monomials(p, 1), power(p.ideal, 1)) is True
    assert minimal_generation_check(standard_monomials(p, 2), power(p.ideal, 2)) is True


def test_x_condition_on_two_vertex_graph():
    p = _present(standard_family("path", 2))
    rep = x_condition(p)
    assert rep.holds and rep.quadratic
    assert rep.offending_generators == ()
    assert [str(m) for m in rep.initial_generators] == ["x2*y1"]


def test_x_condition_on_three_path():
    p = _present(standard_family("path", 3))
    assert p.basis.dump() == "x2*y1 - x1*x3*y2"
    rep = x_condition(p)
    assert rep.holds and rep.quadratic
    assert [str(m) for m in rep.initial_generators] == ["x2*y1"]


def test_x_condition_fails_on_four_cycle():
    p = _present(standard_family("cycle", 4))
    assert p.basis.dump() == "x2*x4*y1 - x1*x3*y2"
    rep = x_condition(p)
    assert not rep.holds
    assert [str(m) for m in rep.offending_generators] == ["x2*x4*y1"]
    assert not rep.quadratic
    assert [str(m) for m in rep.quadratic_offenders] == ["x2*x4*y1"]


def test_x_condition_on_triangle():
    p = _present(standard_family("complete", 3))
    rep = x_condition(p)
    assert rep.holds and rep.quadratic
    assert {str(m) for m in rep.initial_generators} == {"x2*y2", "x3*y1"}


def test_x_condition_is_order_sensitive_for_star():
    # leaves first (the standard priority) satisfies the condition
    star = standard_family("star", 3)
    p = _present(star)
    assert p.basis.dump() == "x1*y1 - z1*z2*z3*y2"
    assert x_condition(p).holds

    # the same graph with the center first does not
    center_first = Graph(
        ["x1", "z1", "z2", "z3"], [("x1", "z1"), ("x1", "z2"), ("x1", "z3")]
    )
    q = _present(center_first)
    rep = x_condition(q)
    assert not rep.holds
    assert [str(m) for m in rep.offending_generators] == ["z1*z2*z3*y1"]


def test_x_condition_on_friendship_graph():
    p = _present(standard_family("friendship", 2))
    rep = x_condition(p)
    assert rep.holds and rep.quadratic
    assert len(p.basis.elements) == 6
    assert [str(m) for m in rep.initial_generators] == [
        "x1*y1",
        "y2*y5",
        "z2*y2",
        "z4*y2",
        "z2*y3",
        "z4*y4",
    ]


def test_x_condition_on_three_triangle_friendship_graph():
    p = _present(standard_family("friendship", 3))
    assert p.y_count == 9
    assert len(p.basis.elements) == 22
    assert groebner_criterion(exponent_rules(p.basis.elements))
    rep = x_condition(p)
    assert rep.holds and rep.quadratic
    assert len(rep.initial_generators) == 22
    assert all(m.total_degree == 2 for m in rep.initial_generators)


def test_x_condition_on_attached_doubled_edge():
    edge = standard_family("path", 2)
    p = _present(attach(edge, [edge, edge]))
    rep = x_condition(p)
    assert rep.holds and rep.quadratic
    assert p.y_count == 8
    assert len(p.basis.elements) == 15


def test_standard_monomials_of_three_path():
    p = _present(standard_family("path", 3))
    sm = standard_monomials(p, 2)
    assert [str(m) for m in sm.members] == ["y2^2", "y1*y2", "y1^2"]
    assert [str(m) for m in sm.mapped_generators] == [
        "x2^2",
        "x1*x2*x3",
        "x1^2*x3^2",
    ]
    keys = [canonical_key(m) for m in sm.members]
    assert keys == sorted(keys)

    first = standard_monomials(p, 1)
    assert [str(m) for m in first.members] == ["y2", "y1"]
    assert [str(m) for m in first.mapped_generators] == ["x2", "x1*x3"]

    with pytest.raises(ValueError):
        standard_monomials(p, 0)


def test_standard_monomials_exclude_initial_y_words():
    # friendship:2 has the pure-y initial generator y2*y5, so exactly that
    # word is missing in degree two
    p = _present(standard_family("friendship", 2))
    sm = standard_monomials(p, 2)
    q = p.y_count
    assert q == 5
    assert len(sm.members) == 14  # C(6, 2) minus the one excluded word
    banned = parse_monomial("y2*y5", p.universe)
    assert banned not in sm.members
    assert all(m.y_degree == 2 and m.s_degree == 0 for m in sm.members)


def test_minimal_generation_small_graphs():
    for name, params, ks in [
        ("path", (2,), (1, 2, 3, 4)),
        ("path", (3,), (1, 2, 3)),
        ("complete", (3,), (1, 2, 3)),
        ("star", (3,), (1, 2, 3)),
    ]:
        p = _present(standard_family(name, *params))
        assert x_condition(p).quadratic
        for k in ks:
            sm = standard_monomials(p, k)
            pk = power(p.ideal, k)
            assert minimal_generation_check(sm, pk), (name, params, k)
            assert len(sm.members) == len(pk.gens)


def test_two_vertex_standard_count_grows_linearly():
    p = _present(standard_family("path", 2))
    for k in range(1, 5):
        sm = standard_monomials(p, k)
        assert len(sm.members) == k + 1
        assert len(set(sm.mapped_generators)) == k + 1


def test_generation_can_hold_without_the_x_condition():
    # the four-cycle fails the x-condition, yet its small powers happen to
    # be generated by the standard images anyway; recorded as a fact
    p = _present(standard_family("cycle", 4))
    assert not x_condition(p).holds
    assert minimal_generation_check(standard_monomials(p, 1), power(p.ideal, 1))
    assert minimal_generation_check(standard_monomials(p, 2), power(p.ideal, 2))


def test_standard_monomials_on_cameron_walker_graph():
    core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
    p = _present(cameron_walker(core, 1, 1))
    rep = x_condition(p)
    assert rep.holds and rep.quadratic
    assert p.y_count == 5
    assert len(p.basis.elements) == 6
    assert [str(m) for m in rep.initial_generators] == [
        "y1*y5",
        "z2_2*y1",
        "x1*y1",
        "x1*y2",
        "x2*y3",
        "z2_2*y4",
    ]
    assert minimal_generation_check(standard_monomials(p, 1), power(p.ideal, 1))
    assert minimal_generation_check(standard_monomials(p, 2), power(p.ideal, 2))
    assert len(standard_monomials(p, 2).members) == 14


def test_pi_image():
    p = _present(standard_family("path", 3))
    y1 = variable(p.universe, "y1")
    img = pi_image(p, y1)
    assert str(img) == "x1*x3*t"
    assert img.exponents == (1, 1, 0, 1)  # t in slot 0, then x1*x3
    mixed = p.universe.monomial({"x2": 1, "y1": 2})
    assert str(pi_image(p, mixed)) == "x1^2*x2*x3^2*t^2"
    assert pi_image(p, p.universe.one()).is_one


def test_kernel_elements_have_equal_images():
    for g in [
        standard_family("path", 3),
        standard_family("complete", 3),
        standard_family("cycle", 4),
        standard_family("friendship", 2),
        standard_family("star", 4),
    ]:
        p = _present(g)
        for e in p.basis.elements:
            assert pi_image(p, e.lead) == pi_image(p, e.trail)


def test_standard_images_lie_in_the_power():
    for g in [standard_family("path", 3), standard_family("complete", 3)]:
        p = _present(g)
        for k in (1, 2, 3):
            sm = standard_monomials(p, k)
            kth = power(p.ideal, k)
            for m in sm.mapped_generators:
                assert contains(kth, m)


def test_standard_monomials_match_oracle_on_random_graphs():
    # members are exactly the degree-k y-words outside the initial ideal,
    # ascending
    rng = random.Random(5023)
    excluded = 0
    for _ in range(100):
        p = _present(random_graph(rng))
        u, initial = p.universe, p.basis.initial_ideal
        for k in (1, 2, 3):
            combos = combinations_with_replacement(u.y_vars, k)
            words = [monomial_product(u, map(partial(variable, u), c)) for c in combos]
            outside = sorted((m for m in words if not contains(initial, m)), key=canonical_key)
            assert list(standard_monomials(p, k).members) == outside, (p.generators, k)
            excluded += len(words) - len(outside)
    assert excluded > 0


def test_hibi_ideal_powers_match_multichain_counts():
    # the cover ideal J of cm_bipartite_from_poset(P) is the Hibi ideal of P,
    # so |G(J^k)| counts the multichains of k order ideals of P, which the
    # oracle finds from the relation list alone; the priority is shuffled
    rng = random.Random(5)
    for _ in range(40):
        elements = [str(i) for i in range(1, rng.randint(1, 6) + 1)]
        pairs = [(a, b) for i, a in enumerate(elements) for b in elements[i + 1 :]]
        relations = [pair for pair in pairs if rng.random() < 0.4]
        priority = rng.sample(elements, len(elements))
        ideal = cover_ideal(cm_bipartite_from_poset(Poset(priority, relations)))
        p = rees_presentation(ideal)
        for k in (1, 2, 3):
            count = hibi_generator_count(elements, relations, k)
            assert len(power(ideal, k).gens) == count, (priority, relations, k)
            assert len(standard_monomials(p, k).members) == count, (priority, relations, k)


def test_random_kernel_bases_verify():
    # the pair update only skips pairs; whatever it skips, each basis must
    # still be a reduced Groebner basis of relations
    rng = random.Random(2817)
    for _ in range(200):
        p = _present(random_graph(rng, max_vertices=8))
        elems = p.basis.elements
        assert groebner_criterion(exponent_rules(elems))
        for e in elems:
            assert pi_image(p, e.lead) == pi_image(p, e.trail)
            for f in elems:
                if e is not f:
                    assert not divides_exponents(f.lead.exps, e.lead.exps)
                assert not divides_exponents(f.lead.exps, e.trail.exps)


IMAGE_CORPUS = [
    "edgeless:2",
    "path:3",
    "complete:3",
    "cycle:4",
    "cycle:5",
    "star:4",
    "friendship:2",
    "cone(cycle:5)",
    "attach(edge;edge,edge)",
]


def _repeated_generators(p, m):
    """Each generator u_j repeated e_j times, for y^e the y-part of m."""
    counts = m.exponents[p.universe.y_block]
    return [u for u, e in zip(p.generators, counts) for _ in range(e)]


def _generator_product(p, m):
    """m's image formed factor by factor: the x-part, the repeated
    generators, and t to the y-degree."""
    image_ring = VariableUniverse(p.universe.s_vars, ("t",))
    x_part = {v: e for v, e in m.exps.items() if v in image_ring.s_vars}
    factors = [image_ring.monomial(x_part), image_ring.monomial({"t": m.y_degree})]
    factors += [image_ring.monomial(u.exps) for u in _repeated_generators(p, m)]
    return monomial_product(image_ring, factors)


def _assert_same(got, want):
    assert got == want
    assert (str(got), got.total_degree) == (str(want), want.total_degree)


def test_images_match_generator_products():
    # pi_image and the mapped standard monomials read exponent tuples; they
    # must agree with the products of generators, exponents included
    for text in IMAGE_CORPUS:
        p = _present(parse_construction(text))
        for e in p.basis.elements:
            for m in (e.lead, e.trail):
                _assert_same(pi_image(p, m), _generator_product(p, m))
        for k in (1, 2, 3):
            sm = standard_monomials(p, k)
            for m, mapped in zip(sm.members, sm.mapped_generators):
                _assert_same(pi_image(p, m), _generator_product(p, m))
                _assert_same(mapped, monomial_product(p.ideal.universe, _repeated_generators(p, m)))


def _fiber_inputs(presentation):
    x_vars = list(presentation.universe.s_vars)
    images = [dict(u.exps) for u in presentation.generators]
    rules = [(dict(e.lead.exps), dict(e.trail.exps)) for e in presentation.basis.elements]
    return x_vars, images, rules


def test_kernel_bases_leave_no_split_fiber():
    started = time.perf_counter()
    for text in [
        "path:3",
        "path:7",
        "cycle:5",
        "cycle:6",
        "cone(cycle:5)",
        "friendship:2",
        "attach(edge;edge,edge)",
    ]:
        x_vars, images, rules = _fiber_inputs(_present(parse_construction(text)))
        assert split_fibers(x_vars, images, rules) == [], text
    # negative control on the attach basis: dropping one element splits a fiber
    assert split_fibers(x_vars, images, rules[1:])
    assert split_fibers(x_vars, images, rules[:-1])
    # completeness one degree further, in y-degree and base degree 3
    for text in ["path:3", "cycle:5", "cycle:6", "cone(cycle:5)", "friendship:2"]:
        inputs = _fiber_inputs(_present(parse_construction(text)))
        assert split_fibers(*inputs, max_degree=3) == [], text
    assert time.perf_counter() - started < 2.0


def test_sixteen_and_seventeen_cover_kernels_certify():
    # past the old kernel wall: with lex pair selection these kernels took
    # about 10 s (path:10) and more than 40 s (friendship:4)
    for text, size in [("path:10", 86), ("friendship:4", 88)]:
        p = _present(parse_construction(text))
        report = x_condition(p)
        assert report.holds and report.quadratic, text
        assert len(p.basis.elements) == size, text
        assert split_fibers(*_fiber_inputs(p)) == [], text


def test_x_condition_report_equality():
    # reports of two presentations of one ideal are equal field by field
    first = x_condition(_present(standard_family("path", 4)))
    again = x_condition(_present(standard_family("path", 4)))
    assert first is not again and first == again
    fields = (first.holds, (), first.quadratic, (), first.initial_generators)
    assert first == XConditionReport(*fields)
    assert first != XConditionReport(False, *fields[1:])
    assert first != x_condition(_present(standard_family("cycle", 5)))
    assert repr(first) == "XConditionReport(holds=True, quadratic=True)"
    with pytest.raises(TypeError):
        XConditionReport(*fields[:4])
    with pytest.raises(TypeError):
        XConditionReport(*fields, holds=True)


def test_presentation_records_compare_by_identity():
    p = _present(standard_family("path", 3))
    copy = ReesPresentation(p.ideal, p.generators, p.universe, p.basis, p.degenerate)
    assert copy.basis is p.basis and copy.y_count == p.y_count == 2
    assert p == p and copy != p and len({p, copy}) == 2
    s = standard_monomials(p, 2)
    again = StandardMonomialSet(k=2, members=s.members, mapped_generators=s.mapped_generators)
    assert again.members is s.members
    assert s == s and again != s and len({s, again}) == 2
    with pytest.raises(TypeError):
        StandardMonomialSet(2, s.members, s.mapped_generators, k=2)
