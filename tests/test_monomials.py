"""Monomials as values, the monomial order, and monomial-ideal helpers."""

import random
from itertools import combinations_with_replacement, product as tuples
from operator import le

import pytest

from coverrees import (
    Monomial,
    MonomialIdeal,
    VariableUniverse,
    canonical_key,
    component,
    cover_ideal,
    oriented_binomial,
    parse_monomial,
    power,
    standard_family,
    variable,
)

from coverrees.monomials import _Packing, _divisors, _thresholds
from oracles import (
    colon_exponents,
    compare_monomials,
    contains,
    divides_exponents,
    monomial_product,
    random_monomial,
    random_universe,
    t_headed,
)


def _block_names(u, block):
    """The variables whose exponent-tuple position lies in the slice."""
    positions = range(len(u.all_vars))[block]
    return {v for v in u.all_vars if u.index_of(v) in positions}


def test_universe_blocks():
    u = VariableUniverse(("x1", "x2"), ("t", "y1"))
    assert u.all_vars == ("x1", "x2", "t", "y1")
    assert _block_names(u, u.s_block) == {"x1", "x2"}
    assert _block_names(u, u.y_block) == {"t", "y1"}
    assert u.index_of("t") == 0
    with pytest.raises(KeyError):
        u.index_of("q")


def test_universe_validation():
    with pytest.raises(ValueError):
        VariableUniverse(("x1", "x1"))
    with pytest.raises(ValueError):
        VariableUniverse(("x1",), ("x1",))
    with pytest.raises(ValueError):
        VariableUniverse(("t",), ("t", "y1"))
    with pytest.raises(ValueError):
        VariableUniverse(("2x",))
    with pytest.raises(TypeError):  # two blocks at most
        VariableUniverse(("x1",), ("y1",), "t")


def test_universe_extension():
    # t heads the adjoined block, so a t-free tuple without slot 0 is the
    # same monomial in the universe without t
    ext = VariableUniverse(("x1", "x2"), ("t", "y1", "y2", "y3"))
    no_t = VariableUniverse(ext.s_vars, ext.y_vars[1:])
    assert no_t != ext
    assert no_t.y_vars == ("y1", "y2", "y3")
    assert no_t.s_vars == ("x1", "x2")
    m = ext.monomial({"x1": 1, "y2": 2})
    assert m.exponents[0] == 0
    assert no_t.monomial(m.exps).exponents == m.exponents[1:]


def test_monomial_rejects_bad_exponents():
    u = VariableUniverse(("x1",))
    with pytest.raises(ValueError):
        u.monomial({"x1": -1})
    with pytest.raises(ValueError):
        u.monomial({"x1": 1.5})
    with pytest.raises(KeyError):
        u.monomial({"nope": 1})
    # zero exponents are dropped, not stored
    assert u.monomial({"x1": 0}).is_one


def test_monomial_degrees_by_block():
    u = VariableUniverse(("x1", "x2"), ("t", "y1", "y2"))
    m = u.monomial({"x1": 1, "x2": 2, "y2": 3, "t": 1})
    assert m.s_degree == 3
    assert m.y_degree == 4  # t belongs to the adjoined block
    assert m.exponents[u.index_of("t")] == m.exponents[0] == 1
    assert m.total_degree == 7
    assert m.exps["y2"] == 3 and "y1" not in m.exps


def test_degree_caches_stay_consistent():
    rng = random.Random(515)
    for _ in range(300):
        headed = rng.random() < 0.5
        u = random_universe(rng)
        u = t_headed(u) if headed else u
        m = random_monomial(rng, u)
        assert m.total_degree == sum(m.exps.values())
        for degree, block in ((m.s_degree, u.s_block), (m.y_degree, u.y_block)):
            names = _block_names(u, block)
            assert degree == sum(e for v, e in m.exps.items() if v in names)
        assert m.total_degree == m.s_degree + m.y_degree


def test_monomials_format_and_parse():
    u = VariableUniverse(("x1", "x2", "x3"), ("y1",))
    m = u.monomial({"x1": 2, "x3": 2})
    assert str(m) == "x1^2*x3^2"
    assert parse_monomial("x1^2*x3^2", u) == m
    assert parse_monomial(" x3 * x1^2 * x3 ", u) == m
    assert str(u.one()) == "1"
    assert parse_monomial("1", u) == u.one()
    assert str(u.monomial({"x2": 1, "y1": 1})) == "x2*y1"
    with pytest.raises(ValueError):
        parse_monomial("x1^", u)
    with pytest.raises(ValueError):
        parse_monomial("x1**x2", u)
    with pytest.raises(KeyError):
        parse_monomial("w3", u)


def test_format_follows_universe_priority():
    u = VariableUniverse(("b", "a"), ("t", "y1"))
    m = u.monomial({"a": 1, "b": 1, "t": 2, "y1": 1})
    assert str(m) == "b*a*t^2*y1"


def test_cross_universe_operations_rejected():
    u1 = VariableUniverse(("x1",))
    u2 = VariableUniverse(("x1", "x2"))
    with pytest.raises(ValueError):
        oriented_binomial(variable(u1, "x1"), variable(u2, "x2"))


def test_equal_universes_built_apart_interoperate():
    u1 = VariableUniverse(("x1", "x2"), ("t", "y1"))
    u2 = VariableUniverse(("x1", "x2"), ("t", "y1"))
    assert u1 is not u2
    a = u1.monomial({"x1": 2, "y1": 1})
    b = u2.monomial({"x1": 2, "y1": 1})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert canonical_key(a) == canonical_key(b)


def test_order_examples():
    u = VariableUniverse(("x1", "x2", "x3"), ("t", "y1", "y2"))
    x2y1 = u.monomial({"x2": 1, "y1": 1})
    x1x3y2 = u.monomial({"x1": 1, "x3": 1, "y2": 1})
    # the y block decides first, and y1 beats any power of y2
    assert compare_monomials(x2y1, x1x3y2) == 1
    assert compare_monomials(x1x3y2, x2y1) == -1

    ty1 = u.monomial({"t": 1, "y1": 1})
    xy = u.monomial({"x1": 2, "y2": 3})
    # the head of the adjoined block decides first
    assert compare_monomials(ty1, xy) == 1
    # without t, the comparison is the one of the universe without t
    no_t = VariableUniverse(u.s_vars, u.y_vars[1:])
    assert compare_monomials(x2y1, x1x3y2) == compare_monomials(
        no_t.monomial({"x2": 1, "y1": 1}), no_t.monomial({"x1": 1, "x3": 1, "y2": 1})
    )

    x1x3 = u.monomial({"x1": 1, "x3": 1})
    x2sq = u.monomial({"x2": 2})
    assert compare_monomials(x1x3, x2sq) == 1  # exponent of x1 decides

    y1 = u.monomial({"y1": 1})
    y2cube = u.monomial({"y2": 3})
    assert compare_monomials(y1, y2cube) == 1


def _axiom_universe(rng, shape):
    if shape == "base":
        return random_universe(rng, max_y=0)
    if shape == "y":
        return VariableUniverse((), tuple(f"y{j}" for j in range(1, rng.randint(1, 4) + 1)))
    if shape == "base+y":
        return random_universe(rng)
    return t_headed(random_universe(rng))


def test_order_axioms_sampled():
    # a quicker version of the big acceptance sweep: on every universe shape
    # the order is total, respects multiplication, and refines division
    rng = random.Random(90125)
    for shape in ("base", "y", "base+y", "base+t+y"):
        for _ in range(500):
            u = _axiom_universe(rng, shape)
            a = random_monomial(rng, u, max_degree=5)
            b = random_monomial(rng, u, max_degree=5)
            c = random_monomial(rng, u, max_degree=4)
            assert compare_monomials(a, a) == 0
            assert compare_monomials(a, b) == -compare_monomials(b, a)
            if compare_monomials(a, b) == 0:
                assert a == b
            if compare_monomials(a, b) <= 0 and compare_monomials(b, c) <= 0:
                assert compare_monomials(a, c) <= 0
            ac, bc = (monomial_product(u, (m, c)) for m in (a, b))
            assert compare_monomials(ac, bc) == compare_monomials(a, b)
            if not a.is_one:
                assert compare_monomials(a, u.one()) == 1
            if all(map(le, a.exponents, b.exponents)):
                assert compare_monomials(a, b) <= 0


def test_canonical_key_orders_blockwise():
    u = VariableUniverse(("x1", "x2"), ("t", "y1"))
    t_mon = u.monomial({"t": 1})
    y_mon = u.monomial({"y1": 5})
    x_mon = u.monomial({"x1": 9})
    assert canonical_key(t_mon) > canonical_key(y_mon) > canonical_key(x_mon)


def test_monomial_ideal_construction():
    u = VariableUniverse(("x1", "x2", "x3"))
    gens = [parse_monomial(s, u) for s in ("x2", "x1*x3")]
    ideal = MonomialIdeal(u, gens)
    # generators are stored descending under the canonical key
    assert [str(g) for g in ideal.gens] == ["x1*x3", "x2"]
    assert contains(ideal, parse_monomial("x1*x2^4", u))
    assert contains(ideal, parse_monomial("x1^5*x3", u))
    assert not contains(ideal, parse_monomial("x1^5*x3^0", u))
    assert not contains(ideal, parse_monomial("x1*x2^0*x3^0", u))
    assert not contains(ideal, u.one())
    assert ideal.min_degree() == 1 and ideal.max_degree() == 2
    assert not ideal.is_equigenerated()
    # a generating set that is not minimal keeps only its minimal elements
    assert MonomialIdeal(u, [parse_monomial("x2", u), parse_monomial("x1*x2", u)]) == MonomialIdeal(
        u, [parse_monomial("x2", u)]
    )


def test_monomial_ideal_zero_and_unit():
    u = VariableUniverse(("x1",))
    zero = MonomialIdeal(u, [])
    assert zero.is_zero and not zero.is_unit
    assert not contains(zero, variable(u, "x1"))
    unit = MonomialIdeal(u, [u.one()])
    assert unit.is_unit and not unit.is_zero
    assert contains(unit, u.one())
    assert unit.is_equigenerated()


def test_monomial_ideal_equality_is_canonical():
    u = VariableUniverse(("x1", "x2"))
    a = MonomialIdeal(u, [variable(u, "x1"), variable(u, "x2")])
    b = MonomialIdeal(u, [variable(u, "x2"), variable(u, "x1")])
    assert a == b and hash(a) == hash(b)
    other = VariableUniverse(("x1", "x2", "x3"))
    c = MonomialIdeal(other, [variable(other, "x1"), variable(other, "x2")])
    assert a != c


def test_minimalize():
    u = VariableUniverse(("x1", "x2", "x3"))
    raw = [parse_monomial(s, u) for s in ("x1*x2", "x1", "x1^2", "x2*x3", "x1")]
    ideal = MonomialIdeal(u, raw)
    assert [str(g) for g in ideal.gens] == ["x1", "x2*x3"]
    already = [parse_monomial(s, u) for s in ("x2^2", "x1*x2*x3", "x1^2*x3^2")]
    assert set(MonomialIdeal(u, already).gens) == set(already)
    assert MonomialIdeal(u, []).is_zero


def test_indexed_minimality_matches_brute_force():
    # sets above 64 generators make the index bitsets span several words
    rng = random.Random(2718)
    wide = 0
    for trial in range(120):
        u = t_headed(random_universe(rng, max_s=6, max_y=3))
        if trial % 4:
            size = rng.choice([0, 1, 2, 5, 20, 40])
            gens = [random_monomial(rng, u, max_degree=5) for _ in range(size)]
        else:
            # over at least 7 variables, 100 draws of degree 4 keep a large
            # antichain, and draws of degree 5 find their divisors among it
            while len(u.all_vars) < 7:
                u = t_headed(random_universe(rng, max_s=6, max_y=3))
            xs = [variable(u, v) for v in u.all_vars]
            gens = [monomial_product(u, rng.choices(xs, k=4 + (i >= 100))) for i in range(140)]
        if gens and rng.random() < 0.3:
            gens += rng.choices(gens, k=rng.randint(1, 5))
        if rng.random() < 0.1:
            gens.append(u.one())
        rng.shuffle(gens)
        wide += _assert_minimal_kept(u, gens) > 64
    assert wide >= 10
    # one total degree, with repeats: the constructor keeps the distinct
    # members without building a divisor table
    for _ in range(40):
        u = random_universe(rng)
        degree = rng.randint(0, 4)
        xs = [variable(u, v) for v in u.all_vars]
        gens = [monomial_product(u, rng.choices(xs, k=degree)) for _ in range(rng.randint(1, 30))]
        gens += rng.choices(gens, k=rng.randint(1, 5))
        assert _assert_minimal_kept(u, gens) == len(set(gens))


def _assert_minimal_kept(u, gens):
    """Checks the constructor keeps exactly the members no other member
    divides, by brute force; returns how many it keeps."""
    distinct = set(gens)
    brute = {
        g
        for g in distinct
        if not any(h != g and divides_exponents(h.exps, g.exps) for h in distinct)
    }
    assert set(MonomialIdeal(u, gens).gens) == brute
    return len(brute)


def test_threshold_divisors_match_brute_force():
    # every w up to top against random members: repeated, nested (so not
    # minimal) and over 64 of them, on zero to three variables
    rng = random.Random(4409)
    for trial in range(150):
        n = rng.randint(0, 3)
        top = rng.randint(0, 4)
        size = rng.choice([0, 1, 2, 7, 30, 80])
        members = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(size)]
        if members and trial % 3 == 0:
            members += rng.choices(members, k=3)
        table = _thresholds(members, top)
        every = (1 << len(members)) - 1
        among = rng.getrandbits(len(members))
        for w in tuples(range(top + 1), repeat=n):
            brute = [all(map(le, m, w)) for m in members]
            assert _divisors(table, w, every) == sum(1 << i for i, b in enumerate(brute) if b)
            assert _divisors(table, w, among) == among & _divisors(table, w, every)
    assert _thresholds([], 3) == [] and _divisors([], (2, 1), 0) == 0
    assert _divisors(_thresholds([(), ()], 0), (), 0b11) == 0b11


def test_power():
    u = VariableUniverse(("x1", "x2", "x3"))
    p3_cover = MonomialIdeal(u, [parse_monomial("x1*x3", u), parse_monomial("x2", u)])
    squared = power(p3_cover, 2)
    assert {str(g) for g in squared.gens} == {"x2^2", "x1*x2*x3", "x1^2*x3^2"}
    assert power(p3_cover, 1) == p3_cover

    two_vars = MonomialIdeal(u, [variable(u, "x1"), variable(u, "x2")])
    for k in range(1, 6):
        assert len(power(two_vars, k).gens) == k + 1

    with pytest.raises(ValueError):
        power(p3_cover, 0)
    zero = MonomialIdeal(u, [])
    assert power(zero, 3).is_zero
    unit = MonomialIdeal(u, [u.one()])
    assert power(unit, 3).is_unit


def test_power_membership_is_sound():
    # every product of k generators lands in the computed minimal set's span
    rng = random.Random(333)
    u = VariableUniverse(("x1", "x2", "x3", "x4"))
    for _ in range(30):
        gens = {random_monomial(rng, u, max_degree=3) for _ in range(rng.randint(1, 4))}
        gens = {g for g in gens if not g.is_one}
        if not gens:
            continue
        ideal = MonomialIdeal(u, gens)
        k = rng.randint(1, 3)
        kth = power(ideal, k)
        for combo in combinations_with_replacement(ideal.gens, k):
            assert contains(kth, monomial_product(u, combo))
        for g in kth.gens:
            assert contains(ideal, g)


def test_power_is_the_minimal_products():
    # on random ideals, zero and unit among them: I^k is minimally generated
    # by the minimal elements of the products of k generators, by brute force
    rng = random.Random(3131)
    for _ in range(60):
        u = random_universe(rng, max_s=4, max_y=1)
        gens = {random_monomial(rng, u, 3) for _ in range(rng.randint(1, 5))} - {u.one()}
        for ideal, k in tuples((MonomialIdeal(u, gens), MonomialIdeal(u, [u.one()])), (1, 2, 3)):
            prods = {
                monomial_product(u, combo) for combo in combinations_with_replacement(ideal.gens, k)
            }
            minimal = {
                m
                for m in prods
                if not any(h != m and divides_exponents(h.exps, m.exps) for h in prods)
            }
            assert set(power(ideal, k).gens) == minimal, (ideal, k)


def _as_dict(exponents):
    return {p: e for p, e in enumerate(exponents) if e}


def test_packed_colon_support_and_degree_match_oracle():
    # on random exponent tuples: the colon a : b, its support (guard bits
    # and exponent positions), its degree as the remainder modulo the
    # field modulus, and int order as lex order
    rng = random.Random(4021)
    for _ in range(300):
        n = rng.randint(1, 6)
        tuples = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        packing = _Packing(n, max(map(sum, tuples)))
        words = [packing.pack(t) for t in tuples]
        guard = packing.modulus.bit_length() - 1
        for b, word in zip(tuples, words):
            colons = packing.colons(words, word)
            assert colons == [packing.colons(iter([w]), word)[0] for w in words]
            for a, q in zip(tuples, colons):
                oracle = colon_exponents(_as_dict(a), _as_dict(b))
                assert q == packing.pack([oracle.get(p, 0) for p in range(n)]), (a, b)
                assert q % packing.modulus == sum(oracle.values()), (a, b)
                assert packing.positions(q) == sum(1 << p for p in oracle), (a, b)
                support = sum(1 << (packing.shifts[p] + guard) for p in oracle)
                assert packing.support(q) == support, (a, b)
        for (a, wa), (b, wb) in combinations_with_replacement(list(zip(tuples, words)), 2):
            assert (wa < wb) == (a < b) and (wa == wb) == (a == b)


def test_packing_is_sized_by_total_degree():
    # fields sized from the largest exponent (3) hold each exponent, but
    # not the degree 12 of the tuple: 12 is 5 modulo 2^3 - 1.  Sized from
    # the total degree, the remainder is the degree
    a, zero = (3, 3, 3, 3), (0, 0, 0, 0)
    by_exponent = _Packing(4, max(a))
    [q] = by_exponent.colons([by_exponent.pack(a)], by_exponent.pack(zero))
    assert q % by_exponent.modulus == 5
    packing = _Packing(4, sum(a))
    [q] = packing.colons([packing.pack(a)], packing.pack(zero))
    assert q % packing.modulus == 12
    assert packing.positions(q) == 0b1111


def test_component():
    u = VariableUniverse(("x1", "x2", "x3"))
    ideal = MonomialIdeal(u, [parse_monomial("x2", u), parse_monomial("x1*x3", u)])
    comp2 = component(ideal, 2)
    assert {str(g) for g in comp2.gens} == {"x1*x2", "x1*x3", "x2^2", "x2*x3"}
    assert component(ideal, 0).is_zero
    comp1 = component(ideal, 1)
    assert [str(g) for g in comp1.gens] == ["x2"]
    # everything in a component sits inside the ideal
    for g in component(ideal, 3).gens:
        assert contains(ideal, g)
        assert g.total_degree == 3


def test_component_is_every_degree_j_member():
    # on random ideals, zero and unit among them: the degree-j component is
    # generated by every degree-j monomial in the ideal, so it is zero below
    # the lowest generator degree
    rng = random.Random(3132)
    for _ in range(60):
        u = random_universe(rng, max_s=3, max_y=1)
        gens = {random_monomial(rng, u, 3) for _ in range(rng.randint(0, 4))} - {u.one()}
        for ideal, j in tuples((MonomialIdeal(u, gens), MonomialIdeal(u, [u.one()])), range(5)):
            words = combinations_with_replacement(u.all_vars, j)
            degree_j = (monomial_product(u, map(variable, [u] * j, word)) for word in words)
            expected = {m for m in degree_j if contains(ideal, m)}
            assert set(component(ideal, j).gens) == expected, (ideal, j)


def test_cover_ideal_small_graphs():
    p3 = standard_family("path", 3)
    ideal = cover_ideal(p3)
    assert [str(g) for g in ideal.gens] == ["x1*x3", "x2"]

    c4 = standard_family("cycle", 4)
    assert [str(g) for g in cover_ideal(c4).gens] == ["x1*x3", "x2*x4"]

    star = standard_family("star", 3)
    assert [str(g) for g in cover_ideal(star).gens] == ["z1*z2*z3", "x1"]

    k2 = standard_family("path", 2)
    assert [str(g) for g in cover_ideal(k2).gens] == ["x1", "x2"]


def test_cover_ideal_edgeless_is_unit():
    from coverrees import Graph

    g = Graph(["x1", "x2"], [])
    ideal = cover_ideal(g)
    assert ideal.is_unit


def test_cover_ideal_generators_form_antichain():
    # minimal covers are incomparable sets, so no squarefree generator divides
    # another and the constructor keeps one generator per cover
    from oracles import brute_minimal_covers, random_graph

    rng = random.Random(616)
    for _ in range(25):
        g = random_graph(rng, max_vertices=7)
        ideal = cover_ideal(g)
        assert all(set(m.exps.values()) <= {1} for m in ideal.gens)
        covers = [frozenset(m.exps) for m in ideal.gens]
        assert set(covers) == brute_minimal_covers(g)
        assert len(set(covers)) == len(covers)
