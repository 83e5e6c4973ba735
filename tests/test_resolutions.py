"""Linear quotients, Betti tables via upper Koszul homology, linearity checks."""

import random
from itertools import combinations

import pytest

from coverrees import (
    ComponentwiseReport,
    GeneratorLimitExceeded,
    LatticeLimitExceeded,
    LinearQuotientsCertificate,
    MonomialIdeal,
    VariableUniverse,
    betti_table,
    check_linear_quotients,
    component,
    cover_ideal,
    find_linear_quotients_order,
    graph_from_json,
    has_linear_resolution,
    is_componentwise_linear,
    parse_construction,
    parse_monomial,
    power,
    standard_family,
    variable,
)

from oracles import (
    colon_rule,
    componentwise_by_degree,
    contains,
    divides_exponents,
    exhaustive_linear_quotients,
    fraction_rank,
    herzog_takayama_betti,
    monomial_product,
    order_admits_linear_quotients,
    random_monomial,
)

from coverrees import resolutions
from coverrees.monomials import _Value
from coverrees.resolutions import (
    _rank,
    _reduced_homology_ranks,
    lcm_lattice,
    upper_koszul_faces,
)


def _ideal(universe, *texts):
    return MonomialIdeal(universe, [parse_monomial(t, universe) for t in texts])


def _admits(cert):
    """The oracle's verdict on the order a certificate carries."""
    return order_admits_linear_quotients([m.exps for m in cert.ordering])


U3 = VariableUniverse(("x1", "x2", "x3"))
U4 = VariableUniverse(("x1", "x2", "x3", "x4"))
U5 = VariableUniverse(tuple(f"x{i}" for i in range(1, 6)))


def test_check_linear_quotients_certificate():
    u = VariableUniverse(("x1", "x2"))
    square = [parse_monomial(t, u) for t in ("x2^2", "x1*x2", "x1^2")]
    cert = check_linear_quotients(square)
    assert isinstance(cert, LinearQuotientsCertificate)
    assert cert.ordering == tuple(square) and cert.method is None

    # the oracle restatement agrees
    assert _admits(cert)


def test_check_linear_quotients_failure_position():
    gens = [parse_monomial(t, U3) for t in ("x1*x3", "x2")]
    # colon(x1*x3, x2) = x1*x3 has degree two, so position 2 fails
    assert check_linear_quotients(gens) == 2
    assert isinstance(check_linear_quotients(list(reversed(gens))), LinearQuotientsCertificate)


def test_check_linear_quotients_edge_cases():
    assert check_linear_quotients([]).ordering == ()
    single = check_linear_quotients([parse_monomial("x1*x3", U3)])
    assert [str(m) for m in single.ordering] == ["x1*x3"] and _admits(single)
    m = parse_monomial("x1", U3)
    with pytest.raises(ValueError):
        check_linear_quotients([m, m])
    with pytest.raises(ValueError):
        check_linear_quotients([m, parse_monomial("x1", U4)])


def test_check_linear_quotients_agrees_with_oracle():
    rng = random.Random(3307)
    accepted = rejected = unit_colons = 0
    for _ in range(300):
        gens = {random_monomial(rng, U4, max_degree=4) for _ in range(rng.randint(1, 6))}
        if rng.random() < 0.3:
            # a multiple of an existing generator, placed after it, makes
            # that colon the unit ideal
            g = rng.choice(sorted(gens, key=str))
            gens.add(monomial_product(U4, (g, variable(U4, rng.choice(U4.all_vars)))))
        gens = sorted(gens, key=str)
        rng.shuffle(gens)
        exps = [m.exps for m in gens]
        unit_colons += any(
            divides_exponents(exps[i], exps[j]) for j in range(len(gens)) for i in range(j)
        )
        result = check_linear_quotients(gens)
        expected = order_admits_linear_quotients(exps)
        assert isinstance(result, LinearQuotientsCertificate) == expected, gens
        if expected:
            accepted += 1
        else:
            rejected += 1
            # the reported position is the first prefix the oracle rejects
            assert order_admits_linear_quotients(exps[: result - 1])
            assert not order_admits_linear_quotients(exps[:result])
    assert accepted > 0 and rejected > 0 and unit_colons > 0


def test_colon_fields_are_sized_by_total_degree():
    # x1*x2*x3*x4 : x5 has degree 4, which is 1 modulo 2^2 - 1, the field
    # modulus of a packing sized from the largest exponent 1
    gens = [parse_monomial(t, U5) for t in ("x1*x2*x3*x4", "x5")]
    assert check_linear_quotients(gens) == 2 == colon_rule([g.exponents for g in gens])


def test_find_order_uses_ascending_heuristic():
    u = VariableUniverse(("x1", "x2"))
    gens = _ideal(u, "x1^2", "x1*x2", "x2^2").gens
    cert = find_linear_quotients_order(gens)
    assert cert is not None and cert.method == "ascending"
    assert [str(m) for m in cert.ordering] == ["x2^2", "x1*x2", "x1^2"]
    assert _admits(cert)


# both degree-sorted sweeps fail on these four cubics, but an order exists
SEARCH_ONLY = ("x1*x2*x4", "x1*x3*x4", "x2*x3*x5", "x2*x4*x5")


def test_find_order_falls_back_to_search():
    gens = _ideal(U5, *SEARCH_ONLY).gens
    cert = find_linear_quotients_order(gens)
    assert cert is not None and cert.method == "search"
    assert [str(m) for m in cert.ordering] == ["x2*x4*x5", "x2*x3*x5", "x1*x2*x4", "x1*x3*x4"]
    assert _admits(cert)


def test_find_order_sorts_the_sweeps_by_degree():
    # the raw ascending and descending orders of (x1^3, x1*x2, x2^3) both
    # fail; sorted by degree, the ascending one has linear quotients
    u = VariableUniverse(("x1", "x2"))
    cert = find_linear_quotients_order(_ideal(u, "x1^3", "x1*x2", "x2^3").gens)
    assert cert is not None and cert.method == "ascending"
    assert [str(m) for m in cert.ordering] == ["x1*x2", "x2^3", "x1^3"]
    assert _admits(cert)
    # the raw ascending order of the square of complete_bipartite:1,3 fails
    # and the raw descending one passes; sorted by degree, the ascending
    # one passes
    square = power(cover_ideal(parse_construction("complete_bipartite:1,3")), 2)
    cert = find_linear_quotients_order(square.gens)
    assert cert.method == "ascending"
    assert [str(m) for m in cert.ordering] == ["x1^2", "x1*x2*x3*x4", "x2^2*x3^2*x4^2"]


def test_find_order_detects_impossible_ideals():
    ideal = _ideal(U4, "x1*x3", "x2*x4")
    assert find_linear_quotients_order(ideal.gens) is None
    assert exhaustive_linear_quotients(list(ideal.gens)) is None
    # cycle:6 cubed: 22 generators in degrees 9 to 12; the degree-block
    # search (Jahan-Zheng) stops at its lowest block, four generators of
    # degree 9 with no order
    cube = power(cover_ideal(parse_construction("cycle:6")), 3)
    assert len(cube.gens) == 22
    assert find_linear_quotients_order(cube.gens, max_generators=22) is None


def test_find_order_respects_generator_bound():
    # both sweeps fail here, so the search runs and the bound applies
    gens = _ideal(U5, *SEARCH_ONLY).gens
    with pytest.raises(GeneratorLimitExceeded, match="4 generators exceed the search bound 3"):
        find_linear_quotients_order(gens, max_generators=3)
    # the bound guards only the search: the ascending order is still tried
    cert = find_linear_quotients_order(_ideal(U3, "x1", "x2", "x3").gens, max_generators=2)
    assert cert is not None and cert.method == "ascending"
    assert [str(m) for m in cert.ordering] == ["x3", "x2", "x1"]


def test_find_order_agrees_with_exhaustive_search():
    rng = random.Random(1848)
    hits = misses = 0
    for _ in range(60):
        gens = {random_monomial(rng, U3, max_degree=4) for _ in range(rng.randint(2, 5))}
        gens = {g for g in gens if not g.is_one}
        if not gens:
            continue
        ideal = MonomialIdeal(U3, gens)
        cert = find_linear_quotients_order(ideal.gens)
        oracle = exhaustive_linear_quotients(list(ideal.gens))
        assert (cert is None) == (oracle is None)
        if cert is None:
            misses += 1
        else:
            hits += 1
            assert _admits(cert)
    assert hits > 0 and misses > 0


def _random_mixed_ideal(rng, universe, count):
    """Minimal generators of ``count`` random monomials of degrees 2 to 4."""
    gens = []
    for _ in range(count):
        exps = {}
        for _ in range(rng.randint(2, 4)):
            name = rng.choice(universe.all_vars)
            exps[name] = exps.get(name, 0) + 1
        gens.append(universe.monomial(exps))
    return MonomialIdeal(universe, gens)


def test_degree_block_search_agrees_with_exhaustive_search():
    # random mixed-degree ideals with at most 7 generators: the search finds
    # an order exactly when some permutation has linear quotients, its
    # orders are nondecreasing in degree, and the stable degree sort of any
    # order with linear quotients keeps them (Jahan-Zheng, JCTA 117, 2010)
    rng = random.Random(1406)
    searched = missed = resorted = 0
    for _ in range(200):
        ideal = _random_mixed_ideal(rng, U5, rng.randint(4, 9))
        if len(ideal.gens) > 7 or ideal.is_equigenerated():
            continue
        cert = find_linear_quotients_order(ideal.gens)
        oracle = exhaustive_linear_quotients(list(ideal.gens))
        assert (cert is None) == (oracle is None), ideal.gens
        if cert is None:
            missed += 1
            continue
        degrees = [m.total_degree for m in cert.ordering]
        if cert.method == "search":
            searched += 1
            assert degrees == sorted(degrees), cert.ordering
        for order in (cert.ordering, oracle):
            by_degree = sorted(order, key=lambda m: m.total_degree)
            resorted += by_degree != list(order)
            assert isinstance(check_linear_quotients(by_degree), LinearQuotientsCertificate), order
    assert searched > 0 and missed > 0 and resorted > 0, (searched, missed, resorted)


def test_degree_sort_keeps_linear_quotients():
    # any order with linear quotients keeps them when stably sorted by
    # degree, the swap argument in find_linear_quotients_order's docstring
    rng = random.Random(2010)
    passed = resorted = 0
    for _ in range(300):
        ideal = _random_mixed_ideal(rng, U5, rng.randint(3, 6))
        for _ in range(6):
            order = list(ideal.gens)
            rng.shuffle(order)
            if not isinstance(check_linear_quotients(order), LinearQuotientsCertificate):
                continue
            passed += 1
            by_degree = sorted(order, key=lambda m: m.total_degree)
            resorted += by_degree != order
            assert order_admits_linear_quotients([m.exps for m in by_degree]), order
            assert isinstance(check_linear_quotients(by_degree), LinearQuotientsCertificate)
    assert resorted > 20, (passed, resorted)


def test_linear_graph_rule_agrees_with_exhaustive_search():
    # equigenerated squarefree ideals are one degree block each: an order
    # exists only if the linear graph (lcm of degree d + 1) is connected,
    # and a connected graph still leaves the verdict to the backtracking
    rng = random.Random(2011)
    u6 = VariableUniverse(tuple(f"x{i}" for i in range(1, 7)))
    found = missed = split = 0
    for _ in range(100):
        d = rng.randint(2, 3)
        universe = rng.choice((U5, u6))
        faces = rng.sample(list(combinations(universe.all_vars, d)), rng.randint(3, 7))
        chosen = [universe.monomial(dict.fromkeys(f, 1)) for f in faces]
        gens = list(MonomialIdeal(universe, chosen).gens)
        reached, frontier = {0}, [0]
        while frontier:
            i = frontier.pop()
            for j, g in enumerate(gens):
                if j not in reached and sum(map(max, gens[i].exponents, g.exponents)) == d + 1:
                    reached.add(j)
                    frontier.append(j)
        cert = find_linear_quotients_order(gens)
        assert (cert is None) == (exhaustive_linear_quotients(gens) is None), gens
        if len(reached) < len(gens):
            split += 1
            assert cert is None, gens
        elif cert is None:
            missed += 1
        else:
            found += 1
            assert _admits(cert)
    assert found > 0 and missed > 0 and split > 0, (found, missed, split)


def test_linear_graph_rule_decides_split_components(monkeypatch):
    # the 21-generator components of degree 6 of complete_bipartite:2,3
    # squared and of degree 8 of its cube have no order: their linear
    # graphs are disconnected, so no subset is searched; the colon rule
    # runs at most once per generator in each of the two sweeps and once
    # per generator in the screen (backtracking alone makes thousands of
    # calls on each)
    calls = []
    rule = resolutions._colon_variables

    def counted(*args):
        calls.append(1)
        return rule(*args)

    monkeypatch.setattr(resolutions, "_colon_variables", counted)
    ideal = cover_ideal(parse_construction("complete_bipartite:2,3"))
    for k, d in ((2, 6), (3, 8)):
        gens = component(power(ideal, k), d).gens
        assert len(gens) == 21
        calls.clear()
        assert find_linear_quotients_order(gens, max_generators=10**6) is None, (k, d)
        assert len(calls) <= 3 * len(gens), (k, d)


def test_degree_block_search_needs_minimal_generators():
    # x1*x3 divides x1*x2*x3, so only orders against the degree can work
    gens = [parse_monomial(t, U4) for t in ("x1*x3", "x2*x4", "x1*x2*x3")]
    with pytest.raises(ValueError):
        find_linear_quotients_order(gens)


# powers that no search decided in 20 s before the search went block by block
DEGREE_BLOCK_CASES = [
    ("cycle:6", 4, 35, False),
    ("cycle:8", 2, 35, False),
    ("cone(cycle:6)", 3, 40, False),
    ("cycle:9", 2, 57, True),
]


def test_degree_block_search_decides_large_powers():
    for text, k, count, found in DEGREE_BLOCK_CASES:
        ideal = power(cover_ideal(parse_construction(text)), k)
        assert len(ideal.gens) == count, (text, k)
        cert = find_linear_quotients_order(ideal.gens, max_generators=64)
        assert (cert is not None) == found, (text, k)
        if found:
            assert cert.method == "search", (text, k)
            recheck = check_linear_quotients(cert.ordering)
            assert isinstance(recheck, LinearQuotientsCertificate), (text, k)
            assert recheck.colon_variables == cert.colon_variables, (text, k)
            assert _admits(cert), (text, k)


def test_betti_layer_takes_the_search_order(monkeypatch):
    # cycle:7 squared: 28 generators of degree 8, both sweeps fail and the
    # search finds an order, so no Koszul table is built
    ideal = power(cover_ideal(parse_construction("cycle:7")), 2)
    assert len(ideal.gens) == 28
    cert = find_linear_quotients_order(ideal.gens, max_generators=28)
    assert cert is not None and cert.method == "search"
    assert cert.componentwise() == ComponentwiseReport(True, {8: True})
    with monkeypatch.context() as patch:
        patch.setattr(resolutions, "_koszul_betti_table", None)
        assert is_componentwise_linear(ideal, max_generators=28).linear_resolution
        table = betti_table(ideal, max_generators=28)
    ordered = [dict(m.exps) for m in cert.ordering]
    assert table.entries == herzog_takayama_betti(ordered)
    # past the bound the sweeps alone cannot decide, and the search raises
    with pytest.raises(GeneratorLimitExceeded, match="28 generators exceed the search bound 27"):
        betti_table(ideal, max_generators=27)


def test_rank_matches_fraction_elimination():
    # entries in [-4, 4], so non-unit pivots run; column j of m is the dict
    # {i: m[i][j]} over its nonzero entries
    rng = random.Random(27)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        columns = [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(cols)]
        assert _rank(columns) == fraction_rank(m)
    assert _rank([]) == 0
    assert _rank([{}, {}]) == 0
    assert _rank([{0: 2, 1: 1}, {0: 4, 1: 2}]) == 1


def test_lcm_lattice_of_triangle_cover(monkeypatch):
    tri = _ideal(U3, "x1*x2", "x1*x3", "x2*x3")
    lattice = [str(m) for m in lcm_lattice(tri)]
    assert lattice == ["x2*x3", "x1*x3", "x1*x2", "x1*x2*x3"]
    monkeypatch.setattr(resolutions, "MAX_MULTIDEGREES", 2)
    with pytest.raises(LatticeLimitExceeded):
        lcm_lattice(tri)
    assert lcm_lattice(MonomialIdeal(U3, [])) == []


def test_colon_rule_matches_per_variable_oracle():
    # every power of the tier-1 corpus in its two sweeps, each raw and
    # sorted by degree, and in shuffled orders: the same colon variables
    # where the order passes, the same position where it fails
    rng = random.Random(3407)
    cases = dict.fromkeys(HERZOG_TAKAYAMA_CASES + COMPONENTWISE_CASES)
    cases.update(dict.fromkeys((text, k) for text, k, _, _ in DEGREE_BLOCK_CASES))
    passed = failed = 0
    for text, k in cases:
        pool = sorted(power(cover_ideal(parse_construction(text)), k).gens, key=lambda m: m.exponents)
        orders = [pool, pool[::-1]]
        orders += [sorted(order, key=lambda m: m.total_degree) for order in orders]
        for _ in range(3):
            orders.append(rng.sample(pool, len(pool)))
        for order in orders:
            result = check_linear_quotients(order)
            expected = colon_rule([m.exponents for m in order])
            if isinstance(result, LinearQuotientsCertificate):
                passed += 1
                assert result.colon_variables == expected, (text, k)
            else:
                failed += 1
                assert result == expected, (text, k)
    assert (passed, failed) == (39, 108), (passed, failed)


def _position_faces(ideal, b):
    """{F : b / x_F in the ideal} over the subsets F of supp(b), as bitmasks
    over exponent positions, by subtracting exponents and a scan for a
    divisor."""
    universe = ideal.universe
    names = {universe.index_of(v): v for v in universe.all_vars}
    support = [p for p, e in enumerate(b.exponents) if e]
    faces = set()
    for size in range(len(support) + 1):
        for combo in combinations(support, size):
            quotient = {names[p]: e - (p in combo) for p, e in enumerate(b.exponents)}
            if contains(ideal, universe.monomial(quotient)):
                faces.add(sum(1 << p for p in combo))
    return faces


KOSZUL_CORPUS_BOUND = 18  # generators; fixes the Koszul cross-check corpus and its run time


def _koszul_lattice_points():
    """(ideal, b) at every lcm-lattice point of the Koszul tables tier-1
    builds within the bounds: the powers k <= 3 of the corpus below, and
    the small ideals."""
    bound = KOSZUL_CORPUS_BOUND
    ideals = [
        _ideal(U3, "x1*x2", "x1*x3", "x2*x3"),
        _ideal(U4, "x1*x3", "x2*x4"),
        _ideal(U5, "x1*x2", "x3*x4", "x5^4"),
        _ideal(U5, "x1*x2", "x1*x3", "x4^3*x5"),
    ]
    for text in dict.fromkeys(text for text, _ in HERZOG_TAKAYAMA_CASES + COMPONENTWISE_CASES):
        for k in (1, 2, 3):
            ideal = power(cover_ideal(parse_construction(text)), k)
            if len(ideal.gens) <= bound:
                ideals.append(ideal)
    points = []
    for ideal in ideals:
        try:
            lattice = lcm_lattice(ideal)
        except LatticeLimitExceeded:
            continue
        points += [(ideal, b) for b in lattice]
    assert len(points) == 653, len(points)
    return points


def _faces(ideal, b):
    """``upper_koszul_faces`` at the monomial b, on the generators' packing."""
    packing, words = resolutions._packed(ideal.gens)
    return upper_koszul_faces(packing, words, packing.pack(b.exponents))


def test_upper_koszul_faces_match_brute_force():
    for ideal, b in _koszul_lattice_points():
        faces = _faces(ideal, b)
        assert set().union(*faces.values()) == _position_faces(ideal, b), (ideal, b)
        for d, masks in faces.items():
            assert masks == sorted(masks), (ideal, b)
            assert all(mask.bit_count() == d + 1 for mask in masks), (ideal, b)


def _dense_homology_ranks(faces):
    """dim -> reduced homology rank from dense signed boundary matrices over
    faces as sorted tuples of positions, ranked by ``fraction_rank``."""
    cells = {
        d: [tuple(p for p in range(mask.bit_length()) if mask >> p & 1) for mask in masks]
        for d, masks in faces.items()
    }
    ranks = {}
    for d, columns in cells.items():
        rows = cells.get(d - 1, [])
        matrix = [[0] * len(columns) for _ in rows]
        for j, face in enumerate(columns):
            for k in range(len(face)):
                matrix[rows.index(face[:k] + face[k + 1 :])][j] = (-1) ** k
        ranks[d] = fraction_rank(matrix)
    return {d: len(cells[d]) - ranks[d] - ranks.get(d + 1, 0) for d in cells}


def test_reduced_homology_matches_dense_boundaries():
    for ideal, b in _koszul_lattice_points():
        faces = _faces(ideal, b)
        assert _reduced_homology_ranks(faces) == _dense_homology_ranks(faces), (ideal, b)

    # hand-computed complexes over the vertices 1, 2, 4 (bits 0, 1, 2)
    hollow_triangle = {-1: [0], 0: [1, 2, 4], 1: [3, 5, 6]}
    assert _reduced_homology_ranks(hollow_triangle) == {-1: 0, 0: 0, 1: 1}
    two_points = {-1: [0], 0: [1, 2]}
    assert _reduced_homology_ranks(two_points) == {-1: 0, 0: 1}
    simplex = {**hollow_triangle, 2: [7]}
    assert _reduced_homology_ranks(simplex) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert _reduced_homology_ranks({-1: [0]}) == {-1: 1}


def test_upper_koszul_faces_worked_example():
    # faces are bitmasks over exponent positions: x1, x2, x3 are bits 0, 1, 2
    assert [U3.index_of(v) for v in ("x1", "x2", "x3")] == [0, 1, 2]
    p3 = _ideal(U3, "x2", "x1*x3")
    b = parse_monomial("x1*x2*x3", U3)
    faces = _faces(p3, b)
    assert faces[-1] == [0]
    assert faces[0] == [0b001, 0b010, 0b100]
    assert faces[1] == [0b101]
    assert 2 not in faces

    # a multidegree outside the ideal has no faces at all
    outside = parse_monomial("x1", U3)
    assert _faces(p3, outside) == {}


def test_betti_tables_of_small_ideals():
    tri = _ideal(U3, "x1*x2", "x1*x3", "x2*x3")
    assert betti_table(tri).entries == {(0, 2): 3, (1, 3): 2}

    c4 = _ideal(U4, "x1*x3", "x2*x4")
    assert betti_table(c4).entries == {(0, 2): 2, (1, 4): 1}

    p3 = _ideal(U3, "x2", "x1*x3")
    assert betti_table(p3).entries == {(0, 1): 1, (0, 2): 1, (1, 3): 1}

    principal = _ideal(U3, "x1")
    assert betti_table(principal).entries == {(0, 1): 1}

    unit = MonomialIdeal(U3, [U3.one()])
    assert betti_table(unit).entries == {(0, 0): 1}

    # 35 generators and no linear-quotients order: Koszul homology decides
    c8_squared = power(cover_ideal(parse_construction("cycle:8")), 2)
    assert betti_table(c8_squared, max_generators=64).entries == {
        (0, 8): 3, (0, 9): 16, (0, 10): 16,
        (1, 10): 32, (1, 11): 40,
        (2, 11): 16, (2, 12): 32,
        (3, 12): 2, (3, 13): 8,
    }

    zero = MonomialIdeal(U3, [])
    table = betti_table(zero)
    assert table.entries == {} and table.max_index() == -1
    assert table.format_text() == "(zero ideal: empty resolution)"


def test_betti_table_interface():
    tri = _ideal(U3, "x1*x2", "x1*x3", "x2*x3")
    table = betti_table(tri)
    assert table.beta(0, 2) == 3 and table.beta(1, 3) == 2
    assert table.beta(5, 9) == 0
    assert table.max_index() == 1
    assert table.generator_count == 3
    text = table.format_text()
    assert text.splitlines()[0].startswith("i\\j")
    assert "." in text  # absent entries print as dots
    # multigraded refinement sums to the graded table
    total = {}
    for (i, b), v in table.multigraded.items():
        key = (i, b.total_degree)
        total[key] = total.get(key, 0) + v
    assert total == table.entries


def test_betti_respects_generator_bound():
    # no order of the two disjoint quadrics has linear quotients, so only
    # the search decides, and its generator bound applies
    c4 = cover_ideal(standard_family("cycle", 4))
    with pytest.raises(GeneratorLimitExceeded):
        betti_table(c4, max_generators=1)
    # the triangle has linear quotients: the mapping cone decides past the bound
    tri = _ideal(U3, "x1*x2", "x1*x3", "x2*x3")
    assert betti_table(tri, max_generators=2).entries == {(0, 2): 3, (1, 3): 2}


def test_mapping_cone_shift_bound(monkeypatch):
    # the triangle's mapping cone has 4 distinct shifts, the lattice's size
    tri = _ideal(U3, "x1*x2", "x1*x3", "x2*x3")
    assert len({b for _, b in betti_table(tri).multigraded}) == 4
    monkeypatch.setattr(resolutions, "MAX_MULTIDEGREES", 3)
    with pytest.raises(LatticeLimitExceeded):
        betti_table(tri)
    # the componentwise verdict enumerates no shift
    assert is_componentwise_linear(tri).componentwise_linear
    # 2^r_j shifts of one generator past the bound raise before enumeration
    monkeypatch.setattr(resolutions, "MAX_MULTIDEGREES", 1)
    with pytest.raises(LatticeLimitExceeded, match="of one generator"):
        betti_table(tri)


def test_betti_zeroth_row_counts_generators():
    for ideal in [
        cover_ideal(standard_family("path", 3)),
        cover_ideal(standard_family("cycle", 4)),
        cover_ideal(standard_family("star", 3)),
        power(cover_ideal(standard_family("path", 3)), 2),
    ]:
        table = betti_table(ideal)
        by_degree = {}
        for g in ideal.gens:
            by_degree[g.total_degree] = by_degree.get(g.total_degree, 0) + 1
        assert {j: v for (i, j), v in table.entries.items() if i == 0} == by_degree
        # the Taylor complex bounds the length of the resolution
        assert table.max_index() < table.generator_count


def _euler_characteristic(ideal, b):
    """Alternating face count of the upper Koszul complex, recomputed from
    scratch on exponent dictionaries."""
    gens = [dict(g.exps) for g in ideal.gens]
    support = sorted(b.exps)
    total = 0
    for size in range(len(support) + 1):
        for combo in combinations(support, size):
            quotient = dict(b.exps)
            for v in combo:
                quotient[v] -= 1
            member = any(
                all(quotient.get(v, 0) >= e for v, e in g.items()) for g in gens
            )
            if member:
                total += (-1) ** (size - 1)
    return total


def test_betti_alternating_sums_match_euler_characteristics():
    for ideal in [
        _ideal(U3, "x1*x2", "x1*x3", "x2*x3"),
        _ideal(U4, "x1*x3", "x2*x4"),
        cover_ideal(standard_family("path", 3)),
        power(cover_ideal(standard_family("path", 3)), 2),
        cover_ideal(standard_family("star", 3)),
    ]:
        table = betti_table(ideal)
        for b in lcm_lattice(ideal):
            alternating = sum(
                (-1) ** i * v for (i, bb), v in table.multigraded.items() if bb == b
            )
            assert alternating == -_euler_characteristic(ideal, b)


def test_has_linear_resolution():
    u = VariableUniverse(("x1", "x2"))
    assert has_linear_resolution(_ideal(u, "x1^2", "x1*x2", "x2^2"))
    assert has_linear_resolution(_ideal(U3, "x1*x2", "x1*x3", "x2*x3"))
    assert has_linear_resolution(_ideal(U3, "x1"))
    assert has_linear_resolution(MonomialIdeal(U3, []))
    assert has_linear_resolution(MonomialIdeal(U3, [U3.one()]))
    # mixed degrees disqualify immediately
    assert not has_linear_resolution(_ideal(U3, "x2", "x1*x3"))
    # equigenerated but with a nonlinear syzygy
    assert not has_linear_resolution(_ideal(U4, "x1*x3", "x2*x4"))


def test_linear_quotients_imply_linear_resolution_when_equigenerated():
    candidates = [
        _ideal(U3, "x1*x2", "x1*x3", "x2*x3"),
        power(cover_ideal(standard_family("path", 2)), 3),
        cover_ideal(standard_family("cycle", 4)),
        power(cover_ideal(standard_family("complete", 3)), 2),
    ]
    exercised = 0
    for ideal in candidates:
        cert = find_linear_quotients_order(ideal.gens)
        if cert is not None and ideal.is_equigenerated():
            assert has_linear_resolution(ideal)
            exercised += 1
    assert exercised >= 2


# cover-ideal powers whose linear-quotients certificate orders the
# generators by nondecreasing degree; half are not equigenerated
HERZOG_TAKAYAMA_CASES = [
    ("path:3", 2),
    ("path:5", 1),
    ("star:3", 3),
    ("friendship:2", 1),
    ("cone(path:3)", 3),
    ("path:4", 3),
    ("cycle:5", 2),
    ("cw(complete_bipartite:1,1;leaves=1;triangles=1)", 2),
]


def test_betti_tables_match_herzog_takayama_formula():
    for text, k in HERZOG_TAKAYAMA_CASES:
        ideal = power(cover_ideal(parse_construction(text)), k)
        cert = find_linear_quotients_order(ideal.gens)
        assert cert is not None, (text, k)
        degrees = [m.total_degree for m in cert.ordering]
        assert degrees == sorted(degrees), (text, k)
        ordered = [dict(m.exps) for m in cert.ordering]
        assert order_admits_linear_quotients(ordered), (text, k)
        assert betti_table(ideal).entries == herzog_takayama_betti(ordered), (text, k)


def test_is_componentwise_linear():
    p3 = cover_ideal(standard_family("path", 3))
    rep = is_componentwise_linear(p3)
    assert rep.componentwise_linear
    assert rep.by_degree == {1: True, 2: True}

    c4 = cover_ideal(standard_family("cycle", 4))
    bad = is_componentwise_linear(c4)
    assert not bad.componentwise_linear
    assert bad.by_degree == {2: False}

    zero = is_componentwise_linear(MonomialIdeal(U3, []))
    assert zero.componentwise_linear and zero.by_degree == {}

    principal = is_componentwise_linear(_ideal(U3, "x1*x2*x3"))
    assert principal.componentwise_linear
    assert principal.by_degree == {3: True}


# cover-ideal powers on which the truncation criterion is checked against
# the components themselves; six are not componentwise linear in some degree
COMPONENTWISE_CASES = [
    ("path:5", 3),
    ("friendship:2", 2),
    ("cycle:6", 1),
    ("cone(path:3)", 3),
    ("cycle:5", 3),
    ("cycle:4", 2),
    ("complete_bipartite:2,3", 2),
    ("complete_bipartite:2,3", 3),
    ("cycle:7", 1),
    ("cone(cycle:4)", 2),
    ("path:4", 3),
]


def test_truncation_criterion_matches_components():
    negative = 0
    for text, k in COMPONENTWISE_CASES:
        ideal = power(cover_ideal(parse_construction(text)), k)
        expected = componentwise_by_degree(ideal)
        # the truncations have at most len(ideal.gens) generators
        rep = is_componentwise_linear(ideal, max_generators=len(ideal.gens))
        assert rep.by_degree == expected, (text, k)
        assert rep.componentwise_linear == all(expected.values()), (text, k)
        negative += not rep.componentwise_linear
    assert negative == 6


def test_componentwise_bounds_propagate():
    c4 = cover_ideal(standard_family("cycle", 4))
    with pytest.raises(GeneratorLimitExceeded):
        is_componentwise_linear(c4, max_generators=1)
    # a linear-quotients order decides without any table, past the bound
    tri = _ideal(U3, "x1*x2", "x1*x3", "x2*x3")
    assert is_componentwise_linear(tri, max_generators=2).by_degree == {2: True}


def _koszul_componentwise(ideal):
    """reg(I_<=j) <= j from the Koszul table of every truncation; a degree
    without generators keeps the table of the generator degree below."""
    degrees = {g.total_degree for g in ideal.gens}
    by_degree = {}
    for j in range(min(degrees, default=0), max(degrees, default=-1) + 1):
        if j in degrees:
            gens = [g for g in ideal.gens if g.total_degree <= j]
            table = resolutions._koszul_betti_table(MonomialIdeal(ideal.universe, gens))
        by_degree[j] = table.regularity() <= j
    return ComponentwiseReport(all(by_degree.values()), by_degree)


def test_mapping_cone_agrees_with_koszul_homology():
    # every power k <= 3 of the graphs above within the Koszul bounds: the
    # mapping-cone table equals the Koszul one, graded and multigraded, and
    # the verdict from the certificate equals the Koszul verdict on every
    # truncation
    bound = KOSZUL_CORPUS_BOUND
    graphs = dict.fromkeys(text for text, _ in HERZOG_TAKAYAMA_CASES + COMPONENTWISE_CASES)
    tables = verdicts = 0
    for text in graphs:
        for k in (1, 2, 3):
            ideal = power(cover_ideal(parse_construction(text)), k)
            if len(ideal.gens) > bound:
                continue
            try:
                koszul = resolutions._koszul_betti_table(ideal)
            except LatticeLimitExceeded:
                continue
            if find_linear_quotients_order(ideal.gens, bound) is not None:
                cone = betti_table(ideal, bound)
                assert cone.entries == koszul.entries, (text, k)
                assert cone.multigraded == koszul.multigraded, (text, k)
                tables += 1
            fast = is_componentwise_linear(ideal, bound)
            assert fast == _koszul_componentwise(ideal), (text, k)
            verdicts += 1
    assert (tables, verdicts) == (21, 33)


def test_each_truncation_is_searched_once(monkeypatch):
    # searched and Koszul generator counts, top truncation first.  cycle:6:
    # neither the ideal (5 generators, degrees 3 and 4) nor its degree-3
    # truncation x1x3x5, x2x4x6 has an order, so Koszul tables decide both.
    # x1x2, x1x3, x4^3x5: the ideal has no order, its degree-2 truncation
    # has one, which decides degrees 2 and 3 without a table
    searched, koszul = [], []
    search, table = resolutions.find_linear_quotients_order, resolutions._koszul_betti_table

    def counting_search(gens, *args, **kwargs):
        searched.append(len(gens))
        return search(gens, *args, **kwargs)

    def counting_table(ideal):
        koszul.append(len(ideal.gens))
        return table(ideal)

    monkeypatch.setattr(resolutions, "find_linear_quotients_order", counting_search)
    monkeypatch.setattr(resolutions, "_koszul_betti_table", counting_table)
    cases = [
        (cover_ideal(parse_construction("cycle:6")), [5, 2], [5, 2]),
        (_ideal(U5, "x1*x2", "x1*x3", "x4^3*x5"), [3, 2], [3]),
    ]
    for ideal, searches, tables in cases:
        searched.clear()
        koszul.clear()
        rep = is_componentwise_linear(ideal)
        assert (searched, koszul) == (searches, tables)
        assert rep == _koszul_componentwise(ideal)
    assert rep.by_degree == {2: True, 3: True, 4: False}


def test_degree_without_generators_reads_the_regularity_below():
    # a degree j without generators has I_<=j = I_<=i for the generator
    # degree i below, so reg(I_<=i) <= j decides it, not the verdict at i:
    # x1x2, x3x4 has regularity 3, so degree 3 is linear, degree 2 is not
    ideal = _ideal(U5, "x1*x2", "x3*x4", "x5^4")
    rep = is_componentwise_linear(ideal)
    assert rep.by_degree == {2: False, 3: True, 4: False}
    assert rep == _koszul_componentwise(ideal)
    assert rep.by_degree == componentwise_by_degree(ideal)
    # the cover ideal of a 4-cycle beside a 3-star: its degree-3 truncation
    # c * (x1x3, x2x4) has regularity 4
    disjoint = graph_from_json(
        '{"vertices": ["x1", "x2", "x3", "x4", "c", "a", "b", "d"], "edges": '
        '[["x1", "x2"], ["x2", "x3"], ["x3", "x4"], ["x4", "x1"], ["c", "a"], ["c", "b"], ["c", "d"]]}'
    )
    ideal = cover_ideal(disjoint)
    rep = is_componentwise_linear(ideal)
    assert rep.by_degree == {3: False, 4: True, 5: False}
    assert rep == _koszul_componentwise(ideal)


def test_certificate_and_report_equality():
    # both records are equal field by field; the method is a field, so a
    # direct check (method None) differs from the sweep that found the order
    ideal = _ideal(U5, "x1*x2", "x1*x3", "x2*x3")
    cert = find_linear_quotients_order(ideal.gens)
    again = find_linear_quotients_order(ideal.gens)
    assert cert is not again and cert == again
    direct = check_linear_quotients(cert.ordering)
    assert direct == LinearQuotientsCertificate(cert.ordering, cert.colon_variables)
    assert direct != cert
    assert LinearQuotientsCertificate(cert.ordering, cert.colon_variables, cert.method) == cert
    report = cert.componentwise()
    assert report == ComponentwiseReport(True, {2: True})
    assert report != ComponentwiseReport(True, {2: False})
    assert report != ComponentwiseReport(False, {2: True})
    assert repr(report) == "ComponentwiseReport(True, {2: True})"
    with pytest.raises(TypeError):
        hash(report)
    # a value never equals a record of another type with the same fields
    twin_type = type("Twin", (_Value,), {"__slots__": ComponentwiseReport.__slots__})
    twin = twin_type(True, {2: True})
    assert report != twin and twin != report


def test_records_fill_their_fields_in_slot_order():
    order, colons = (parse_monomial("x1", U3),), (0,)
    cert = LinearQuotientsCertificate(order, colons)
    assert (cert.ordering, cert.colon_variables, cert.method) == (order, colons, None)
    named = LinearQuotientsCertificate(colon_variables=colons, method="search", ordering=order)
    assert (named.ordering, named.colon_variables, named.method) == (order, colons, "search")
    wrong_calls = [
        ((order, colons, None, None), {}),  # too many positional values
        ((order, colons), {"methods": None}),  # an unknown keyword
        ((order,), {}),  # a missing field
        ((order, colons), {"ordering": order}),  # a keyword repeating a position
    ]
    for values, keywords in wrong_calls:
        with pytest.raises(TypeError):
            LinearQuotientsCertificate(*values, **keywords)
    with pytest.raises(TypeError):
        ComponentwiseReport(True)  # no default for by_degree
