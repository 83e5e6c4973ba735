"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test certifies one externally visible guarantee of the package on
concrete inputs and appends an ``acceptance N PASS/FAIL`` line to the
pytest summary (see conftest).  Frozen values were cross-checked against
the brute-force oracles in oracles.py and the unit modules.
"""

import random
import time
from contextlib import contextmanager
from operator import le

import conftest
from oracles import (
    compare_monomials,
    divides_exponents,
    exhaustive_linear_quotients,
    exponent_rules,
    groebner_criterion,
    monomial_product,
    order_admits_linear_quotients,
    random_monomial,
)

from coverrees import (
    Graph,
    MonomialIdeal,
    VariableUniverse,
    attach,
    betti_table,
    buchberger,
    cameron_walker,
    canonical_key,
    check_linear_quotients,
    cm_bipartite_from_poset,
    cover_ideal,
    find_linear_quotients_order,
    has_linear_resolution,
    is_componentwise_linear,
    is_unmixed,
    minimal_generation_check,
    parse_construction,
    power,
    Poset,
    rees_presentation,
    standard_monomials,
    x_condition,
)
from coverrees.rees import pi_image
from coverrees.resolutions import lcm_lattice


def _emit(line):
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(number, description, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"acceptance {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        _emit(f"acceptance {number} FAIL: {description} [{elapsed:.2f}s over budget]")
        raise AssertionError(f"criterion {number} took {elapsed:.2f}s, budget {budget}s")
    _emit(f"acceptance {number} PASS: {description} [{elapsed:.2f}s]")


_GRAPHS = {}
_PRESENTATIONS = {}


def _graph(name):
    if name not in _GRAPHS:
        if name == "cw":
            core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
            _GRAPHS[name] = cameron_walker(core, 1, 1)
        elif name == "attach":
            edge = parse_construction("edge")
            _GRAPHS[name] = attach(edge, [parse_construction("edge"), parse_construction("edge")])
        elif name == "cm-chain":
            _GRAPHS[name] = cm_bipartite_from_poset(Poset(["1", "2"], [("1", "2")]))
        elif name == "cm-antichain":
            _GRAPHS[name] = cm_bipartite_from_poset(Poset(["1", "2"], []))
        else:
            _GRAPHS[name] = parse_construction(name)
    return _GRAPHS[name]


def _presentation(name):
    if name not in _PRESENTATIONS:
        _PRESENTATIONS[name] = rees_presentation(cover_ideal(_graph(name)))
    return _PRESENTATIONS[name]


def _admits(cert):
    """The oracle's verdict on the order a certificate carries."""
    return order_admits_linear_quotients([m.exps for m in cert.ordering])


def test_criterion_1_edge_graph_end_to_end():
    with criterion(1, "edge graph: exact kernel, standard monomials of every power", 5.0):
        ideal = cover_ideal(_graph("path:2"))
        assert [str(m) for m in ideal.gens] == ["x1", "x2"]
        p = _presentation("path:2")
        assert p.basis.dump() == "x2*y1 - x1*y2"
        rep = x_condition(p)
        assert rep.holds and rep.quadratic
        assert [str(m) for m in rep.initial_generators] == ["x2*y1"]
        for k in range(1, 5):
            std = standard_monomials(p, k)
            pk = power(ideal, k)
            assert len(std.members) == k + 1 == len(pk.gens)
            assert len(set(std.mapped_generators)) == k + 1
            assert set(std.mapped_generators) == set(pk.gens)
            assert minimal_generation_check(standard_monomials(p, k), power(p.ideal, k))
            cert = find_linear_quotients_order(pk.gens)
            assert cert is not None and _admits(cert)
        assert [str(m) for m in standard_monomials(p, 2).members] == [
            "y2^2",
            "y1*y2",
            "y1^2",
        ]
        assert betti_table(ideal).entries == {(0, 1): 2, (1, 2): 1}
        assert has_linear_resolution(ideal)


def test_criterion_2_path_graph_full_certification():
    with criterion(2, "path on three vertices: quadratic kernel and every consequence", 10.0):
        p = _presentation("path:3")
        assert p.basis.dump() == "x2*y1 - x1*x3*y2"
        rep = x_condition(p)
        assert rep.holds and rep.quadratic
        assert [str(m) for m in rep.initial_generators] == ["x2*y1"]
        ideal = p.ideal
        for k in range(1, 4):
            assert len(standard_monomials(p, k).members) == k + 1
            assert minimal_generation_check(standard_monomials(p, k), power(p.ideal, k))
        std2 = standard_monomials(p, 2)
        assert [str(m) for m in std2.members] == ["y2^2", "y1*y2", "y1^2"]
        assert {str(m) for m in std2.mapped_generators} == {
            "x2^2",
            "x1*x2*x3",
            "x1^2*x3^2",
        }
        for mono_ideal in (ideal, power(ideal, 2)):
            cert = find_linear_quotients_order(mono_ideal.gens)
            assert cert is not None and cert.method == "ascending" and _admits(cert)
        cw_rep = is_componentwise_linear(ideal)
        assert cw_rep.componentwise_linear
        assert cw_rep.by_degree == {1: True, 2: True}


def test_criterion_3_four_cycle_negative_control():
    with criterion(3, "four-cycle: x-condition fails and the consequences degrade", 10.0):
        p = _presentation("cycle:4")
        rep = x_condition(p)
        assert not rep.holds and not rep.quadratic
        assert [str(m) for m in rep.offending_generators] == ["x2*x4*y1"]
        assert [str(m) for m in rep.quadratic_offenders] == ["x2*x4*y1"]
        # the implication is one-way: generation may still hold without it
        assert minimal_generation_check(standard_monomials(p, 1), power(p.ideal, 1))
        assert minimal_generation_check(standard_monomials(p, 2), power(p.ideal, 2))
        ideal = p.ideal
        assert betti_table(ideal).entries == {(0, 2): 2, (1, 4): 1}
        assert not has_linear_resolution(ideal)
        assert find_linear_quotients_order(ideal.gens) is None
        assert exhaustive_linear_quotients(list(ideal.gens)) is None
        cw_rep = is_componentwise_linear(ideal)
        assert not cw_rep.componentwise_linear
        assert cw_rep.by_degree == {2: False}


def test_criterion_4_star_certification_depends_on_priority():
    with criterion(4, "star: leaves-first priority certifies, center-first does not", 10.0):
        leaves_first = _graph("star:3")
        p = _presentation("star:3")
        assert p.basis.dump() == "x1*y1 - z1*z2*z3*y2"
        rep = x_condition(p)
        assert rep.holds and rep.quadratic
        center_first = Graph(
            ["x1", "z1", "z2", "z3"],
            [("x1", "z1"), ("x1", "z2"), ("x1", "z3")],
        )
        assert {frozenset(e) for e in center_first.edges} == {
            frozenset(e) for e in leaves_first.edges
        }
        p2 = rees_presentation(cover_ideal(center_first))
        assert p2.basis.dump() == "z1*z2*z3*y1 - x1*y2"
        rep2 = x_condition(p2)
        assert not rep2.holds
        assert [str(m) for m in rep2.offending_generators] == ["z1*z2*z3*y1"]


def test_criterion_5_positive_corpus_has_quadratic_kernels():
    with criterion(5, "attach, cone, star and friendship corpus all certify", 30.0):
        names = (
            ["attach"]
            + [f"cone(path:{n})" for n in range(1, 5)]
            + [f"star:{n}" for n in range(1, 5)]
            + ["friendship:1", "friendship:2"]
        )
        for name in names:
            rep = x_condition(_presentation(name))
            assert rep.holds, name
            assert rep.quadratic, name
            assert rep.offending_generators == ()
            assert rep.quadratic_offenders == ()
        p = _presentation("attach")
        assert p.y_count == 8
        assert len(p.basis.elements) == 15


def test_criterion_6_cameron_walker_consequences():
    with criterion(6, "Cameron-Walker graph: unmixed, linear resolutions of both powers", 120.0):
        g = _graph("cw")
        assert is_unmixed(g)
        core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
        assert not is_unmixed(cameron_walker(core, 1, 2))
        p = _presentation("cw")
        rep = x_condition(p)
        assert rep.holds and rep.quadratic
        assert p.y_count == 5 and len(p.basis.elements) == 6
        assert [str(m) for m in rep.initial_generators] == [
            "y1*y5",
            "z2_2*y1",
            "x1*y1",
            "x1*y2",
            "x2*y3",
            "z2_2*y4",
        ]
        ideal = p.ideal
        assert {m.total_degree for m in ideal.gens} == {3}
        assert minimal_generation_check(standard_monomials(p, 1), power(p.ideal, 1))
        assert minimal_generation_check(standard_monomials(p, 2), power(p.ideal, 2))
        assert len(standard_monomials(p, 2).members) == 14
        square = power(ideal, 2)
        assert len(square.gens) == 14
        for mono_ideal in (ideal, square):
            assert has_linear_resolution(mono_ideal)
            cert = find_linear_quotients_order(mono_ideal.gens)
            assert cert is not None and cert.method == "ascending" and _admits(cert)
        table = betti_table(ideal)
        assert table.entries == {(0, 3): 5, (1, 4): 5, (2, 5): 1}
        assert table.max_index() < len(ideal.gens)


def test_criterion_7_standard_monomials_generate_all_small_powers():
    with criterion(7, "standard monomials match minimal generators for k <= 3 corpus-wide", 60.0):
        names = [
            "path:2",
            "path:3",
            "complete:3",
            "cycle:4",
            "star:1",
            "star:2",
            "star:3",
            "star:4",
            "cone(path:1)",
            "cone(path:2)",
            "cone(path:3)",
            "cone(path:4)",
            "friendship:1",
            "friendship:2",
            "attach",
            "cw",
            "cm-chain",
            "cm-antichain",
        ]
        skipped = []
        for name in names:
            p = _presentation(name)
            rep = x_condition(p)
            if not (rep.holds and rep.quadratic):
                skipped.append(name)
                continue
            for k in (1, 2, 3):
                std = standard_monomials(p, k)
                pk = power(p.ideal, k)
                assert len(std.members) == len(pk.gens), (name, k)
                assert set(std.mapped_generators) == set(pk.gens), (name, k)
                assert minimal_generation_check(std, pk), (name, k)
        assert skipped == ["cycle:4"]


def test_criterion_8_engine_self_checks():
    with criterion(8, "kernel bases verify, orders satisfy axioms, searches match oracles", 120.0):
        corpus = [
            "path:2",
            "path:3",
            "complete:3",
            "cycle:4",
            "star:3",
            "friendship:2",
            "cm-chain",
            "cm-antichain",
            "attach",
            "cw",
        ]
        for name in corpus:
            p = _presentation(name)
            basis = p.basis
            assert groebner_criterion(exponent_rules(basis.elements))
            leads = [e.lead for e in basis.elements]
            for i, lead in enumerate(leads):
                for j, other in enumerate(leads):
                    if i != j:
                        assert not divides_exponents(lead.exps, other.exps)
                for e in basis.elements:
                    assert not divides_exponents(lead.exps, e.trail.exps)
            for e in basis.elements:
                assert pi_image(p, e.lead) == pi_image(p, e.trail)
            if basis.elements:
                again = buchberger(basis.elements)
                assert again.elements == basis.elements

        rng = random.Random(9418)
        universes = [
            VariableUniverse(("a", "b", "c")),
            VariableUniverse((), ("y1", "y2", "y3")),
            VariableUniverse(("a", "b"), ("y1", "y2")),
            VariableUniverse(("a", "b"), ("t", "y1", "y2")),
        ]
        for uni in universes:
            for _ in range(10_000):
                u = random_monomial(rng, uni, max_degree=5)
                v = random_monomial(rng, uni, max_degree=5)
                w = random_monomial(rng, uni, max_degree=5)
                cuv = compare_monomials(u, v)
                assert cuv == -compare_monomials(v, u)
                assert (cuv == 0) == (u == v)
                uw, vw = (monomial_product(uni, (m, w)) for m in (u, v))
                assert compare_monomials(uw, vw) == cuv
                lo, mid, hi = sorted([u, v, w], key=canonical_key)
                assert compare_monomials(lo, mid) <= 0 <= compare_monomials(hi, mid)
                if u != v and all(map(le, u.exponents, v.exponents)):
                    assert compare_monomials(v, u) == 1

        rng = random.Random(6120)
        base = VariableUniverse(("x1", "x2", "x3", "x4"))
        hits = misses = 0
        for _ in range(200):
            count = rng.randint(2, 6)
            gens = []
            while len(gens) < count:
                m = random_monomial(rng, base, max_degree=4)
                if not m.is_one:
                    gens.append(m)
            ideal = MonomialIdeal(base, gens)
            found = find_linear_quotients_order(ideal.gens)
            expected = exhaustive_linear_quotients(list(ideal.gens))
            assert (found is None) == (expected is None)
            if found is None:
                misses += 1
            else:
                assert _admits(found)
                ordering = check_linear_quotients(found.ordering)
                assert not isinstance(ordering, int)
                hits += 1
        assert hits > 0 and misses > 0

        for ideal in [
            cover_ideal(_graph("path:3")),
            cover_ideal(_graph("cycle:4")),
            cover_ideal(_graph("complete:3")),
            cover_ideal(_graph("star:3")),
            cover_ideal(_graph("cw")),
            power(cover_ideal(_graph("path:2")), 2),
            power(cover_ideal(_graph("path:3")), 2),
        ]:
            table = betti_table(ideal)
            for b in lcm_lattice(ideal):
                alternating = sum(
                    (-1) ** i * v for (i, bb), v in table.multigraded.items() if bb == b
                )
                assert alternating == -_euler_characteristic(ideal, b)


def _euler_characteristic(ideal, b):
    """Alternating face count of the upper Koszul complex at b, recomputed
    from scratch on exponent dictionaries."""
    from itertools import combinations

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
