"""Graph constructors, cover enumeration and structural predicates."""

import json
import random

import pytest

from coverrees import (
    Graph,
    Poset,
    attach,
    cameron_walker,
    cm_bipartite_from_poset,
    cone,
    graph_from_json,
    graph_to_json,
    is_chordal,
    is_connected,
    is_unmixed,
    maximal_independent_sets,
    minimal_vertex_covers,
    parse_construction,
    standard_family,
)

from oracles import (
    brute_is_chordal,
    brute_maximal_independent_sets,
    brute_minimal_covers,
    is_cover,
    is_minimal_cover,
    random_graph,
)


def test_build_graph_basics():
    g = Graph(["a", "b", "c"], [("b", "a"), ("b", "c")])
    assert g.labels == ("a", "b", "c")
    # edges are canonicalized by vertex priority, not input order
    assert g.edges == (("a", "b"), ("b", "c"))
    assert g.neighbors("b") == {"a", "c"}
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.n_vertices == 3 and g.n_edges == 2


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(["a", "a"], [])
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "c")])
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "a")])
    # parts must partition the labels and edges must cross between them
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "b")], parts=(["a"], ["a", "b"]))
    with pytest.raises(ValueError):
        Graph(["a", "b", "c"], [("a", "b")], parts=(["a", "b"], ["c"]))


def test_duplicate_edges_collapse():
    g = Graph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
    assert g.edges == (("a", "b"),)


def test_standard_families():
    p4 = standard_family("path", 4)
    assert p4.labels == ("x1", "x2", "x3", "x4")
    assert p4.edges == (("x1", "x2"), ("x2", "x3"), ("x3", "x4"))

    c4 = standard_family("cycle", 4)
    assert c4.n_vertices == 4 and c4.n_edges == 4
    assert c4.has_edge("x1", "x4")

    k4 = standard_family("complete", 4)
    assert k4.n_edges == 6

    kab = standard_family("complete_bipartite", 2, 3)
    assert kab.n_vertices == 5 and kab.n_edges == 6
    assert kab.parts == (("x1", "x2"), ("x3", "x4", "x5"))

    star = standard_family("star", 3)
    assert star.labels == ("z1", "z2", "z3", "x1")
    assert set(star.neighbors("x1")) == {"z1", "z2", "z3"}
    assert star.n_edges == 3

    fr = standard_family("friendship", 2)
    assert fr.labels == ("z1", "z2", "z3", "z4", "x1")
    assert fr.n_edges == 6
    assert fr.has_edge("z1", "z2") and fr.has_edge("z3", "z4")
    assert not fr.has_edge("z2", "z3")

    fan = standard_family("fan", 3)
    assert fan.labels == ("z1", "z2", "z3", "x1")
    assert fan.n_edges == 5
    assert fan.has_edge("z1", "z2") and fan.has_edge("z2", "z3")
    assert not fan.has_edge("z1", "z3")


def test_standard_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        standard_family("path", 0)
    with pytest.raises(ValueError):
        standard_family("cycle", 2)
    with pytest.raises(ValueError):
        standard_family("complete_bipartite", 2)
    with pytest.raises(ValueError):
        standard_family("wheel", 4)


def test_cone_places_apex_last():
    triangle = cone(standard_family("path", 2))
    assert triangle.labels == ("x1", "x2", "x3")
    assert triangle.n_edges == 3

    # the apex label skips names already used by the base
    star = standard_family("star", 2)
    coned = cone(star)
    assert coned.labels[-1] == "x2"
    assert set(coned.neighbors("x2")) == {"z1", "z2", "x1"}

    with pytest.raises(ValueError):
        cone(Graph([], []))


def test_attach_basics():
    edge = standard_family("path", 2)
    g = attach(edge, [edge, edge])
    assert g.labels == ("z1_1", "z1_2", "z2_1", "z2_2", "x1", "x2")
    assert g.n_edges == 7
    assert g.has_edge("z1_1", "z1_2") and g.has_edge("z1_1", "x1")
    assert g.has_edge("z2_2", "x2") and not g.has_edge("z1_1", "x2")

    # attach over a star reproduces a cone shape: one vertex, one piece
    single = standard_family("path", 1)
    tri = attach(single, [edge])
    assert tri.labels == ("z1_1", "z1_2", "x1")
    assert tri.n_edges == 3


def test_attach_rejects_mismatch_and_relabels_collisions():
    edge = standard_family("path", 2)
    with pytest.raises(ValueError):
        attach(edge, [edge])
    # a base label of the generated form moves the new labels to zz<i>_<j>
    taken = Graph(["z1_1", "q"], [("z1_1", "q")])
    g = attach(taken, [edge, edge])
    assert g.labels == ("zz1_1", "zz1_2", "zz2_1", "zz2_2", "z1_1", "q")
    assert g.has_edge("zz1_1", "z1_1") and g.has_edge("zz2_2", "q")


def test_nested_attach_constructs():
    # the paper's construction applied twice: the outer pieces take zz labels
    g = parse_construction("attach(attach(edge;vertex,vertex);vertex,vertex,vertex,vertex)")
    inner = parse_construction("attach(edge;vertex,vertex)")
    assert g.labels == ("zz1_1", "zz2_1", "zz3_1", "zz4_1") + inner.labels
    for host, new in zip(inner.labels, g.labels):
        assert g.neighbors(new) == {host}
    covers = minimal_vertex_covers(g)
    assert len(covers) == len(brute_minimal_covers(g))
    assert set(covers) == brute_minimal_covers(g)


def test_attach_allows_edgeless_and_empty_pieces():
    base = standard_family("path", 2)
    empty = Graph([], [])
    edgeless = Graph(["v1", "v2"], [])
    g = attach(base, [empty, edgeless])
    assert g.labels == ("z2_1", "z2_2", "x1", "x2")
    assert g.n_edges == 3  # two host edges plus the base edge
    assert not g.has_edge("z2_1", "z2_2")


def test_poset_closure_and_antisymmetry():
    p = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")  # transitivity
    assert p.leq("b", "b")  # reflexivity
    assert not p.leq("c", "a")
    with pytest.raises(ValueError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        Poset(["a", "a"], [])
    with pytest.raises(ValueError):
        Poset(["a"], [("a", "q")])
    # a 4-chain given out of order, with the elements out of order too
    chain = Poset(["a", "c", "b", "d"], [("c", "d"), ("a", "b"), ("b", "c")])
    assert chain.relation == {(a, b) for a in "abcd" for b in "abcd" if a <= b}


def test_cm_bipartite_from_poset():
    chain = Poset(["1", "2"], [("1", "2")])
    g = cm_bipartite_from_poset(chain)
    assert g.labels == ("a1", "a2", "b1", "b2")
    assert set(g.edges) == {("a1", "b1"), ("a1", "b2"), ("a2", "b2")}
    assert g.parts == (("a1", "a2"), ("b1", "b2"))

    antichain = cm_bipartite_from_poset(Poset(["1", "2"], []))
    assert set(antichain.edges) == {("a1", "b1"), ("a2", "b2")}


def test_cameron_walker_one_leaf_one_triangle():
    core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
    g = cameron_walker(core, 1, 1)
    # one leaf adds one vertex, one pendant triangle adds two
    assert g.labels == ("z1_1", "z2_1", "z2_2", "x1", "x2")
    assert g.edges == (
        ("z1_1", "x1"),
        ("z2_1", "z2_2"),
        ("z2_1", "x2"),
        ("z2_2", "x2"),
        ("x1", "x2"),
    )
    assert is_connected(g)


def test_cameron_walker_counts_and_mappings():
    core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
    g = cameron_walker(core, 2, 1)
    assert g.n_vertices == 6 and g.n_edges == 6
    assert not g.has_edge("z1_1", "z1_2")

    by_label = cameron_walker(core, {"x1": 3}, {"x2": 2})
    assert by_label.n_vertices == 2 + 3 + 4
    assert by_label.has_edge("z2_1", "z2_2") and by_label.has_edge("z2_3", "z2_4")
    assert not by_label.has_edge("z2_2", "z2_3")


def test_cameron_walker_rejects_bad_input():
    plain = Graph(["x1", "x2"], [("x1", "x2")])
    with pytest.raises(ValueError):
        cameron_walker(plain)  # no declared parts
    core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
    with pytest.raises(ValueError):
        cameron_walker(core, 0, 1)
    disconnected = Graph(
        ["a1", "a2", "b1", "b2"],
        [("a1", "b1"), ("a2", "b2")],
        parts=(["a1", "a2"], ["b1", "b2"]),
    )
    with pytest.raises(ValueError):
        cameron_walker(disconnected)


def test_minimal_covers_small_graphs():
    edge = standard_family("path", 2)
    assert minimal_vertex_covers(edge) == [{"x1"}, {"x2"}]

    p3 = standard_family("path", 3)
    assert minimal_vertex_covers(p3) == [{"x1", "x3"}, {"x2"}]

    c4 = standard_family("cycle", 4)
    assert minimal_vertex_covers(c4) == [
        {"x1", "x3"},
        {"x2", "x4"},
    ]

    star = standard_family("star", 3)
    assert minimal_vertex_covers(star) == [
        {"z1", "z2", "z3"},
        {"x1"},
    ]


def test_minimal_covers_edge_cases():
    lonely = standard_family("path", 1)
    covers = minimal_vertex_covers(lonely)
    assert len(covers) == 1 and covers[0] == frozenset()

    edgeless = Graph(["x1", "x2"], [])
    covers = minimal_vertex_covers(edgeless)
    assert len(covers) == 1 and covers[0] == frozenset()


def test_vertex_cover_predicates():
    p3 = standard_family("path", 3)
    assert is_minimal_cover(frozenset({"x2"}), p3)
    assert is_cover(frozenset({"x1", "x2"}), p3)
    assert not is_minimal_cover(frozenset({"x1", "x2"}), p3)
    assert not is_cover(frozenset({"x1"}), p3)


def test_minimal_covers_match_brute_force():
    rng = random.Random(4021)
    for _ in range(40):
        g = random_graph(rng, max_vertices=8)
        got = minimal_vertex_covers(g)
        assert set(got) == brute_minimal_covers(g)
        assert all(is_minimal_cover(c, g) for c in got)
        # the list is sorted so membership tuples strictly decrease
        keys = [tuple(1 if v in c else 0 for v in g.labels) for c in got]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)


def test_maximal_independent_sets_match_brute_force():
    rng = random.Random(977)
    for _ in range(30):
        g = random_graph(rng, max_vertices=8)
        got = {frozenset(s) for s in maximal_independent_sets(g)}
        assert got == brute_maximal_independent_sets(g)
        # duality: covers are exactly the complements
        labels = set(g.labels)
        covers = set(minimal_vertex_covers(g))
        assert covers == {frozenset(labels - s) for s in got}


def test_is_unmixed():
    assert is_unmixed(standard_family("cycle", 4))
    assert is_unmixed(standard_family("complete", 3))
    assert not is_unmixed(standard_family("path", 3))
    assert not is_unmixed(standard_family("star", 3))

    core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
    assert is_unmixed(cameron_walker(core, 1, 1))
    # two pendant triangles on one vertex produce covers of different sizes
    mixed = cameron_walker(core, 1, 2)
    sizes = {len(c) for c in minimal_vertex_covers(mixed)}
    assert sizes == {4, 5}
    assert not is_unmixed(mixed)


def test_is_chordal():
    assert is_chordal(standard_family("path", 5))
    assert is_chordal(standard_family("complete", 4))
    assert is_chordal(standard_family("star", 4))
    assert is_chordal(cone(standard_family("path", 3)))
    assert not is_chordal(standard_family("cycle", 4))
    assert not is_chordal(standard_family("cycle", 5))
    assert is_chordal(standard_family("cycle", 3))
    # chordality is checked per component as well
    two_squares = Graph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    )
    assert not is_chordal(two_squares)


def test_is_chordal_matches_brute_force():
    rng = random.Random(6151)
    seen = set()
    for _ in range(300):
        g = random_graph(rng, max_vertices=8)
        expected = brute_is_chordal(g)
        assert is_chordal(g) == expected, g.edges
        seen.add(expected)
    assert seen == {True, False}


def test_is_connected():
    assert is_connected(standard_family("path", 4))
    assert not is_connected(Graph(["a", "b"], []))
    assert is_connected(Graph([], []))
    assert is_connected(Graph(["a"], []))


def test_graph_json_roundtrip():
    g = standard_family("complete_bipartite", 2, 2)
    text = graph_to_json(g)
    back = graph_from_json(text)
    assert back.labels == g.labels
    assert back.edges == g.edges
    assert back.parts == g.parts

    doc = json.loads(text)
    assert set(doc) == {"vertices", "edges", "parts"}
    assert doc["parts"]["X"] == ["x1", "x2"]


def test_graph_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        graph_from_json("not json at all {")
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"edges": []}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"vertices": [1, 2]}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"vertices": ["a"], "edges": [["a"]]}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"vertices": ["a"], "edges": [], "parts": {"X": ["a"]}}))


def test_parse_construction_atoms():
    assert parse_construction("path:3").labels == ("x1", "x2", "x3")
    assert parse_construction("edge").n_edges == 1
    assert parse_construction("vertex").n_vertices == 1
    assert parse_construction("empty").n_vertices == 0
    assert parse_construction("edgeless:3").n_edges == 0
    assert parse_construction("complete_bipartite:2,3").n_edges == 6
    assert parse_construction("star:4").labels == ("z1", "z2", "z3", "z4", "x1")
    assert parse_construction(" cycle:5 ").n_edges == 5


def test_parse_construction_compounds():
    g = parse_construction("cone(path:3)")
    assert g.n_vertices == 4 and g.n_edges == 5

    h = parse_construction("attach(edge;edge,edge)")
    assert h.labels == ("z1_1", "z1_2", "z2_1", "z2_2", "x1", "x2")

    nested = parse_construction("cone(cone(path:2))")
    assert nested.n_vertices == 4 and nested.n_edges == 6

    cw = parse_construction("cw(complete_bipartite:1,1;leaves=1;triangles=1)")
    assert cw.labels == ("z1_1", "z2_1", "z2_2", "x1", "x2")
    assert cw.n_edges == 5


def test_parse_construction_notes_flag_edgeless_pieces():
    notes = []
    parse_construction("attach(edge;edgeless:2,edge)", notes=notes)
    assert notes == ["attached piece 1 is edgeless"]


def test_parse_construction_json_loader(tmp_path):
    # a .json source inside a compound is read from its path
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(Graph(["a", "b"], [("a", "b")])))
    g = parse_construction(f"cone({path})")
    assert g.labels == ("a", "b", "x1")
    assert g.edges == (("a", "b"), ("a", "x1"), ("b", "x1"))
    with pytest.raises(FileNotFoundError):
        parse_construction(f"cone({tmp_path / 'missing.json'})")


def test_parse_construction_rejects_malformed_strings():
    for bad in [
        "",
        "wheel:4",
        "path",
        "path:two",
        "path:3,4",
        "cone(path:3",
        "attach(edge)",
        "cw(edge;leaves=1)",
        "cw(complete_bipartite:1,1;leaves=1;sides=2)",
        "edgeless:0",
    ]:
        with pytest.raises((ValueError, KeyError)):
            parse_construction(bad)
