"""The command-line interface, exercised in process through main(argv)."""

import json

import pytest

from coverrees import (
    Graph,
    cameron_walker,
    cover_ideal,
    find_linear_quotients_order,
    graph_to_json,
    parse_construction,
    power,
)
from coverrees.cli import main
import coverrees.cli as cli_module

from oracles import herzog_takayama_betti, order_admits_linear_quotients


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_covers_output(capsys):
    code, out, err = run(capsys, "covers", "path:3")
    assert code == 0
    assert out.splitlines() == ["{x1,x3}", "{x2}"]
    assert err == ""


def test_covers_json(tmp_path, capsys):
    target = tmp_path / "covers.json"
    code, out, _ = run(capsys, "--json", str(target), "covers", "cycle:4")
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc == {"covers": [["x1", "x3"], ["x2", "x4"]]}


def test_covers_from_json_file(tmp_path, capsys):
    core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
    g = cameron_walker(core, 1, 1)
    path = tmp_path / "cw.json"
    path.write_text(graph_to_json(g))
    code, out, _ = run(capsys, "covers", str(path))
    assert code == 0
    assert out.splitlines() == [
        "{z1_1,z2_1,x2}",
        "{z1_1,z2_2,x2}",
        "{z2_1,z2_2,x1}",
        "{z2_1,x1,x2}",
        "{z2_2,x1,x2}",
    ]


def test_rees_on_three_path(capsys):
    code, out, _ = run(capsys, "rees", "path:3", "--dump-basis")
    assert code == 0
    assert out.splitlines() == [
        "x2*y1 - x1*x3*y2",
        "x-condition: holds",
        "quadratic initial ideal: yes",
        "basis size: 1",
    ]


def test_rees_on_four_cycle(capsys):
    code, out, _ = run(capsys, "rees", "cycle:4")
    assert code == 0
    lines = out.splitlines()
    assert "x-condition: fails" in lines
    assert "offenders: x2*x4*y1" in lines
    assert "quadratic initial ideal: no" in lines


def test_rees_json_report(tmp_path, capsys):
    target = tmp_path / "rees.json"
    code, _, _ = run(capsys, "--json", str(target), "rees", "path:3")
    assert code == 0
    doc = json.loads(target.read_text())
    assert set(doc) == {
        "x_condition",
        "quadratic",
        "offenders",
        "in_J_generators",
        "basis_size",
        "kernel_counts",
    }
    assert doc["x_condition"] is True
    assert doc["quadratic"] is True
    assert doc["offenders"] == []
    assert doc["in_J_generators"] == ["x2*y1"]
    assert doc["basis_size"] == 1
    # the Rees kernel's run: y1 - x1*x3*t and y2 - x2*t form one pair, which
    # gives x2*y1 - x1*x3*y2; its pair with y2 - x2*t has the S-binomial
    # x1*x3*y2*t - y1*y2, whose terms share y2, so it is dropped when formed;
    # its lcm x2*y1*t properly divides x1*x2*x3*y1*t, the lcm of its pair
    # with y1 - x1*x3*t, which criterion M drops
    assert doc["kernel_counts"] == {
        "pairs_popped": 1,
        "pairs_dropped_f": 0,
        "pairs_dropped_m": 1,
        "pairs_dropped_coprime": 0,
        "pairs_dropped_toric": 1,
        "reductions": 1,
        "zero_reductions": 0,
        "peak_live": 3,
        "max_degree": 3,
    }


def test_rees_flags_degenerate_graphs(capsys):
    code, out, _ = run(capsys, "rees", "edgeless:2")
    assert code == 0
    assert "note: unit cover ideal (edgeless graph); kernel is zero" in out.splitlines()


def test_analyze_verifies_three_path(capsys):
    code, out, err = run(capsys, "analyze", "path:3", "-k", "2", "--betti")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph: 3 vertices, 2 edges; 2 minimal covers"
    assert "x-condition: holds; initial ideal quadratic" in lines
    k_lines = [l for l in lines if l.startswith("k=")]
    assert len(k_lines) == 2
    assert "k=1: generators=2 standard=2 minimal-generation=ok" in k_lines[0]
    assert "linear-quotients=ascending" in k_lines[0]
    assert "componentwise-linear=yes" in k_lines[0]
    # the mixed-degree cover ideal correctly reports no linear resolution
    assert "linear-resolution=no" in k_lines[0]
    assert lines[-1] == "all predicted properties verified"
    assert err == ""


def test_analyze_betti_reports_linear_resolution_of_equigenerated_powers(capsys):
    code, out, _ = run(capsys, "analyze", "complete:3", "-k", "2", "--betti")
    assert code == 0
    k_lines = [l for l in out.splitlines() if l.startswith("k=")]
    assert len(k_lines) == 2
    for line in k_lines:
        assert "linear-resolution=yes componentwise-linear=yes" in line


def test_analyze_certifies_three_triangle_friendship_graph(capsys):
    code, out, _ = run(capsys, "--max-gens", "64", "analyze", "friendship:3", "-k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph: 7 vertices, 9 edges; 9 minimal covers"
    assert "x-condition: holds; initial ideal quadratic" in lines
    k_lines = [l for l in lines if l.startswith("k=")]
    assert k_lines == [
        "k=1: generators=9 standard=9 minimal-generation=ok linear-quotients=ascending",
        "k=2: generators=36 standard=36 minimal-generation=ok linear-quotients=ascending",
    ]
    assert lines[-1] == "all predicted properties verified"


def test_analyze_records_failing_hypothesis(capsys):
    code, out, _ = run(capsys, "analyze", "cycle:4")
    assert code == 0
    assert "x-condition: fails; initial ideal not quadratic" in out.splitlines()
    assert out.splitlines()[-1] == "no predictions apply (hypothesis not satisfied); verdicts recorded"


def test_analyze_json_reports_are_reproducible(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code1, _, _ = run(capsys, "--json", str(first), "analyze", "complete:3", "-k", "2", "--betti")
    code2, _, _ = run(capsys, "--json", str(second), "analyze", "complete:3", "-k", "2", "--betti")
    assert code1 == code2 == 0
    doc1 = json.loads(first.read_text())
    doc2 = json.loads(second.read_text())
    assert doc1.pop("timings") != {}
    assert doc2.pop("timings") != {}
    assert doc1 == doc2
    assert doc1["cover_count"] == 3
    assert doc1["predictions_apply"] is True
    assert doc1["prediction_failures"] == []
    assert [p["k"] for p in doc1["powers"]] == [1, 2]
    assert doc1["x_condition"]["basis_size"] == 2
    assert doc1["kernel_counts"]["pairs_popped"] > 0


def test_analyze_flags_prediction_failures(capsys, monkeypatch):
    # force a generation mismatch to exercise the exit-1 path
    monkeypatch.setattr(cli_module, "minimal_generation_check", lambda sm, pk: False)
    code, out, err = run(capsys, "analyze", "path:3", "-k", "1")
    assert code == 1
    assert "PREDICTION FAILED despite quadratic initial ideal" in err
    assert "minimal_generation at k=1" in err


def test_analyze_computes_each_power_once(capsys, monkeypatch):
    # counted wherever a power or a standard-monomial set can be computed
    import coverrees.rees as rees_module

    calls = {"power": [], "standard_monomials": []}
    for module in (cli_module, rees_module):
        for name in calls:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(source, k, name=name, original=original):
                calls[name].append(k)
                return original(source, k)

            monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, "analyze", "path:3", "-k", "3")
    assert code == 0
    assert "all predicted properties verified" in out
    assert calls == {"power": [1, 2, 3], "standard_monomials": [1, 2, 3]}


def test_analyze_betti_searches_each_power_once(capsys, monkeypatch):
    # searched generator counts at both call sites.  Every power of path:5
    # has linear quotients, so the CLI's certificate gives the componentwise
    # verdict and the Betti layer searches nothing.  cycle:6 has no order:
    # the CLI's search proved it, so the Betti layer takes the ideal's
    # Koszul table and searches only its degree-3 truncation
    from coverrees import resolutions

    sizes = []
    search = resolutions.find_linear_quotients_order

    def counting(gens, *args, **kwargs):
        sizes.append(len(gens))
        return search(gens, *args, **kwargs)

    for module in (cli_module, resolutions):
        monkeypatch.setattr(module, "find_linear_quotients_order", counting)
    code, out, _ = run(capsys, "analyze", "path:5", "-k", "3", "--betti")
    assert code == 0
    assert "all predicted properties verified" in out
    assert sizes == [4, 9, 16]
    sizes.clear()
    code, out, _ = run(capsys, "analyze", "cycle:6", "-k", "1", "--betti")
    assert code == 0
    assert "linear-quotients=none linear-resolution=no componentwise-linear=no" in out
    assert sizes == [5, 2]


def test_analyze_betti_takes_the_cli_certificate(tmp_path, capsys):
    # path:7 under the priority x3 > x7 > x4 > x5 > x2 > x1 > x6: the square
    # has 22 generators, past the Betti layer's search bound of 18, and an
    # order that only the search finds; the CLI's certificate decides it
    graph = tmp_path / "path7.json"
    edges = [[f"x{i}", f"x{i + 1}"] for i in range(1, 7)]
    labels = ["x3", "x7", "x4", "x5", "x2", "x1", "x6"]
    graph.write_text(json.dumps({"vertices": labels, "edges": edges}))
    code, out, err = run(capsys, "analyze", str(graph), "-k", "2", "--betti")
    assert code == 0, err
    assert (
        "k=2: generators=22 standard=25 minimal-generation=MISMATCH"
        " linear-quotients=search linear-resolution=no componentwise-linear=yes"
    ) in out.splitlines()


def test_analyze_skips_predictions_for_degenerate_input(capsys):
    code, out, _ = run(capsys, "analyze", "edgeless:3")
    assert code == 0
    lines = out.splitlines()
    assert "unit cover ideal (edgeless graph); nothing to predict" in lines
    # y1^k maps to 1, the generator of (1)^k, so generation is verified
    assert not any("MISMATCH" in line for line in lines)
    assert lines[-1] == "no predictions apply (hypothesis not satisfied); verdicts recorded"


def test_construct_emits_graph_json(capsys):
    code, out, err = run(capsys, "construct", "friendship:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == ["z1", "z2", "z3", "z4", "x1"]
    assert ["z1", "z2"] in doc["edges"]
    assert ["z1", "x1"] in doc["edges"]
    assert err == ""


def test_construct_writes_file_and_notes(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, out, err = run(
        capsys, "construct", "attach(edge;edgeless:2,edge)", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "note: attached piece 1 is edgeless" in err
    doc = json.loads(target.read_text())
    assert doc["vertices"] == ["z1_1", "z1_2", "z2_1", "z2_2", "x1", "x2"]


def test_construct_roundtrips_through_covers(tmp_path, capsys):
    target = tmp_path / "fan.json"
    code, _, _ = run(capsys, "construct", "fan:3", "--out", str(target))
    assert code == 0
    code, out_file, _ = run(capsys, "covers", str(target))
    code2, out_dsl, _ = run(capsys, "covers", "fan:3")
    assert code == code2 == 0
    assert out_file == out_dsl


def test_betti_table_output(capsys):
    code, out, _ = run(capsys, "betti", "complete:3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["i\\j", "2", "3"]
    assert lines[1].split() == ["0", "3", "."]
    assert lines[2].split() == ["1", ".", "2"]


def test_betti_of_power(tmp_path, capsys):
    target = tmp_path / "betti.json"
    code, out, _ = run(capsys, "--json", str(target), "betti", "path:2", "--power", "2")
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["generators"] == ["x1^2", "x1*x2", "x2^2"]
    assert doc["entries"] == [
        {"i": 0, "j": 2, "rank": 3},
        {"i": 1, "j": 3, "rank": 2},
    ]
    assert {e["i"] for e in doc["multigraded"]} == {0, 1}


def test_betti_past_the_koszul_bound(tmp_path, capsys):
    # 36 generators exceed the Betti layer's search bound of 18, but a
    # degree-sorted sweep gives the square of friendship:3 linear quotients,
    # so the table comes from the mapping cone
    target = tmp_path / "r.json"
    code, _, _ = run(capsys, "--json", str(target), "betti", "friendship:3", "--power", "2")
    assert code == 0
    doc = json.loads(target.read_text())
    assert len(doc["generators"]) == 36
    ideal = power(cover_ideal(parse_construction("friendship:3")), 2)
    cert = find_linear_quotients_order(ideal.gens)
    ordered = [dict(m.exps) for m in sorted(cert.ordering, key=lambda m: m.total_degree)]
    assert order_admits_linear_quotients(ordered)
    entries = {(e["i"], e["j"]): e["rank"] for e in doc["entries"]}
    assert entries == herzog_takayama_betti(ordered)


def test_input_errors_exit_2(tmp_path, capsys):
    assert run(capsys, "covers", "wheel:9")[0] == 2
    assert run(capsys, "covers", "cycle:2")[0] == 2
    assert run(capsys, "covers", "missing_file.json")[0] == 2
    assert run(capsys, "construct", "attach(edge)")[0] == 2
    for bad in ("path:1,2", "edgeless", "star:0"):
        assert run(capsys, "construct", bad)[0] == 2
    for name, doc in [
        ("nested_edge.json", {"vertices": ["a", "b"], "edges": [[["a"], "b"]]}),
        (
            "nested_part.json",
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "parts": {"X": [["a"]], "Y": ["b"]}},
        ),
        # labels that cannot name a variable, or that name one of the Rees
        # presentation's own
        ("bad_name.json", {"vertices": ["a-b", "c"], "edges": [["a-b", "c"]]}),
        ("adjoined.json", {"vertices": ["y1", "c"], "edges": [["y1", "c"]]}),
        ("elimination.json", {"vertices": ["t", "c"], "edges": [["t", "c"]]}),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        for command in ("covers", "rees", "analyze", "betti"):
            code, _, err = run(capsys, command, str(path))
            assert code == 2
            assert "input error" in err
    code, _, err = run(capsys, "rees", "cw(edge;leaves=1;triangles=1)")
    assert code == 2
    assert "input error" in err


def test_unwritable_reports_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "no_such_dir" / "out.json")
    for argv in [("--json", missing, "rees", "path:3"), ("construct", "path:3", "--out", missing)]:
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "input error" in err


def test_bounds_below_one_are_usage_errors(capsys):
    for argv in [
        ["--max-gens", "-1", "analyze", "path:2"],
        ["--max-gens", "0", "analyze", "path:2"],
        ["--gb-degree-cap", "0", "rees", "path:2"],
        ["--gb-degree-cap", "-5", "rees", "path:2"],
        ["analyze", "path:3", "-k", "0"],
        ["betti", "path:3", "--power", "0"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "resource bound exceeded" not in err
        assert "must be at least 1" in err


def test_resource_bounds_exit_3(capsys):
    # no order of cycle:4's generators has linear quotients, so the Betti
    # table needs the search, whose bound its 2 generators exceed
    code, _, err = run(capsys, "--max-gens", "1", "betti", "cycle:4")
    assert code == 3
    assert "resource bound exceeded" in err
    assert "exceed the search bound" in err
    # the triangle has linear quotients: its mapping cone needs no bound
    assert run(capsys, "--max-gens", "1", "betti", "complete:3")[0] == 0
    # the bound guards only the search, which cycle:4 needs: no cheap order works
    assert run(capsys, "--max-gens", "1", "analyze", "cycle:4")[0] == 3
    assert run(capsys, "--gb-degree-cap", "1", "rees", "path:2")[0] == 3
    # the CLI's search (bound 24) proves that cycle:6 cubed, 22 generators,
    # has no order; the Betti layer's search of the degree-11 truncation
    # trips its default generator bound instead of degrading silently
    code, _, err = run(capsys, "analyze", "cycle:6", "-k", "3", "--betti")
    assert code == 3
    assert "19 generators exceed the search bound 18" in err
    # path:7 squared has linear quotients, so its 22 generators decide
    code, out, _ = run(capsys, "analyze", "path:7", "-k", "2", "--betti")
    assert code == 0
    assert "k=2: generators=22" in out and "componentwise-linear=yes" in out
    # the truncations of star:3 squared stay within it
    code, out, _ = run(capsys, "analyze", "star:3", "-k", "2", "--betti")
    assert code == 0
    assert "componentwise-linear=yes" in out


def test_search_bound_trips_before_any_koszul_table(capsys, monkeypatch):
    # the Betti layer searches the truncations of cycle:6 cubed from the top
    # down before it builds a Koszul table, so the 19-generator degree-11
    # truncation trips the search bound and the 22-generator cube's table,
    # which would only decide the top degree, is never built; the tables
    # are those of the first power (5 and 2 generators) and the square
    from coverrees import resolutions

    tables = []
    table = resolutions._koszul_betti_table

    def counting(ideal):
        tables.append(len(ideal.gens))
        return table(ideal)

    monkeypatch.setattr(resolutions, "_koszul_betti_table", counting)
    code, _, err = run(capsys, "analyze", "cycle:6", "-k", "3", "--betti")
    assert code == 3
    assert "19 generators exceed the search bound 18" in err
    assert tables == [5, 2, 12, 9, 3]


def test_internal_key_error_is_not_an_input_error(monkeypatch, capsys):
    # only reading the graph and writing reports may exit 2; an exception
    # from the engine is a bug, whatever its class
    for attr, error in [("cover_ideal", KeyError), ("rees_presentation", ValueError)]:

        def broken(*args, **kwargs):
            raise error("internal")

        monkeypatch.setattr(cli_module, attr, broken)
        with pytest.raises(error):
            main(["rees", "path:3"])
        assert "input error" not in capsys.readouterr().err
        monkeypatch.undo()


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_import_stays_light():
    # the package's records are __slots__ classes, so importing the CLI pulls
    # in none of the modules behind dataclasses
    import os
    import subprocess
    import sys

    import coverrees

    src = os.path.dirname(os.path.dirname(coverrees.__file__))
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = (
        "import sys; before = set(sys.modules); import coverrees.cli; "
        f"print(sorted((set(sys.modules) - before) & set({heavy!r})))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
