"""Command-line front end.

Subcommands: ``covers`` (minimal vertex covers), ``rees`` (defining-ideal
basis and x-condition verdicts), ``analyze`` (full pipeline over powers),
``construct`` (emit graph JSON from the construction DSL), ``betti``
(Betti table of a cover-ideal power).

Exit codes: 0 all good, 1 a theorem-predicted property failed to verify,
2 bad input (a graph that cannot be read, a report that cannot be
written), 3 a resource bound was exceeded.  Any other exception is a bug
and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .binomial_gb import DEGREE_CAP
from .errors import ResourceLimitExceeded
from .graphs import Graph, graph_to_json, parse_construction
from .monomials import VariableUniverse, cover_ideal, power
from .rees import (
    ReesPresentation,
    XConditionReport,
    minimal_generation_check,
    rees_presentation,
    standard_monomials,
    x_condition,
)
from .resolutions import (
    betti_table,
    find_linear_quotients_order,
    is_componentwise_linear,
)

__all__ = ["main", "console_entry"]


class _InputError(Exception):
    """A graph that cannot be read or a report that cannot be written."""


def _read_graph(source: str, notes: list | None = None) -> Graph:
    try:
        g = parse_construction(source, notes=notes)
        VariableUniverse(g.labels)  # every label must be a variable name
        for name in g.labels:
            if name == "t" or name[:1] == "y" and name[1:].isdigit():
                raise ValueError(f"vertex label {name!r} is reserved for the Rees presentation")
    except (ValueError, OSError) as exc:
        raise _InputError(exc) from exc
    return g


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(exc) from exc


def _write_json(path: str, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _rees_report_doc(report: XConditionReport, presentation: ReesPresentation) -> dict:
    return {
        "x_condition": report.holds,
        "quadratic": report.quadratic,
        "offenders": [str(m) for m in report.offending_generators],
        "in_J_generators": [str(m) for m in report.initial_generators],
        "basis_size": len(presentation.basis.elements),
    }


def cmd_covers(args) -> int:
    from .graphs import minimal_vertex_covers

    g = _read_graph(args.graph)
    covers = minimal_vertex_covers(g)
    ordered = [[v for v in g.labels if v in cover] for cover in covers]
    for members in ordered:
        print("{" + ",".join(members) + "}")
    if args.json:
        _write_json(args.json, {"covers": ordered})
    return 0


def cmd_rees(args) -> int:
    g = _read_graph(args.graph)
    presentation = rees_presentation(cover_ideal(g), degree_cap=args.gb_degree_cap)
    report = x_condition(presentation)
    if args.dump_basis:
        dump = presentation.basis.dump()
        if dump:
            print(dump)
    print(f"x-condition: {'holds' if report.holds else 'fails'}")
    if not report.holds:
        print("offenders: " + ", ".join(str(m) for m in report.offending_generators))
    print(f"quadratic initial ideal: {'yes' if report.quadratic else 'no'}")
    print(f"basis size: {len(presentation.basis.elements)}")
    if presentation.degenerate:
        print("note: unit cover ideal (edgeless graph); kernel is zero")
    if args.json:
        doc = _rees_report_doc(report, presentation)
        _write_json(args.json, {**doc, "kernel_counts": presentation.basis.counts})
    return 0


def _max_gens(args) -> dict:
    """``max_generators`` when ``--max-gens`` is given; else each search
    keeps its own default bound."""
    return {} if args.max_gens is None else {"max_generators": args.max_gens}


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    notes: list[str] = []
    g = _read_graph(args.graph, notes)
    ideal = cover_ideal(g)
    presentation = rees_presentation(ideal, degree_cap=args.gb_degree_cap)
    report = x_condition(presentation)
    degenerate = presentation.degenerate
    predictions_apply = report.quadratic and not degenerate
    failures: list[dict] = []
    powers_doc: list[dict] = []

    for k in range(1, args.max_power + 1):
        sm = standard_monomials(presentation, k)
        pk = power(ideal, k)
        mingen = minimal_generation_check(sm, pk)
        cert = None
        lq_ok: bool | None = None
        if not degenerate:
            cert = find_linear_quotients_order(pk.gens, **_max_gens(args))
            lq_ok = cert is not None
        entry: dict = {
            "k": k,
            "minimal_generator_count": len(pk.gens),
            "standard_monomial_count": len(sm.members),
            "minimal_generation": mingen,
            "linear_quotients": lq_ok,
            "linear_quotients_method": cert.method if cert else None,
            "linear_quotients_order": [str(m) for m in cert.ordering] if cert else None,
            "linear_resolution": None,
            "componentwise_linear": None,
            "componentwise_by_degree": None,
        }
        if args.betti:
            # a failed search above proved pk has no order; the unit ideal skipped it
            cw = cert.componentwise() if cert else is_componentwise_linear(
                pk, **_max_gens(args), _no_order=not degenerate
            )
            entry["linear_resolution"] = cw.linear_resolution
            entry["componentwise_linear"] = cw.componentwise_linear
            entry["componentwise_by_degree"] = {
                str(j): ok for j, ok in sorted(cw.by_degree.items())
            }
        powers_doc.append(entry)
        if predictions_apply:
            if not mingen:
                failures.append({"k": k, "property": "minimal_generation"})
            if not lq_ok:
                failures.append({"k": k, "property": "linear_quotients"})
            if args.betti:
                if entry["componentwise_linear"] is False:
                    failures.append({"k": k, "property": "componentwise_linear"})
                if pk.is_equigenerated() and entry["linear_resolution"] is False:
                    failures.append({"k": k, "property": "linear_resolution"})

    doc = {
        "input": args.graph,
        "graph": {
            "vertex_count": g.n_vertices,
            "edge_count": g.n_edges,
            "vertices": list(g.labels),
        },
        "cover_count": presentation.y_count,
        "degenerate": degenerate,
        "notes": notes,
        "x_condition": _rees_report_doc(report, presentation),
        "kernel_counts": presentation.basis.counts,
        "powers": powers_doc,
        "predictions_apply": predictions_apply,
        "prediction_failures": failures,
        "timings": {"total_s": round(time.perf_counter() - started, 6)},
    }
    if args.json:
        _write_json(args.json, doc)

    print(f"graph: {g.n_vertices} vertices, {g.n_edges} edges; {presentation.y_count} minimal covers")
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    if degenerate:
        print("unit cover ideal (edgeless graph); nothing to predict")
    print(
        "x-condition: "
        + ("holds" if report.holds else "fails")
        + ("; initial ideal quadratic" if report.quadratic else "; initial ideal not quadratic")
    )
    for entry in powers_doc:
        line = (
            f"k={entry['k']}: generators={entry['minimal_generator_count']}"
            f" standard={entry['standard_monomial_count']}"
            f" minimal-generation={'ok' if entry['minimal_generation'] else 'MISMATCH'}"
        )
        if entry["linear_quotients"] is not None:
            line += (
                " linear-quotients="
                + (entry["linear_quotients_method"] or "none")
            )
        if entry["linear_resolution"] is not None:
            line += f" linear-resolution={'yes' if entry['linear_resolution'] else 'no'}"
        if entry["componentwise_linear"] is not None:
            line += f" componentwise-linear={'yes' if entry['componentwise_linear'] else 'no'}"
        print(line)
    if failures:
        details = ", ".join(f"{f['property']} at k={f['k']}" for f in failures)
        print(
            "PREDICTION FAILED despite quadratic initial ideal "
            f"(engine bug or theory violation): {details}",
            file=sys.stderr,
        )
        return 1
    if predictions_apply:
        print("all predicted properties verified")
    else:
        print("no predictions apply (hypothesis not satisfied); verdicts recorded")
    return 0


def cmd_construct(args) -> int:
    notes: list[str] = []
    g = _read_graph(args.dsl, notes)
    text = graph_to_json(g)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    if args.json:
        _write_json(args.json, json.loads(text))
    return 0


def cmd_betti(args) -> int:
    g = _read_graph(args.graph)
    ideal = cover_ideal(g)
    if args.power > 1:
        ideal = power(ideal, args.power)
    table = betti_table(ideal, **_max_gens(args))
    print(table.format_text())
    if args.json:
        doc = {
            "generators": [str(m) for m in ideal.gens],
            "entries": [
                {"i": i, "j": j, "rank": r}
                for (i, j), r in sorted(table.entries.items())
            ],
            "multigraded": [
                {"i": i, "multidegree": str(b), "rank": r}
                for (i, b), r in sorted(
                    table.multigraded.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
        }
        _write_json(args.json, doc)
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverrees",
        description="Rees presentations of cover ideals: x-condition, powers, Betti tables",
    )
    parser.add_argument("--json", metavar="PATH", help="also write a JSON report to PATH")
    parser.add_argument(
        "--max-gens",
        type=positive_int,
        default=None,
        metavar="N",
        help="bound for generator-sensitive searches (linear quotients, Betti tables)",
    )
    parser.add_argument(
        "--gb-degree-cap",
        type=positive_int,
        default=DEGREE_CAP,
        metavar="D",
        help="abort basis computations past this total degree",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("covers", help="minimal vertex covers, lex-descending by cover monomial")
    p.add_argument("graph", help="construction string or graph JSON path")
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("rees", help="defining-ideal basis and x-condition verdicts")
    p.add_argument("graph")
    p.add_argument("--dump-basis", action="store_true", help="print one lead - trail line per element")
    p.set_defaults(func=cmd_rees)

    p = sub.add_parser("analyze", help="full pipeline over powers of the cover ideal")
    p.add_argument("graph")
    p.add_argument("-k", "--max-power", type=positive_int, default=2, metavar="K")
    p.add_argument("--betti", action="store_true", help="add Betti-table based verdicts")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build a graph from the DSL and emit its JSON")
    p.add_argument("dsl")
    p.add_argument("--out", metavar="PATH", help="write the JSON here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("betti", help="Betti table of a cover-ideal power")
    p.add_argument("graph")
    p.add_argument("--power", type=positive_int, default=1, metavar="K")
    p.set_defaults(func=cmd_betti)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitExceeded as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
