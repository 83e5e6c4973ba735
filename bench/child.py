"""Run one ``coverrees`` CLI call for the benchmark and record what it used.

Usage: python3 bench/child.py OUT [--trace JOB_ID] -- CLI_ARGS...

``coverrees.cli.main`` runs exactly as the ``coverrees`` entry point would,
and OUT receives a JSON object with the process's peak RSS.  That is read
from ``VmHWM``, because ``ru_maxrss`` of a child starts from its parent's
peak.  With ``--trace``, wrappers are first installed from outside the
package, on the module attribute each caller looks the name up through,
and OUT also holds the spans.  A span is
``[name, start, end, parent, job, value, error]``: ``parent`` indexes the
enclosing span (-1 for none), ``value`` is a count taken from the result
(see ``PATCHES``) and ``error`` the class name of an exception that left
the call.  A process killed at the benchmark's wall limit writes nothing.
"""

from __future__ import annotations

import json
import sys
import time

from coverrees import binomial_gb, cli, graphs, rees, resolutions


def _reduction_degree(result) -> int:
    # 0 marks a reduction to zero; otherwise the degree the degree cap checks.
    if result is None:
        return 0
    return max(result.lead.total_degree, result.trail.total_degree)


# (module, attribute, span name, count taken from the result or None)
PATCHES = [
    (cli, "parse_construction", "graphs.parse", None),
    (graphs, "minimal_vertex_covers", "graphs.covers", len),
    (cli, "cover_ideal", "monomials.cover_ideal", None),
    (cli, "power", "monomials.power", lambda r: len(r.gens)),
    (resolutions, "component", "monomials.component", None),
    (cli, "rees_presentation", "rees.presentation", None),
    (cli, "x_condition", "rees.x_condition", None),
    (cli, "standard_monomials", "rees.standard_monomials", None),
    (cli, "minimal_generation_check", "rees.mingen_check", None),
    (rees, "toric_kernel", "binomial_gb.toric_kernel", lambda r: len(r.elements)),
    (binomial_gb, "buchberger", "binomial_gb.buchberger", None),
    (binomial_gb, "s_pair", "binomial_gb.s_pair", None),
    (binomial_gb, "reduce_binomial", "binomial_gb.reduce_binomial", _reduction_degree),
    (cli, "find_linear_quotients_order", "resolutions.lq_search", lambda r: int(r is not None)),
    (cli, "is_componentwise_linear", "resolutions.componentwise", None),
    (resolutions, "betti_table", "resolutions.betti_table", None),
    (resolutions, "lcm_lattice", "resolutions.lcm_lattice", len),
    (resolutions, "upper_koszul_faces", "resolutions.koszul", None),
]


class Tracer:
    """Span store for one process; ``wrap`` returns a recording stand-in."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, count):
        spans, stack, job = self.spans, self.stack, self.job

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                value = count(result) if count and error is None else None
                spans[index] = [name, start, end, parent, job, value, error]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name, count in PATCHES:
            setattr(module, attr, self.wrap(name, getattr(module, attr), count))


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    head = argv[: argv.index("--")] if "--" in argv else []
    if len(head) not in (1, 3) or (len(head) == 3 and head[1] != "--trace"):
        print("usage: child.py OUT [--trace JOB_ID] -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = head[0], argv[len(head) + 1 :]
    tracer = Tracer(head[2]) if len(head) == 3 else None
    run_cli = cli.main
    if tracer:
        tracer.install()
        run_cli = tracer.wrap("cli.main", cli.main, None)
    try:
        return run_cli(cli_args)
    finally:
        doc = {"peak_rss_kb": peak_rss_kb()}
        if tracer:
            doc["spans"] = tracer.spans
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
