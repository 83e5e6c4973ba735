"""
Rees kernels and the x-condition
================================

Present the Rees algebra of a cover ideal by a reduced binomial basis and
test whether every initial generator uses at most one base variable.  The
verdict depends on the vertex priority, not just on the graph.
"""

from coverrees import (
    Graph,
    cover_ideal,
    parse_construction,
    rees_presentation,
    x_condition,
)


def show(title, graph):
    p = rees_presentation(cover_ideal(graph))
    print(f"== {title}")
    print("generator images:", ", ".join(f"y{j + 1} -> {g}" for j, g in enumerate(p.generators)))
    print("reduced kernel basis:")
    for line in (p.basis.dump() or "(zero)").splitlines():
        print("   ", line)
    rep = x_condition(p)
    print("x-condition holds:", rep.holds, " quadratic:", rep.quadratic)
    if not rep.holds:
        print("offending initial generators:", ", ".join(str(m) for m in rep.offending_generators))
    print()
    return rep


# The path: one binomial relation, initial generator x2*y1 of base degree 1.
show("path on three vertices", parse_construction("path:3"))

# The triangle: two relations, still quadratic.
show("triangle", parse_construction("complete:3"))

# The four-cycle fails: the lead term x2*x4*y1 uses two base variables.
show("four-cycle", parse_construction("cycle:4"))

# Priority sensitivity on the star.  Listing the leaves before the center
# makes the center's singleton cover the lex-largest generator and the
# kernel lead term stays linear in the base block.
leaves_first = parse_construction("star:3")
show("star, leaves before center", leaves_first)

# The same graph with the center first reverses the matching and the unique
# relation flips: now the lead term carries all three leaves.
center_first = Graph(
    ["x1", "z1", "z2", "z3"],
    [("x1", "z1"), ("x1", "z2"), ("x1", "z3")],
)
show("star, center before leaves", center_first)
print("same edges either way:",
      {frozenset(e) for e in leaves_first.edges} == {frozenset(e) for e in center_first.edges})
