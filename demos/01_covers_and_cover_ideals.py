"""
Minimal vertex covers and cover ideals
======================================

A tour of the graph layer: build graphs with an explicit vertex priority,
enumerate their minimal vertex covers, and read off the cover ideal.
"""

from coverrees import (
    Graph,
    cover_ideal,
    is_chordal,
    is_unmixed,
    minimal_vertex_covers,
    parse_construction,
)

# A path on three vertices.  The label list fixes the priority x1 > x2 > x3,
# which later decides how generators are matched to the adjoined variables.
path = Graph(["x1", "x2", "x3"], [("x1", "x2"), ("x2", "x3")])
print("path edges:", path.edges)

# Every edge must contain a cover vertex; the two minimal covers are the
# middle vertex alone and the two endpoints together.
for cover in minimal_vertex_covers(path):
    print("  minimal cover:", "{" + ",".join(sorted(cover)) + "}")

# The cover ideal has one squarefree generator per minimal cover, stored
# in descending order under the priority.
ideal = cover_ideal(path)
print("cover ideal:", ", ".join(str(m) for m in ideal.gens))

# The same constructions are available through a small text language.
for source in ["cycle:4", "star:3", "friendship:2", "cone(path:3)"]:
    g = parse_construction(source)
    covers = minimal_vertex_covers(g)
    sizes = sorted(len(c) for c in covers)
    print(f"{source}: {g.n_vertices} vertices, {len(covers)} minimal covers, sizes {sizes}")

# Unmixed means all minimal covers have the same size; chordal means no
# induced cycle of length four or more.  The four-cycle is neither chordal
# nor a tree, and its cover ideal will later fail the x-condition.
square = parse_construction("cycle:4")
print("cycle:4 unmixed:", is_unmixed(square), " chordal:", is_chordal(square))
print("star:3 unmixed:", is_unmixed(parse_construction("star:3")))
print("cover ideal of cycle:4:", ", ".join(str(m) for m in cover_ideal(square).gens))
