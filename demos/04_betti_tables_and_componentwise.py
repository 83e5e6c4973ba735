"""
Betti tables, linear resolutions and a Cameron-Walker ending
============================================================

Multigraded Betti numbers are computed exactly: from the mapping cone when
the generators have linear quotients in nondecreasing degree (the
triangle), otherwise from upper Koszul complexes over the lcm lattice (the
four-cycle).  The demo closes with a Cameron-Walker graph whose cover ideal
and its square both resolve linearly.
"""

from coverrees import (
    Graph,
    betti_table,
    cameron_walker,
    cover_ideal,
    find_linear_quotients_order,
    has_linear_resolution,
    is_componentwise_linear,
    is_unmixed,
    parse_construction,
    power,
    rees_presentation,
    standard_monomials,
    x_condition,
)

# The triangle's cover ideal: three quadrics with a linear resolution.
tri = cover_ideal(parse_construction("complete:3"))
print("triangle cover ideal:", ", ".join(str(m) for m in tri.gens))
print(betti_table(tri).format_text())
print("linear resolution:", has_linear_resolution(tri))

# The four-cycle's two disjoint quadrics resolve with a degree jump, so no
# linear resolution and no componentwise linearity.
square = cover_ideal(parse_construction("cycle:4"))
print("\nfour-cycle cover ideal:", ", ".join(str(m) for m in square.gens))
print(betti_table(square).format_text())
report = is_componentwise_linear(square)
print("componentwise linear:", report.componentwise_linear, report.by_degree)

# Mixed generator degrees: the path's cover ideal is componentwise linear
# even though equigeneration (hence a linear resolution) fails.
path_ideal = cover_ideal(parse_construction("path:3"))
print("\npath cover ideal componentwise linear:",
      is_componentwise_linear(path_ideal).componentwise_linear,
      " linear resolution:", has_linear_resolution(path_ideal))

# A Cameron-Walker graph: an edge core with one leaf on the left vertex and
# one pendant triangle on the right one.  Its cover ideal is unmixed.
core = Graph(["x1", "x2"], [("x1", "x2")], parts=(["x1"], ["x2"]))
g = cameron_walker(core, 1, 1)
print("\nCameron-Walker graph:", g.labels)
print("unmixed:", is_unmixed(g))

p = rees_presentation(cover_ideal(g))
print("x-condition quadratic:", x_condition(p).quadratic)
print("degree-2 standard monomials:", len(standard_monomials(p, 2).members))

ideal = p.ideal
for name, mono_ideal in [("I", ideal), ("I^2", power(ideal, 2))]:
    cert = find_linear_quotients_order(mono_ideal.gens)
    print(f"{name}: {len(mono_ideal.gens)} generators,",
          f"linear quotients via {cert.method} order,",
          "linear resolution:", has_linear_resolution(mono_ideal))
print(betti_table(ideal).format_text())
