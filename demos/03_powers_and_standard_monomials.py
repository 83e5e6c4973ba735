"""
Powers, standard monomials and linear quotients
===============================================

When the initial ideal of the Rees kernel is quadratic, the degree-k
standard monomials in the adjoined variables map exactly onto the minimal
generators of the k-th power of the cover ideal, and a linear-quotients
order for those generators can be read off the same machinery.
"""

from coverrees import (
    check_linear_quotients,
    cover_ideal,
    find_linear_quotients_order,
    minimal_generation_check,
    parse_construction,
    power,
    rees_presentation,
    standard_monomials,
    x_condition,
)

p = rees_presentation(cover_ideal(parse_construction("path:3")))
print("ideal:", ", ".join(str(m) for m in p.ideal.gens))
print("x-condition quadratic:", x_condition(p).quadratic)

# Standard monomials of degree k are the pure products of the adjoined
# variables outside the initial ideal; each maps to a product of the
# matching cover-ideal generators.
for k in (1, 2, 3):
    std = standard_monomials(p, k)
    pk = power(p.ideal, k)
    pairs = ", ".join(f"{m} -> {img}" for m, img in zip(std.members, std.mapped_generators))
    print(f"k={k}: {pairs}")
    print(f"      minimal generators of the power: {', '.join(str(m) for m in pk.gens)}")
    print("      standard monomials generate the power minimally:",
          minimal_generation_check(std, pk))

# The mapped generators arrive in the order the theory predicts admits
# linear quotients: every colon ideal against the earlier generators is
# generated by variables.
square = power(p.ideal, 2)
cert = find_linear_quotients_order(square.gens)
print("\nlinear-quotients order for the square (method: %s):" % cert.method)
print("  ", " , ".join(str(m) for m in cert.ordering))
print("   certificate validates:",
      not isinstance(check_linear_quotients(cert.ordering), int))

# check_linear_quotients on a bad order reports the 1-based position where
# the colon ideal stops being variable-generated.
reversed_order = list(reversed(cert.ordering))
outcome = check_linear_quotients(reversed_order)
if isinstance(outcome, int):
    print("   reversed order fails at position", outcome)
else:
    print("   reversed order also works")

# On the four-cycle no order works at all; the exhaustive search proves it.
square_ideal = cover_ideal(parse_construction("cycle:4"))
print("\nfour-cycle cover ideal admits a linear-quotients order:",
      find_linear_quotients_order(square_ideal.gens) is not None)
